import numpy as np
import pytest

from ccsubmod import make_degree_weights, make_rng
from ccsubmod.algorithms import Individual, _mutation_positions, _spawn_child
from conftest import random_sparse_graph
from oracles import sized_mutation_positions


class TestStandardBitMutation:
    def test_single_bit_always_flips(self):
        # flip probability 1/n is 1 for n = 1
        rng = make_rng(0)
        for _ in range(40):
            assert _mutation_positions(1, rng).tolist() == [0]

    def test_identical_seeds_identical_offspring(self):
        a = _mutation_positions(50, make_rng(99))
        b = _mutation_positions(50, make_rng(99))
        assert np.array_equal(a, b)

    def test_parent_not_modified(self):
        # Degree weights give non-unit integer means, so size and expected
        # differ; at n = 6 mutation also takes the permutation branch
        # (k * (k - 1) >= n). Each child is the next parent.
        for n in (6, 30):
            means = make_degree_weights(random_sparse_graph(n, 2 * n, seed=n), 1.0).expected
            bits = np.zeros(n, dtype=np.uint8)
            bits[[1, 3, 5]] = 1
            parent = Individual(bits=bits, size=3, expected=float(means[[1, 3, 5]].sum()), g1=0.0, g2=0.0)
            rng = make_rng(5)
            permuted = 0
            for _ in range(300):
                snapshot = parent.bits.copy()
                pos = _mutation_positions(n, rng)
                permuted += len(pos) * (len(pos) - 1) >= n
                child, size, expected = _spawn_child(parent, pos, means)
                assert np.array_equal(np.flatnonzero(child != snapshot), np.sort(pos))
                assert np.array_equal(parent.bits, snapshot)
                nodes = np.flatnonzero(child)
                assert size == len(nodes)
                assert isinstance(expected, float) and expected == means[nodes].sum()
                parent = Individual(bits=child, size=size, expected=expected, g1=0.0, g2=0.0)
            if n == 6:
                assert permuted > 0

    def test_mean_hamming_distance_is_one(self):
        # 1e5 mutations at n = 100; expected flips per offspring = 1
        n, trials = 100, 100_000
        rng = make_rng(2024)
        total = sum(len(_mutation_positions(n, rng)) for _ in range(trials))
        mean = total / trials
        assert abs(mean - 1.0) < 0.05

    def test_flip_count_distribution_is_binomial(self):
        # flip counts should follow Binomial(n, 1/n); check first two moments
        n, trials = 64, 50_000
        rng = make_rng(7)
        counts = np.array([len(_mutation_positions(n, rng)) for _ in range(trials)])
        assert abs(counts.mean() - 1.0) < 0.05
        expected_var = n * (1 / n) * (1 - 1 / n)
        assert abs(counts.var() - expected_var) < 0.06

    def test_positions_uniform(self):
        # each bit should flip equally often, and no position twice at once
        n, trials = 20, 40_000
        rng = make_rng(31)
        hits = np.zeros(n)
        for _ in range(trials):
            pos = _mutation_positions(n, rng)
            assert len(np.unique(pos)) == len(pos)
            hits[pos] += 1
        rate = hits / trials
        assert np.all(np.abs(rate - 1 / n) < 0.01)


class TestRandomStream:
    @pytest.mark.parametrize("n", [*range(1, 16), 40, 1882, 21363])
    def test_positions_and_state_match_sized_draws(self, n):
        # The scalar draws must reproduce the sized sampler value for value
        # and leave the generator in the same state; a numpy release that
        # breaks this would silently change every seeded result.
        for seed in range(3):
            rng, reference = make_rng(seed, n), make_rng(seed, n)
            for _ in range(1000):
                got = _mutation_positions(n, rng)
                assert got.dtype == np.int64
                assert got.tolist() == sized_mutation_positions(n, reference).tolist()
                assert rng.bit_generator.state == reference.bit_generator.state
