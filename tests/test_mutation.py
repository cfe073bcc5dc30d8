import numpy as np
import pytest

from ccsubmod import Evaluator, Instance, SurrogateKind, make_degree_weights, make_rng
from ccsubmod.algorithms import Individual, _mutation_positions, _offspring
from conftest import random_sparse_graph
from oracles import full_state, sized_mutation_positions


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
        # (k * (k - 1) >= n). The budget keeps every child feasible, and
        # each child is the next parent.
        for n in (6, 30):
            graph = random_sparse_graph(n, 2 * n, seed=n)
            model = make_degree_weights(graph, 1.0)
            means = model.expected
            evaluator = Evaluator(Instance(graph=graph, weights=model, budget=1e9, alpha=0.1,
                                           surrogate=SurrogateKind.CHEBYSHEV))
            state, g1 = full_state(graph, np.isin(np.arange(n), [1, 3, 5]))
            parent = Individual(state=state, size=3, expected=float(means[[1, 3, 5]].sum()), g1=float(g1), g2=0.0)
            rng = make_rng(5)
            permuted = 0
            for _ in range(300):
                snapshot = parent.state.copy()
                pos = _mutation_positions(n, rng)
                permuted += len(pos) * (len(pos) - 1) >= n
                child = _offspring(evaluator, parent, pos, means)
                selection = child.state >> 1
                assert np.array_equal(np.flatnonzero(selection != snapshot >> 1), np.sort(pos))
                assert np.array_equal(parent.state, snapshot)
                nodes = np.flatnonzero(selection)
                assert child.size == len(nodes)
                assert isinstance(child.expected, float) and child.expected == means[nodes].sum()
                parent = child
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
