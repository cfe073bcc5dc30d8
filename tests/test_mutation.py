import numpy as np

from ccsubmod import make_rng
from ccsubmod.algorithms import Individual, _mutation_positions, _spawn_child


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
        n = 30
        bits = np.zeros(n, dtype=np.uint8)
        bits[[3, 7, 11]] = 1
        snapshot = bits.copy()
        parent = Individual(bits=bits, size=3, expected=3.0, g1=0.0, g2=0.0)
        means = np.ones(n, dtype=np.int64)
        rng = make_rng(5)
        for _ in range(100):
            pos = _mutation_positions(n, rng)
            child, size, expected = _spawn_child(parent, pos, means)
            assert np.array_equal(np.flatnonzero(child != snapshot), np.sort(pos))
            assert size == expected == int(child.sum())
        assert np.array_equal(parent.bits, snapshot)

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
