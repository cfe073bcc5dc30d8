import copy
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ccsubmod import Evaluator, Instance, ParetoArchive, SurrogateKind, make_degree_weights, make_rng
from ccsubmod.algorithms import (
    Individual,
    _mutation_positions,
    _sliding_select,
    _spawn_child,
)
from ccsubmod.stats import chi2_sf
from conftest import random_sparse_graph
from oracles import block_mutation_positions, full_state, selection_of


def offspring(counts, positions) -> list[list[int]]:
    """One list of flip positions per offspring of a block."""
    ends = np.cumsum(counts).tolist()
    flat = positions.tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def chi2_p(observed, expected) -> float:
    """Pearson chi-square goodness-of-fit p-value over the given cells."""
    observed, expected = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    return chi2_sf(float(((observed - expected) ** 2 / expected).sum()), len(observed) - 1)


class TestStandardBitMutation:
    def test_single_bit_always_flips(self):
        # flip probability 1/n is 1 for n = 1
        rng = make_rng(0)
        for count in (1, 7, 40):
            counts, positions = _mutation_positions(1, rng, count)
            assert counts.tolist() == [1] * count and positions.tolist() == [0] * count

    def test_identical_seeds_identical_offspring(self):
        a_rng, b_rng = make_rng(99), make_rng(99)
        for count in (1, 10, 50, 4096):
            a, b = _mutation_positions(50, a_rng, count), _mutation_positions(50, b_rng, count)
            assert len(a[0]) == count and a[0].sum() == len(a[1])
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_parent_not_modified(self):
        # Degree weights give non-unit integer means, so size and expected
        # differ; at n = 6 mutation also redraws offspring whose positions
        # repeat. The budget keeps every child feasible, and each child is
        # the next parent.
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
            for pos in offspring(*_mutation_positions(n, rng, 300)):
                snapshot = parent.state.copy()
                permuted += len(pos) * (len(pos) - 1) >= n
                size, expected, _ = _spawn_child(parent, pos, n, means, graph.degrees + 1)
                g2, _ = evaluator.constraint(size, expected)
                g1, state = evaluator.evaluate_from_stats(parent.state, pos)
                child = Individual(state=state, size=size, expected=expected, g1=g1, g2=g2)
                selection = selection_of(child.state)
                assert np.array_equal(np.flatnonzero(selection != selection_of(snapshot)), np.sort(pos))
                assert np.array_equal(parent.state, snapshot)
                nodes = np.flatnonzero(selection)
                assert child.size == len(nodes)
                assert isinstance(child.expected, float) and child.expected == means[nodes].sum()
                parent = child
            if n == 6:
                assert permuted > 0

    def test_mean_hamming_distance_is_one(self):
        # 1e5 offspring at n = 100, drawn in blocks of the archive loop's
        # size and of NSGA-II's; expected flips per offspring = 1
        n = 100
        rng = make_rng(2024)
        for count, blocks in ((4096, 25), (10, 10_000)):
            total = sum(int(_mutation_positions(n, rng, count)[0].sum()) for _ in range(blocks))
            assert abs(total / (count * blocks) - 1.0) < 0.02

    def test_flip_count_distribution_is_binomial(self):
        # Pearson chi-square of 200k flip counts against Binomial(n, 1/n),
        # counts of 4 or more pooled into one cell.
        trials = 200_000
        for n in (2, 6, 64, 1882):
            counts = _mutation_positions(n, make_rng(7, n), trials)[0]
            cells = min(n, 4)
            observed = np.bincount(np.minimum(counts, cells), minlength=cells + 1)
            pmf = [math.comb(n, k) * (1 / n) ** k * (1 - 1 / n) ** (n - k) for k in range(cells)]
            expected = trials * np.array([*pmf, 1 - sum(pmf)])
            if cells == n:  # every count is a cell of its own
                observed, expected = observed[:-1], expected[:-1]
            assert chi2_p(observed, expected) > 1e-3, n

    def test_positions_uniform(self):
        # Each offspring flips distinct positions in range, each position
        # flips equally often (Pearson chi-square), and at 1 < n <= 6 the
        # redraw of offspring whose positions repeat, where often
        # k * (k - 1) >= n, is exercised.
        trials = 200_000
        for n in (1, 2, 6, 30, 1882):
            rng = make_rng(31, n)
            probe = copy.deepcopy(rng)
            raw_counts = probe.binomial(n, 1 / n, size=trials)
            raw = offspring(raw_counts, probe.integers(0, n, size=raw_counts.sum()))
            counts, positions = _mutation_positions(n, rng, trials)
            assert np.array_equal(counts, raw_counts) and counts.sum() == len(positions)
            assert all(len(set(pos)) == len(pos) for pos in offspring(counts, positions))
            assert positions.min() >= 0 and positions.max() < n
            if n > 1:
                assert chi2_p(np.bincount(positions, minlength=n), np.full(n, len(positions) / n)) > 1e-3, n
            if 1 < n <= 6:
                assert sum(len(set(pos)) < len(pos) for pos in raw) > 100

    @pytest.mark.parametrize("k", [2, 3])
    def test_subsets_uniform_where_repeats_are_redrawn(self, k):
        # At n = 6 most offspring with k >= 2 flips draw a repeated
        # position and are redrawn; every k-subset must stay equally likely.
        n = 6
        children = offspring(*_mutation_positions(n, make_rng(41, k), 200_000))
        seen = Counter(tuple(sorted(pos)) for pos in children if len(pos) == k)
        subsets = list(itertools.combinations(range(n), k))
        assert set(seen) == set(subsets)
        total = sum(seen.values())
        assert chi2_p([seen[s] for s in subsets], np.full(len(subsets), total / len(subsets))) > 1e-3


class TestRandomStream:
    @pytest.mark.parametrize("n", [*range(1, 16), 40, 1882, 21363])
    def test_positions_and_state_match_sized_draws(self, n):
        # The vectorized sampler must reproduce a naive one, which checks
        # each offspring for repeats with a python set, value for value and
        # state for state; a numpy release that changes binomial, integers
        # or permutation would silently change every seeded result.
        for seed in range(3):
            rng, reference = make_rng(seed, n), make_rng(seed, n)
            for count in (1, 10, 50, 4096, 3):
                counts, positions = _mutation_positions(n, rng, count)
                assert counts.dtype == positions.dtype == np.int64
                assert offspring(counts, positions) == block_mutation_positions(n, reference, count)
                assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("m", [1, 2, 3, 86, 2097, 2**31 + 5, 2**32 - 1])
    def test_largest_uniform_picks_the_last_of_m(self, m):
        # The archive loop picks member int(u * m) of m with u from
        # rng.random, at most the largest double below 1.
        assert int(math.nextafter(1.0, 0.0) * m) == m - 1

    @pytest.mark.parametrize("occ", [*range(1, 17), 40, 1882])
    def test_window_pick_is_uniform_over_its_members(self, occ):
        # Members below, in and above the window [5, 6] of c = 5.5; every
        # uniform picks a window member, each equally often (Pearson
        # chi-square).
        archive = ParetoArchive()
        g2s = [1.0, 2.0, 3.0, 4.0, *(5 + j / occ for j in range(occ)), 6.5]
        for g1, g2 in enumerate(g2s):
            archive.insert(Individual(state=None, size=0, expected=0.0, g1=float(g1), g2=g2))
        index = {id(m): i for i, m in enumerate(archive.members)}
        draws = max(20_000, 50 * occ)
        seen = Counter()
        for u in make_rng(43, occ).random(draws).tolist():
            chosen, in_window, got_occ = _sliding_select(archive, 550, 1000, 10.0, u)
            assert (in_window, got_occ) == (True, occ)
            seen[index[id(chosen)] - 4] += 1
        assert set(seen) == set(range(occ))
        if occ > 1:
            assert chi2_p([seen[j] for j in range(occ)], np.full(occ, draws / occ)) > 1e-3, occ

    def test_sliding_select_picks_as_integers(self):
        # Several members per unit of g2, so windows hold 0 to 4 members.
        archive = ParetoArchive()
        for i in range(60):
            archive.insert(Individual(state=None, size=0, expected=0.0, g1=float(i), g2=0.3 * i))
        members = archive.members
        t_max, budget = 500, 18.0
        uniforms = make_rng(9).random(2 * t_max).tolist()
        occupancies = set()
        for t, u in zip([*range(1, t_max + 1), *range(t_max, 0, -7)], uniforms):
            chosen, in_window, occ = _sliding_select(archive, t, t_max, budget, u)
            c_hat = t / t_max * budget
            i0, i1 = archive.index_range(math.floor(c_hat), math.ceil(c_hat))
            if i1 > i0:
                expected = members[i0 + int(u * (i1 - i0))]
            else:
                expected = members[i0 - 1]
            assert chosen is expected
            assert (in_window, occ) == (i1 > i0, i1 - i0)
            occupancies.add(occ)
        assert occupancies >= {0, 1, 3, 4}
