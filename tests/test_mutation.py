import copy
import gc
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ccsubmod import Evaluator, Instance, ParetoArchive, SurrogateKind, make_degree_weights, make_rng
from ccsubmod.algorithms import (
    Individual,
    _index_draw,
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
                g2, feasible = evaluator.constraint(size, expected)
                g1, state = evaluator.evaluate_from_stats(feasible, parent.state, pos)
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

    @pytest.mark.parametrize("bound", [*range(1, 17), 40, 1882, 21363, 2**31 - 5, 2**31 + 5, 2**32 - 1])
    def test_index_draw_matches_integers(self, bound):
        # Near 2**31 about half of the 32-bit outputs are rejected, so the
        # rejection loop runs often there.
        for seed in range(3):
            rng, reference = make_rng(seed, bound), make_rng(seed, bound)
            draw = _index_draw(rng)
            for _ in range(300):
                got = draw(bound)
                assert type(got) is int
                assert got == reference.integers(bound)
                assert rng.bit_generator.state == reference.bit_generator.state

    def test_index_draw_interleaved_with_other_draws(self):
        # Other draws take whole 64-bit outputs and leave the spare 32-bit
        # half buffered in the generator; the index draw must use that half
        # exactly as integers does.
        rng, reference = make_rng(17), make_rng(17)
        draw = _index_draw(rng)
        others = [
            lambda g: g.binomial(1882, 1 / 1882),
            lambda g: g.random(3),
            lambda g: g.integers(0, 40, size=(4, 5)),
            lambda g: g.permutation(13),
        ]
        for step in range(2000):
            bound = (1, 2, 7, 1882, 2**31 + 5)[step % 5]
            for _ in range(step % 3):
                assert draw(bound) == reference.integers(bound)
                assert rng.bit_generator.state == reference.bit_generator.state
            other = others[step % 4]
            assert np.array_equal(other(rng), other(reference))
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_index_draw_keeps_its_generator_alive(self):
        # The draw holds the only reference to its generator here; its
        # ctypes pointers alone would let the generator be freed and the
        # memory be reused by the generators made next.
        draw, reference = _index_draw(make_rng(6)), make_rng(6)
        gc.collect()
        others = [make_rng(i) for i in range(50)]
        assert [draw(1882) for _ in range(100)] == [reference.integers(1882) for _ in range(100)]
        del others

    @pytest.mark.parametrize("bound", [2**32, 2**32 + 1, 2**40, 0, -3])
    def test_index_draw_rejects_bounds_out_of_range(self, bound):
        rng = make_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            _index_draw(rng)(bound)
        assert rng.bit_generator.state == before

    def test_uniform_member_picks_as_integers(self):
        archive = ParetoArchive()
        rng, reference = make_rng(8), make_rng(8)
        draw = _index_draw(rng)
        for size in range(1, 60):
            archive.insert(Individual(state=None, size=0, expected=0.0, g1=float(size), g2=float(size)))
            assert len(archive) == size
            for _ in range(5):
                picked = archive.uniform_member(draw)
                assert picked is archive.members[reference.integers(size)]
                assert rng.bit_generator.state == reference.bit_generator.state

    def test_sliding_select_picks_as_integers(self):
        # Several members per unit of g2, so windows hold 0 to 4 members;
        # past t_max selection is uniform over the whole archive.
        archive = ParetoArchive()
        for i in range(60):
            archive.insert(Individual(state=None, size=0, expected=0.0, g1=float(i), g2=0.3 * i))
        members = archive.members
        t_max, budget = 500, 18.0
        rng, reference = make_rng(9), make_rng(9)
        draw = _index_draw(rng)
        occupancies = set()
        for t in [*range(0, t_max + 40), *range(t_max, 0, -7)]:
            chosen, in_window, occ = _sliding_select(archive, t, t_max, budget, draw)
            c_hat = t / t_max * budget
            i0, i1 = archive.index_range(math.floor(c_hat), math.ceil(c_hat))
            if t > t_max:
                expected = members[reference.integers(len(members))]
            elif i1 > i0:
                expected = members[i0 + reference.integers(i1 - i0)]
            else:
                expected = members[i0 - 1]
            assert chosen is expected
            assert (in_window, occ) == (t <= t_max and i1 > i0, i1 - i0 if t <= t_max else 0)
            assert rng.bit_generator.state == reference.bit_generator.state
            occupancies.add(occ)
        assert occupancies >= {0, 1, 3, 4}
