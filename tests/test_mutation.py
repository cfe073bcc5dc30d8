import gc
import math

import numpy as np
import pytest

from ccsubmod import Evaluator, Instance, ParetoArchive, SurrogateKind, make_degree_weights, make_rng
from ccsubmod.algorithms import (
    Individual,
    _index_draw,
    _mutation_positions,
    _offspring,
    _sliding_select,
    _spawn_child,
)
from conftest import random_sparse_graph
from oracles import full_state, sized_mutation_positions


class TestStandardBitMutation:
    def test_single_bit_always_flips(self):
        # flip probability 1/n is 1 for n = 1
        rng = make_rng(0)
        draw = _index_draw(rng)
        for _ in range(40):
            assert _mutation_positions(1, rng, draw) == [0]

    def test_identical_seeds_identical_offspring(self):
        a_rng, b_rng = make_rng(99), make_rng(99)
        a_draw, b_draw = _index_draw(a_rng), _index_draw(b_rng)
        for _ in range(200):
            a = _mutation_positions(50, a_rng, a_draw)
            b = _mutation_positions(50, b_rng, b_draw)
            assert type(a) is list and all(type(p) is int for p in a)
            assert a == b

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
            draw = _index_draw(rng)
            permuted = 0
            for _ in range(300):
                snapshot = parent.state.copy()
                pos = _mutation_positions(n, rng, draw)
                permuted += len(pos) * (len(pos) - 1) >= n
                size, expected, _ = _spawn_child(parent, pos, means, graph.degrees + 1)
                child = _offspring(evaluator, parent, pos, size, expected, *evaluator.constraint(size, expected))
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
        draw = _index_draw(rng)
        total = sum(len(_mutation_positions(n, rng, draw)) for _ in range(trials))
        mean = total / trials
        assert abs(mean - 1.0) < 0.05

    def test_flip_count_distribution_is_binomial(self):
        # flip counts should follow Binomial(n, 1/n); check first two moments
        n, trials = 64, 50_000
        rng = make_rng(7)
        draw = _index_draw(rng)
        counts = np.array([len(_mutation_positions(n, rng, draw)) for _ in range(trials)])
        assert abs(counts.mean() - 1.0) < 0.05
        expected_var = n * (1 / n) * (1 - 1 / n)
        assert abs(counts.var() - expected_var) < 0.06

    def test_positions_uniform(self):
        # each bit should flip equally often, and no position twice at once
        n, trials = 20, 40_000
        rng = make_rng(31)
        draw = _index_draw(rng)
        hits = np.zeros(n)
        for _ in range(trials):
            pos = _mutation_positions(n, rng, draw)
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
            draw = _index_draw(rng)
            for _ in range(1000):
                got = _mutation_positions(n, rng, draw)
                assert type(got) is list and all(type(p) is int for p in got)
                assert got == sized_mutation_positions(n, reference).tolist()
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
