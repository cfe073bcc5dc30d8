import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccsubmod import (
    Evaluator,
    G2Regime,
    Instance,
    ParetoArchive,
    RunConfig,
    SurrogateKind,
    make_degree_weights,
    make_iid_weights,
    make_rng,
    run,
)
from ccsubmod.algorithms import (
    Individual,
    _index_draw,
    _sliding_select,
    _tournament,
    crowding_distance,
    fast_nondominated_sort,
)
from conftest import GRAPHS, random_sparse_graph
from oracles import (
    adjacency_lists,
    bits_from_hex,
    coverage_count,
    exhaustive_optimum,
    full_state,
    greedy_coverage,
    layered_fronts,
    lp_coverage_bound,
    naive_coverage,
    naive_surrogate,
    naive_tournament,
    reference_archive_loop,
    reference_nsga2,
    selection_of,
    sized_picks,
)


def ind(g1, g2, size=0):
    return Individual(state=np.zeros(1, dtype=np.uint8), size=size, expected=0.0,
                      g1=float(g1), g2=float(g2))


# ParetoArchive.insert as the archive defines it, for tests that patch it.
_INSERT = ParetoArchive.insert


class BoundWatch:
    """Checks every child an archive run spawns against its exact objectives.

    A child's coverage bound ``parent.g1 + gain`` must be at least its exact
    coverage. A child the loop finds infeasible must be infeasible when
    scored exactly; the loop neither scores it nor offers it. A child the
    loop rejects at its bound must be one that ``ParetoArchive.insert``
    rejects at its exact objectives, and a child the loop scores must enter
    the archive with those objectives. ``spawned``, ``infeasible``,
    ``scored`` and ``rejected`` count the children that went each way.
    """

    def __init__(self, mp, inst, regime):
        from ccsubmod import algorithms

        self.adjacency = adjacency_lists(inst.graph)
        self.reference = Evaluator(inst, regime)
        self.spawned = self.infeasible = self.scored = self.rejected = 0
        self.pending = self.scored_bits = None
        spawn, rejects = algorithms._spawn_child, ParetoArchive.rejects
        constraint = Evaluator.constraint
        score, insert = Evaluator.evaluate_from_stats, ParetoArchive.insert

        def spawn_checked(parent, pos, n, expected_arr, row_sizes):
            out = spawn(parent, pos, n, expected_arr, row_sizes)
            bits = selection_of(parent.state)
            bits[pos] ^= 1
            bound = parent.g1 + out[2]
            assert naive_coverage(self.adjacency, bits) <= bound
            self.spawned += 1
            self.pending = (bits, out, bound)
            return out

        def constraint_checked(evaluator, size, expected):
            out = constraint(evaluator, size, expected)
            if self.pending is not None and evaluator is not self.reference and not out[1]:
                exact = self.reference.evaluate_bits(self.pending[0])
                assert exact == (-1.0, out[0])
                self.pending = None
                self.infeasible += 1
            return out

        def score_checked(evaluator, parent_state, flipped):
            # The run's root, the empty selection, is scored before any spawn.
            if self.pending is not None:
                assert self.scored_bits is None  # the last child scored was inserted
                self.scored_bits, _, _ = self.pending
                self.pending = None
                self.scored += 1
            return score(evaluator, parent_state, flipped)

        def insert_checked(archive, child):
            assert child.g1 >= 0 and child.state is not None
            if self.scored_bits is not None:
                # The child just scored enters with its exact objectives.
                assert (child.g1, child.g2) == tuple(self.reference.evaluate_bits(self.scored_bits))
                self.scored_bits = None
            return insert(archive, child)

        def rejects_checked(archive, g1, g2):
            out = rejects(archive, g1, g2)
            if self.pending is not None:
                # The loop's bound test; insert's own test comes after scoring.
                bits, (size, expected, _), bound = self.pending
                exact = self.reference.evaluate_bits(bits)
                assert (g1, g2) == (bound, exact.g2) and exact.g1 >= 0
                if out:
                    self.pending = None
                    self.rejected += 1
                    child = Individual(state=None, size=size, expected=expected, g1=exact.g1, g2=exact.g2)
                    assert not _INSERT(archive, child)
            return out

        mp.setattr(algorithms, "_spawn_child", spawn_checked)
        mp.setattr(Evaluator, "constraint", constraint_checked)
        mp.setattr(Evaluator, "evaluate_from_stats", score_checked)
        mp.setattr(ParetoArchive, "insert", insert_checked)
        mp.setattr(ParetoArchive, "rejects", rejects_checked)


def small_instance(seed=0, n=12, budget=6.0, alpha=0.1,
                   surrogate=SurrogateKind.CHEBYSHEV, weights="iid"):
    graph = random_sparse_graph(n, 2 * n, seed=seed)
    if weights == "iid":
        model = make_iid_weights(n, 1, 0.5)
    else:
        model = make_degree_weights(graph, 1.0)
    return Instance(graph=graph, weights=model, budget=budget, alpha=alpha,
                    surrogate=surrogate, name=f"synth{n}")


class TestSlidingSelection:
    def build_archive(self, pairs):
        archive = ParetoArchive()
        for g1, g2 in pairs:
            archive.insert(ind(g1, g2))
        return archive

    def test_t_zero_selects_empty_set_individual(self):
        archive = self.build_archive([(0, 0), (3, 1.9), (5, 2.9)])
        chosen, in_window, occ = _sliding_select(archive, 0, 100, 10.0, _index_draw(make_rng(0)))
        assert (chosen.g1, chosen.g2) == (0.0, 0.0)
        assert in_window and occ == 1

    def test_final_window_is_budget_for_integer_budget(self):
        archive = self.build_archive([(0, 0), (4, 20.0), (9, 43.0)])
        chosen, in_window, occ = _sliding_select(archive, 100, 100, 43.0, _index_draw(make_rng(0)))
        assert chosen.g2 == 43.0
        assert in_window and occ == 1

    def test_empty_window_falls_back_to_best_below(self):
        # c = 5.4 -> window [5, 6] empty; candidates below are both members
        archive = self.build_archive([(0, 0), (7, 2.3)])
        chosen, in_window, occ = _sliding_select(archive, 54, 100, 10.0, _index_draw(make_rng(0)))
        assert chosen.g1 == 7.0
        assert not in_window and occ == 0

    def test_fallback_prefers_largest_coverage(self):
        archive = self.build_archive([(0, 0), (2, 1.0), (6, 3.0), (9, 8.5)])
        # c = 5.0 -> window [5, 5] empty; best below floor(c) has g1 = 6
        chosen, in_window, occ = _sliding_select(archive, 50, 100, 10.0, _index_draw(make_rng(0)))
        assert chosen.g1 == 6.0
        assert not in_window and occ == 0

    def test_window_membership_for_uniform_choice(self):
        # c = 4.5 -> window [4, 5] holds the members at g2 = 4.6 and 5.0
        archive = self.build_archive([(0, 0), (2, 4.6), (3, 5.0), (9, 9.0)])
        draw = _index_draw(make_rng(2))
        seen = set()
        for _ in range(50):
            chosen, in_window, occ = _sliding_select(archive, 45, 100, 10.0, draw)
            assert in_window and occ == 2
            assert 4 <= chosen.g2 <= 5
            seen.add(chosen.g2)
        assert seen == {4.6, 5.0}


class TestArchiveRuns:
    def test_tmax_zero_returns_empty_set_archive(self):
        inst = small_instance()
        result = run(inst, RunConfig(algorithm="gsemo", t_max=0, seed=1))
        assert result.best_g1 == 0.0
        assert result.archive_size == 1
        assert result.final_objectives == [(0.0, 0.0)]
        assert result.evaluations == 1

    @pytest.mark.parametrize("algorithm", ["gsemo", "sw-gsemo"])
    def test_toy_runs_find_exhaustive_optimum(self, algorithm):
        inst = small_instance(seed=3)
        optimum, _ = exhaustive_optimum(inst)
        cfg = RunConfig(algorithm=algorithm, t_max=100_000, seed=5)
        assert run(inst, cfg).best_g1 == optimum

    def test_empty_set_individual_persists(self):
        inst = small_instance(seed=4)
        result = run(inst, RunConfig(algorithm="gsemo", t_max=5_000, seed=6))
        assert (0.0, 0.0) in result.final_objectives

    def test_deterministic_given_seed(self):
        inst = small_instance(seed=5)
        cfg = RunConfig(algorithm="sw-gsemo", t_max=5_000, seed=42, trace=True)
        a = run(inst, cfg)
        b = run(inst, cfg)
        assert a.best_g1 == b.best_g1
        assert a.best_bits_hex == b.best_bits_hex
        assert a.archive_size == b.archive_size
        # Zero-flip rows hold NaN objectives.
        assert np.array_equal(a.trace.g2, b.trace.g2, equal_nan=True)
        assert np.array_equal(a.trace.accepted, b.trace.accepted)

    def test_evaluation_budget_accounting(self):
        inst = small_instance(seed=6)
        for algorithm in ("gsemo", "sw-gsemo"):
            cfg = RunConfig(algorithm=algorithm, t_max=2_345, seed=0)
            assert run(inst, cfg).evaluations == 2_345 + 1
        cfg = RunConfig(algorithm="nsga2", t_max=2_000, seed=0, population=20, children=10)
        assert run(inst, cfg).evaluations == 2_000 + 1

    def test_best_bits_reproduce_best_value(self):
        inst = small_instance(seed=7)
        result = run(inst, RunConfig(algorithm="gsemo", t_max=5_000, seed=1))
        bits = bits_from_hex(result.best_bits_hex, inst.graph.n)
        assert coverage_count(inst.graph, bits) == result.best_g1

    def test_peak_archive_within_iid_bound(self):
        inst = small_instance(seed=8, n=30, budget=9.0)
        k_bound = min(inst.graph.n + 1, math.floor(inst.budget / 1) + 1)
        for algorithm in ("gsemo", "sw-gsemo"):
            result = run(inst, RunConfig(algorithm=algorithm, t_max=20_000, seed=2))
            assert result.peak_archive_size <= k_bound

    def test_window_invariants_on_trace(self):
        inst = small_instance(seed=9, n=40, budget=12.0)
        t_max = 30_000
        result = run(inst, RunConfig(algorithm="sw-gsemo", t_max=t_max, seed=3, trace=True))
        tr = result.trace
        t = np.arange(1, t_max + 1)
        c_hat = t / t_max * inst.budget
        in_w = tr.in_window
        assert np.all(np.floor(c_hat[in_w]) <= tr.parent_g2[in_w])
        assert np.all(tr.parent_g2[in_w] <= np.ceil(c_hat[in_w]))
        # iid weights allow at most one archive member in any unit window
        assert tr.window_count.max() <= 1
        # A zero-flip row selects no parent and makes no child, so it has no
        # window to count. About (1 - 1/n)^n of the rows.
        zero = np.isnan(tr.parent_g2)
        assert abs(zero.mean() - (1 - 1 / 40) ** 40) < 0.01
        assert np.all(np.isnan(tr.g1[zero]) & np.isnan(tr.g2[zero]))
        assert not np.any(tr.accepted[zero] | tr.in_window[zero])
        assert np.all(tr.window_count[zero] == 0)
        assert not np.any(np.isnan(tr.g2[~zero]))

    def test_window_occupancy_at_most_two_in_expected_regime(self):
        inst = small_instance(seed=10, n=40, budget=14.0, weights="degree")
        cfg = RunConfig(algorithm="sw-gsemo", t_max=30_000, seed=4,
                        regime=G2Regime.EXPECTED, trace=True)
        result = run(inst, cfg)
        assert result.trace.window_count.max() <= 2

    def test_expected_regime_archive_uses_expected_weight(self):
        inst = small_instance(seed=11, weights="degree")
        cfg = RunConfig(algorithm="sw-gsemo", t_max=5_000, seed=5, regime=G2Regime.EXPECTED)
        result = run(inst, cfg)
        for g1, g2 in result.final_objectives:
            assert g2 == int(g2)  # integer means -> integer archive objective

    def test_exact_optimum_at_benchmark_scale(self):
        # 1882-node disjoint-star graph: the optimum under budget 43
        # (37 selectable nodes) is the 37 largest star neighborhoods, known
        # in closed form. The window-based optimizer must hit it exactly on
        # every seed at half a million evaluations, mirroring its
        # zero-variance behavior on similarly sparse benchmark graphs.
        # Uniform parent selection converges more slowly here (many
        # near-tied stars); its exactness is asserted at desk scale. (Two
        # runs of about 0.8 s each.)
        from ccsubmod import Graph

        sizes = [3 + (i * 7) % 45 for i in range(60)]
        edges = []
        node = 0
        for s in sizes:
            edges.extend((node, node + leaf) for leaf in range(1, s + 1))
            node += s + 1
        graph = Graph.from_edges(1882, np.array(edges))
        inst = Instance(graph=graph, weights=make_iid_weights(1882, 1, 0.5),
                        budget=43.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        optimum = float(sum(s + 1 for s in sorted(sizes, reverse=True)[:37]))
        # The seeds of repetitions 0 and 1 of grid cell 0 under base seed 79.
        results = [run(inst, RunConfig(algorithm="sw-gsemo", t_max=500_000, seed=(79, 0, rep))) for rep in range(2)]
        assert [r.best_g1 for r in results] == [optimum, optimum]
        assert all(r.peak_archive_size <= 44 for r in results)


class TestWindowReleasesStates:
    """SW-GSEMO drops the state of every member its window has passed."""

    @staticmethod
    def check_released(archive, floor):
        # Only the last member below the floor can still be selected (as the
        # empty window's fallback); every member under it is stateless.
        members = archive.members
        last = sum(m.g2 < floor for m in members) - 1
        assert [m.state is None for m in members] == [i < last for i in range(len(members))]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(min_value=8, max_value=30),
        weights=st.sampled_from(["iid", "degree"]),
        surrogate=st.sampled_from(list(SurrogateKind)),
        regime=st.sampled_from(list(G2Regime)),
        t_max=st.integers(min_value=20, max_value=800),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_exactly_the_passed_members_are_stateless(
        self, data, n, weights, surrogate, regime, t_max, seed
    ):
        from ccsubmod import algorithms

        budget = data.draw(st.sampled_from([2.5, n / 4, n / 2 + 0.5, float(n - 1)]))
        inst = small_instance(seed=seed, n=n, budget=budget, surrogate=surrogate, weights=weights)
        original, sample = ParetoArchive.insert, algorithms._mutation_positions
        floor = [-math.inf]
        inserts, zero_flips = [], []

        def select(archive, t, t_max, budget, draw):
            parent, in_window, occ = _sliding_select(archive, t, t_max, budget, draw)
            floor[0] = math.floor((t / t_max) * budget)
            self.check_released(archive, floor[0])
            assert parent.state is not None
            return parent, in_window, occ

        def insert(archive, ind):
            accepted = original(archive, ind)
            self.check_released(archive, floor[0])
            inserts.append(accepted)
            return accepted

        def mutation_positions(n, rng, count):
            counts, positions = sample(n, rng, count)
            zero_flips.append(count - np.count_nonzero(counts))
            return counts, positions

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algorithms, "_sliding_select", select)
            mp.setattr(ParetoArchive, "insert", insert)
            mp.setattr(algorithms, "_mutation_positions", mutation_positions)
            watch = BoundWatch(mp, inst, regime)
            result = run(inst, RunConfig(algorithm="sw-gsemo", t_max=t_max, seed=seed, regime=regime))
        # Every child but the zero-flip ones, the infeasible ones and those
        # rejected at their coverage bound is inserted, and so is the empty
        # selection.
        assert len(inserts) + watch.infeasible + watch.rejected + sum(zero_flips) == t_max + 1
        assert watch.spawned == watch.scored + watch.rejected + watch.infeasible
        assert result.archive_size == len(result.final_objectives)

    @pytest.mark.parametrize("regime, best_g1, archive_size", [
        (G2Regime.SURROGATE, 14499.0, 1992),
        (G2Regime.EXPECTED, 14366.0, 1920),
    ])
    def test_condmat_size_run_peak_stays_small(self, regime, best_g1, archive_size):
        # A CondMat-size sweep (n = 21363, B = n // 10) grows the archive to
        # about 2000 members in 6000 evaluations. With a state per member
        # the run's traced peak is about 40 MB; with states for the window's
        # members only it is under 1 MB.
        import tracemalloc

        graph = random_sparse_graph(21363, 91286, seed=1)
        inst = Instance(graph=graph, weights=make_iid_weights(graph.n, 1, 0.5), budget=2136.0,
                        alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        tracemalloc.start()
        try:
            result = run(inst, RunConfig(algorithm="sw-gsemo", t_max=6000, seed=1, regime=regime))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.best_g1, result.archive_size) == (best_g1, archive_size)
        assert peak < 4 * 2**20


class TestCoverageBound:
    """GSEMO and SW-GSEMO skip scoring a child the archive rejects at its
    coverage bound; results stay those of scoring every child."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(min_value=8, max_value=30),
        algorithm=st.sampled_from(["gsemo", "sw-gsemo"]),
        weights=st.sampled_from(["iid", "degree"]),
        surrogate=st.sampled_from(list(SurrogateKind)),
        regime=st.sampled_from(list(G2Regime)),
        t_max=st.integers(min_value=20, max_value=600),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bound_covers_every_child(self, data, n, algorithm, weights, surrogate, regime, t_max, seed):
        budget = data.draw(st.sampled_from([2.5, n / 4, n / 2 + 0.5, float(n - 1)]))
        inst = small_instance(seed=seed, n=n, budget=budget, surrogate=surrogate, weights=weights)
        with pytest.MonkeyPatch.context() as mp:
            watch = BoundWatch(mp, inst, regime)
            result = run(inst, RunConfig(algorithm=algorithm, t_max=t_max, seed=seed, regime=regime))
        assert watch.spawned == watch.scored + watch.rejected + watch.infeasible
        assert result.evaluations == t_max + 1

    # Degree weights give each node the mean |N[v]|, so in the expected-g2
    # regime an added node raises g2 as much as the coverage bound, and the
    # bound almost never decides there.
    @pytest.mark.parametrize("algorithm", ["gsemo", "sw-gsemo"])
    @pytest.mark.parametrize("weights, regime", [
        ("iid", G2Regime.SURROGATE), ("iid", G2Regime.EXPECTED), ("degree", G2Regime.SURROGATE),
    ])
    def test_traced_run_takes_the_untraced_steps(self, algorithm, weights, regime):
        from dataclasses import replace

        inst = small_instance(seed=31, n=40, budget=12.0, weights=weights)
        results, watches = [], []
        for trace in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                watches.append(BoundWatch(mp, inst, regime))
                cfg = RunConfig(algorithm=algorithm, t_max=4000, seed=7, regime=regime, trace=trace)
                results.append(run(inst, cfg))
        untraced, traced = watches
        assert untraced.rejected > 0 and untraced.infeasible > 0
        assert untraced.spawned == untraced.scored + untraced.rejected + untraced.infeasible
        assert (traced.spawned, traced.scored, traced.rejected, traced.infeasible) == (
            untraced.spawned, untraced.scored, untraced.rejected, untraced.infeasible)
        a, b = (replace(r, trace=None, wall_time_s=0.0) for r in results)
        assert a == b and a.evaluations == 4001
        tr = results[1].trace
        assert results[0].trace is None and len(tr) == 4000
        # A child rejected at its bound has a parent but no g1.
        bounded = ~np.isnan(tr.parent_g2) & np.isnan(tr.g1)
        assert bounded.sum() == untraced.rejected
        assert not tr.accepted[bounded].any()
        # An infeasible child is not scored either; it has g1 -1.
        infeasible = tr.g1 == -1
        assert infeasible.sum() == untraced.infeasible
        assert not tr.accepted[infeasible].any()


class TestNsga2:
    def test_one_generation_creates_exactly_children_count(self):
        inst = small_instance(seed=12)
        cfg = RunConfig(algorithm="nsga2", t_max=10, seed=1, population=20, children=10)
        result = run(inst, cfg)
        assert result.evaluations == 10 + 1  # one generation of children + initial

    @pytest.mark.parametrize("t_max", [4_089, 4_090, 4_099, 4_100, 8_185, 9_000])
    def test_evaluations_across_block_boundaries(self, monkeypatch, t_max):
        # A λ=10 block holds 409 generations, 4090 evaluations: one batch of
        # λ children per generation plus the initial individual, whether
        # t_max ends inside a block, at its end or past it.
        batches = []
        original = Evaluator.evaluate_groups

        def counted(self, nodes, groups, count):
            batches.append(count)
            return original(self, nodes, groups, count)

        monkeypatch.setattr(Evaluator, "evaluate_groups", counted)
        result = run(small_instance(seed=12), RunConfig(algorithm="nsga2", t_max=t_max, seed=1))
        assert result.evaluations == (t_max // 10) * 10 + 1
        assert batches == [1] + [10] * (t_max // 10)

    def test_lambda_cannot_exceed_mu(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="nsga2", t_max=100, seed=0, population=10, children=20)

    def test_trace_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="nsga2", t_max=100, seed=0, trace=True)

    def test_finds_toy_optimum(self):
        inst = small_instance(seed=13)
        optimum, _ = exhaustive_optimum(inst)
        cfg = RunConfig(algorithm="nsga2", t_max=20_000, seed=2, population=20, children=10)
        assert run(inst, cfg).best_g1 == optimum

    def test_deterministic(self):
        inst = small_instance(seed=14)
        cfg = RunConfig(algorithm="nsga2", t_max=3_000, seed=9, population=20, children=10)
        a, b = run(inst, cfg), run(inst, cfg)
        assert a.best_g1 == b.best_g1
        assert a.best_bits_hex == b.best_bits_hex


class TestCertifiedBound:
    """Every algorithm against a certified optimum at CSphd size.

    The graph is ``perfbench/graphgen.py``'s CSphd-size graph with seed 11
    (n = 1882), under iid weights (a = 1, d = 0.5), Chebyshev, alpha = 0.1
    and B = 94. The surrogate then depends only on |x|, so the chance
    constraint is the cardinality bound k* = 85, and the LP relaxation of
    max coverage under |x| <= k* bounds every feasible selection.
    """

    T_MAX = 40_000

    @pytest.fixture(scope="class")
    def setting(self):
        import sys
        from pathlib import Path

        from ccsubmod.graphs import Graph

        perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
        sys.path.insert(0, perfbench)
        try:
            import graphgen
        finally:
            sys.path.remove(perfbench)

        spec = graphgen.CSPHD
        graph = Graph.from_edges(spec.n, graphgen.generate(spec, 11))
        budget = float(spec.n // 20)
        inst = Instance(graph=graph, weights=make_iid_weights(spec.n, 1, 0.5), budget=budget, alpha=0.1,
                        surrogate=SurrogateKind.CHEBYSHEV)
        k_star = max(k for k in range(spec.n + 1) if naive_surrogate(k, k, 0.5, 0.1, "chebyshev") <= budget)
        return inst, k_star, lp_coverage_bound(graph, k_star), greedy_coverage(graph, k_star)

    def test_lp_bound_is_integral_and_greedy_meets_it(self, setting):
        _, k_star, bound, greedy = setting
        assert k_star == 85
        assert bound == pytest.approx(705, abs=1e-6) and greedy == 705

    @pytest.mark.parametrize("algorithm,population,children", [
        ("gsemo", 20, 10), ("sw-gsemo", 20, 10), ("nsga2", 20, 10), ("nsga2", 100, 50),
    ])
    def test_best_g1_between_greedy_guarantee_and_lp_bound(self, setting, algorithm, population, children):
        # (1 - 1/e) * greedy only catches gross breakage: at this t_max the
        # slowest column, NSGA-II-100, reads about 520-600 over run seeds.
        inst, _, bound, greedy = setting
        result = run(inst, RunConfig(algorithm=algorithm, t_max=self.T_MAX, seed=(21, population),
                                     population=population, children=children))
        assert (1 - 1 / math.e) * greedy <= result.best_g1 <= bound + 1e-6


class TestTournament:
    @pytest.mark.parametrize("pool", [20, 100, 150])
    @pytest.mark.parametrize("count", [1, 7, 10, 50])
    def test_parents_and_state_match_sized_draws(self, pool, count):
        # One (generations, 4, count) draw gives the values and leaves the
        # generator state of four sized draws per generation, generation
        # after generation. Ranks and crowding distances with ties, so both
        # tie rules decide.
        setup = make_rng(pool, count)
        rank = setup.integers(0, 4, size=pool)
        crowd = setup.choice([0.5, 1.0, np.inf], size=pool)
        rng, reference = make_rng(count, pool), make_rng(count, pool)
        for generations in (1, 3, 409, 2):
            picks = rng.integers(0, pool, size=(generations, 4, count))
            rows = sized_picks(reference, pool, generations, count)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert picks.tolist() == rows
            for drawn, want in zip(picks, rows):
                got = _tournament(rank, crowd, drawn)
                assert [g.tolist() for g in got] == list(naive_tournament(rank.tolist(), crowd.tolist(), want))


def _result_fields(result) -> dict:
    return {
        "best_g1": result.best_g1,
        "best_bits_hex": result.best_bits_hex,
        "evaluations": result.evaluations,
        "archive_size": result.archive_size,
        "peak_archive_size": result.peak_archive_size,
        "final_objectives": [[o.g1, o.g2] for o in result.final_objectives],
    }


class TestArchiveLoopReference:
    """GSEMO and SW-GSEMO runs equal a reference that scores every child
    and draws in the declared order (``oracles.reference_archive_loop``)."""

    # The last input admits at most k* = 3 nodes (iid weights, Chernoff at
    # alpha = 0.001, B = 9), so about a third of the children are infeasible.
    @pytest.mark.parametrize("algorithm", ["gsemo", "sw-gsemo"])
    @pytest.mark.parametrize("weights,regime,budget,surrogate,alpha", [
        ("iid", G2Regime.SURROGATE, 9.0, SurrogateKind.CHEBYSHEV, 0.1),
        ("degree", G2Regime.EXPECTED, 24.0, SurrogateKind.CHEBYSHEV, 0.1),
        ("iid", G2Regime.SURROGATE, 9.0, SurrogateKind.CHERNOFF, 0.001),
    ], ids=["iid-G2Regime.SURROGATE-9.0", "degree-G2Regime.EXPECTED-24.0", "iid-G2Regime.SURROGATE-9.0-chernoff"])
    @pytest.mark.parametrize("t_max", [700, 4_500])
    def test_run_matches_reference(self, algorithm, weights, regime, budget, surrogate, alpha, t_max):
        inst = small_instance(seed=5, n=30, budget=budget, alpha=alpha, surrogate=surrogate, weights=weights)
        cfg = RunConfig(algorithm=algorithm, t_max=t_max, seed=(8, t_max), regime=regime, trace=True)
        result = run(inst, cfg)
        reference = reference_archive_loop(inst, cfg)
        want = reference.pop("trace")
        assert _result_fields(result) == reference
        got = result.trace
        for column in ("parent_g2", "g2", "accepted", "in_window", "window_count"):
            assert np.array_equal(got[column], want[column], equal_nan=column.endswith("g2")), column
        # A NaN g1 with a parent is a child rejected at its coverage bound:
        # exactly scored, it is feasible and the archive rejects it. The
        # bound almost never decides under degree weights in the expected
        # regime (see TestCoverageBound).
        bounded = ~np.isnan(got.parent_g2) & np.isnan(got.g1)
        assert bounded.any() or weights == "degree"
        assert np.all(want["g1"][bounded] >= 0) and not want["accepted"][bounded].any()
        assert np.array_equal(got.g1[~bounded], want["g1"][~bounded], equal_nan=True)
        # A g1 of -1 is an infeasible child, which is not scored either.
        infeasible = got.g1 == -1
        assert np.array_equal(infeasible, want["g1"] == -1)
        assert infeasible.any() and not want["accepted"][infeasible].any()


class TestNsga2Reference:
    """NSGA-II runs equal a per-child reference that draws in the declared
    order (``oracles.reference_nsga2``)."""

    # (mu, lambda, t_max): each of the first four spans more than one
    # block of max(1, 4096 // lambda) generations, ends inside a partial
    # block and, for lambda > 1, leaves a remainder of fewer than lambda
    # evaluations; the last two run no generation at all.
    SIZES = [(20, 10, 4597), (100, 50, 4570), (5, 1, 4396), (7, 7, 4378), (100, 50, 30), (20, 10, 9)]

    @pytest.mark.parametrize("mu,lam,t_max", SIZES)
    @pytest.mark.parametrize("weights,surrogate,regime", [
        ("iid", SurrogateKind.CHERNOFF, G2Regime.EXPECTED),
        ("degree", SurrogateKind.CHEBYSHEV, G2Regime.SURROGATE),
    ])
    def test_run_matches_reference(self, mu, lam, t_max, weights, surrogate, regime):
        inst = small_instance(seed=3, n=14, budget=8.0, surrogate=surrogate, weights=weights)
        cfg = RunConfig(algorithm="nsga2", t_max=t_max, seed=(5, mu, lam), population=mu, children=lam,
                        regime=regime)
        result = _result_fields(run(inst, cfg))
        assert result == reference_nsga2(inst, cfg)
        assert result["evaluations"] == (t_max // lam) * lam + 1

    @pytest.mark.parametrize("mu,lam", [(20, 10), (100, 50), (7, 7)])
    def test_small_blocks_and_coin_refills_match_reference(self, monkeypatch, mu, lam):
        # With a block constant of 16, a λ=50 block holds one generation,
        # and a generation often needs more than 16 coins, so the coin
        # buffer is refilled with exactly as many as it needs.
        from ccsubmod import algorithms

        monkeypatch.setattr(algorithms, "_BLOCK", 16)
        inst = small_instance(seed=4, n=30, budget=12.0, weights="degree")
        cfg = RunConfig(algorithm="nsga2", t_max=1_003, seed=(6, mu), population=mu, children=lam)
        assert _result_fields(run(inst, cfg)) == reference_nsga2(inst, cfg)


def _fronts(points):
    g1 = np.array([p[0] for p in points], dtype=float)
    g2 = np.array([p[1] for p in points], dtype=float)
    return [front.tolist() for front in fast_nondominated_sort(g1, g2)]


class TestFastNondominatedSort:
    # Crowding distance breaks ties by position within a front, so each
    # front must list its indices in ascending order, not merely hold them.
    def test_six_hand_points_match_layered_filter(self):
        # (maximize g1, minimize g2)
        points = [(5.0, 3.0), (4.0, 2.0), (3.0, 1.0), (5.0, 5.0), (2.0, 4.0), (1.0, 0.0)]
        assert _fronts(points) == layered_fronts(points)

    def test_random_points_match_layered_filter(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            pts = [(float(a), float(b)) for a, b in rng.integers(0, 8, size=(30, 2))]
            assert _fronts(pts) == layered_fronts(pts)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(points=st.lists(
        st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, 5.0]),
                  st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5])),
        max_size=60,
    ))
    @example(points=[(3.0, 2.0)])
    @example(points=[(-1.0, 4.0)] * 5)
    @example(points=[(2.0, 1.5)] * 7)
    def test_ties_duplicates_and_sentinel_match_layered_filter(self, points):
        # g1 = -1 is the infeasible sentinel; the small value sets force
        # equal g1, equal g2 and duplicate pairs, and the examples pin a
        # single point and all-equal pools.
        assert _fronts(points) == layered_fronts(points)

    def test_crowding_boundaries_infinite(self):
        g1 = np.array([1.0, 2.0, 3.0, 4.0])
        g2 = np.array([1.0, 2.0, 3.0, 4.0])
        front = np.arange(4)
        dist = crowding_distance(g1, g2, front)
        assert math.isinf(dist[0]) and math.isinf(dist[3])
        assert dist[1] == pytest.approx(dist[2])


class TestCoverageMasks:
    """Every scored offspring matches a full recomputation and the oracle."""

    def run_checked(self, monkeypatch, algorithm):
        inst = small_instance(seed=21, n=30, budget=9.0, weights="degree")
        adjacency = adjacency_lists(inst.graph)
        means = inst.weights.expected
        parents_without_mask, scored = [], []
        score, insert = Evaluator.evaluate_from_stats, ParetoArchive.insert

        def score_checked(evaluator, parent_state, flipped):
            parents_without_mask.append(parent_state is None)
            bits = selection_of(parent_state)
            bits[flipped] ^= 1
            scored.append(bits)
            return score(evaluator, parent_state, flipped)

        def insert_checked(archive, child):
            # Every selection scored, the root's included, is feasible and
            # is inserted next.
            bits = scored.pop()
            nodes = np.flatnonzero(bits)
            assert child.size == len(nodes) and child.expected == means[nodes].sum()
            want, count = full_state(inst.graph, bits)
            assert np.array_equal(child.state, want)
            assert set(np.unique(child.state).tolist()) <= {0, 1}
            covered = child.state[: inst.graph.n]
            assert child.g1 == count == np.count_nonzero(covered) == naive_coverage(adjacency, bits)
            assert not child.state.flags.writeable
            return insert(archive, child)

        monkeypatch.setattr(Evaluator, "evaluate_from_stats", score_checked)
        monkeypatch.setattr(ParetoArchive, "insert", insert_checked)
        run(inst, RunConfig(algorithm=algorithm, t_max=3_000, seed=5))
        assert not scored
        return parents_without_mask

    @pytest.mark.parametrize("algorithm", ["gsemo", "sw-gsemo"])
    def test_archive_offspring_come_from_parent_masks(self, monkeypatch, algorithm):
        # Infeasible selections never enter the archive, so every parent has
        # a mask. The run must score children for the checks to mean anything.
        parents_without_mask = self.run_checked(monkeypatch, algorithm)
        assert len(parents_without_mask) > 100
        assert not any(parents_without_mask)

    @pytest.mark.parametrize("algorithm", ["gsemo", "sw-gsemo"])
    def test_members_hold_two_bytes_per_node(self, monkeypatch, algorithm):
        # Each member holds at most one array, its full 2n-byte state: the
        # covered plane, then the selected plane. GSEMO members all keep
        # theirs; SW-GSEMO drops the states of the members its window has
        # passed.
        from dataclasses import fields

        inst = small_instance(seed=21, n=30, budget=9.0, weights="degree")
        original = ParetoArchive.insert
        members, archives = [], set()

        def capture(self, ind):
            bits = selection_of(ind.state) if ind.state is not None else None
            accepted = original(self, ind)
            if accepted:
                members.append((ind, bits))
                archives.add(self)
            return accepted

        monkeypatch.setattr(ParetoArchive, "insert", capture)
        run(inst, RunConfig(algorithm=algorithm, t_max=500, seed=5))
        assert len(members) > 10
        n = inst.graph.n
        held = 0
        for ind, bits in members:
            arrays = [getattr(ind, f.name) for f in fields(ind)]
            arrays = [v for v in arrays if isinstance(v, np.ndarray)]
            assert len(arrays) <= 1
            if arrays:
                held += 1
                assert arrays[0].dtype == np.uint8 and arrays[0].shape == (2 * n,)
                assert arrays[0].nbytes == 2 * n
                want = full_state(inst.graph, bits)[0]
                assert np.array_equal(arrays[0][:n], want[:n])
                assert np.array_equal(arrays[0][n:], want[n:])
        if algorithm == "gsemo":
            assert held == len(members)
        else:
            # The final archive's members under the last one below the
            # window are passed; members removed while still selectable
            # keep their state.
            (archive,) = archives
            passed = [m for m in archive.members if m.g2 < archive.floor][:-1]
            assert passed and all(m.state is None for m in passed)
            assert 0 < held <= len(members) - len(passed)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(GRAPHS)),
        weights=st.sampled_from(["iid", "degree"]),
        surrogate=st.sampled_from(list(SurrogateKind)),
        regime=st.sampled_from(list(G2Regime)),
    )
    def test_batch_evaluator_matches_evaluate_bits_and_oracle(self, data, name, weights, surrogate, regime):
        from ccsubmod.chance import Evaluator

        g = GRAPHS[name]
        model = make_iid_weights(g.n, 1, 0.5) if weights == "iid" else make_degree_weights(g, 1.0)
        budget = data.draw(st.integers(min_value=1, max_value=g.n - 1))
        inst = Instance(graph=g, weights=model, budget=float(budget), alpha=0.1, surrogate=surrogate)
        drawn = data.draw(st.lists(st.lists(st.booleans(), min_size=g.n, max_size=g.n), max_size=6))
        # The empty selection is always feasible; the full one never is, since
        # every mean is at least 1 and the budget is below n.
        bits = np.array([[False] * g.n, *drawn, [True] * g.n], dtype=np.uint8)
        groups, nodes = np.nonzero(bits)
        evaluator = Evaluator(inst, regime)
        g1, g2 = evaluator.evaluate_groups(nodes, groups, len(bits))
        assert evaluator.evaluations == len(bits)
        adjacency = adjacency_lists(g)
        reference = Evaluator(inst, regime)
        for x, got1, got2 in zip(bits, g1.tolist(), g2.tolist()):
            assert (got1, got2) == tuple(reference.evaluate_bits(x))
            if got1 >= 0:
                assert got1 == naive_coverage(adjacency, x)
        assert g1[0] == 0 and g1[-1] < 0

    def test_nsga2_children_match_oracle(self, monkeypatch):
        from ccsubmod.chance import Evaluator

        inst = small_instance(seed=21, n=30, budget=9.0, weights="degree")
        n = inst.graph.n
        adjacency = adjacency_lists(inst.graph)
        reference = Evaluator(inst)
        original = Evaluator.evaluate_groups
        scored = []

        def checked(self, nodes, groups, count):
            g1, g2 = original(self, nodes, groups, count)
            assert len(np.unique(groups * n + nodes)) == len(nodes)
            bits = np.zeros((count, n), dtype=np.uint8)
            bits[groups, nodes] = 1
            for x, got1, got2 in zip(bits, g1.tolist(), g2.tolist()):
                assert (got1, got2) == tuple(reference.evaluate_bits(x))
                if got1 >= 0:
                    assert got1 == naive_coverage(adjacency, x)
                scored.append(got1)
            return g1, g2

        monkeypatch.setattr(Evaluator, "evaluate_groups", checked)
        result = run(inst, RunConfig(algorithm="nsga2", t_max=3_000, seed=5, population=20, children=10))
        assert len(scored) == result.evaluations == 3_001
        assert min(scored) < 0 < max(scored) == result.best_g1
        assert naive_coverage(adjacency, bits_from_hex(result.best_bits_hex, n)) == result.best_g1
