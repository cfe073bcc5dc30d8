import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsubmod import (
    Evaluator,
    G2Regime,
    Graph,
    Instance,
    Objectives,
    SurrogateKind,
    make_degree_weights,
    make_iid_weights,
)
from oracles import adjacency_lists, dominates, full_state, naive_coverage, naive_objectives


def bitvec(n, ones):
    x = np.zeros(n, dtype=np.uint8)
    x[list(ones)] = 1
    return x


def edgeless_evaluator(w, alpha=0.1, kind=SurrogateKind.CHEBYSHEV, budget=1e9, regime=G2Regime.SURROGATE):
    """Evaluator over an edgeless graph, where a selection covers only itself."""
    graph = Graph.from_edges(w.n, np.empty((0, 2), dtype=np.int64))
    instance = Instance(graph=graph, weights=w, budget=budget, alpha=alpha, surrogate=kind)
    return Evaluator(instance, regime)


def expected_weight(x, w):
    """The g2 of the expected-weight regime: the sum of selected means."""
    return edgeless_evaluator(w, regime=G2Regime.EXPECTED).evaluate_bits(x).g2


def chebyshev_variance(w, k):
    """Variance of the total of the first k weights as the Chebyshev surrogate
    sees it: at alpha = 1/2 the surrogate is E + sqrt(V)."""
    e = float(w.expected[:k].sum())
    return (edgeless_evaluator(w, alpha=0.5).surrogate_from(e, k) - e) ** 2


class TestExpectedWeight:
    def test_empty_is_zero(self):
        assert expected_weight(np.zeros(4), make_iid_weights(4, 1, 0.5)) == 0.0

    def test_iid_counts_selection(self):
        assert expected_weight(bitvec(20, range(12)), make_iid_weights(20, 1, 0.5)) == 12.0

    def test_degree_model_uses_per_node_means(self, path3):
        w = make_degree_weights(path3, 1.0)
        assert expected_weight(bitvec(3, [1]), w) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expected_weight(np.zeros(3), make_iid_weights(4, 1, 0.5))


class TestWeightVariance:
    def test_empty_is_zero(self):
        assert chebyshev_variance(make_iid_weights(4, 1, 0.5), 0) == 0.0

    @pytest.mark.parametrize("d,k,expected", [(0.5, 12, 1.0), (1.0, 3, 1.0)])
    def test_formula(self, d, k, expected):
        w = make_iid_weights(20, 2, d)
        assert chebyshev_variance(w, k) == pytest.approx(expected)

    def test_matches_monte_carlo(self):
        # sum of 12 independent uniforms on [a-d, a+d]
        d, k = 0.5, 12
        rng = np.random.default_rng(42)
        samples = rng.uniform(-d, d, size=(1_000_000, k)).sum(axis=1)
        w = make_iid_weights(20, 1, d)
        exact = chebyshev_variance(w, k)
        assert abs(samples.var() - exact) / exact < 0.01


class TestSurrogateWeight:
    def test_empty_selection_is_zero(self):
        w = make_iid_weights(6, 1, 0.5)
        for kind in SurrogateKind:
            assert edgeless_evaluator(w, 0.1, kind).surrogate_from(0.0, 0) == 0.0

    def test_chebyshev_hand_value(self):
        ev = edgeless_evaluator(make_iid_weights(20, 1, 0.5), 0.1, SurrogateKind.CHEBYSHEV)
        assert ev.surrogate_from(12.0, 12) == pytest.approx(15.0, abs=1e-12)

    def test_chernoff_hand_value(self):
        ev = edgeless_evaluator(make_iid_weights(10, 1, 0.5), math.exp(-1), SurrogateKind.CHERNOFF)
        assert ev.surrogate_from(3.0, 3) == pytest.approx(3 + math.sqrt(4.5), abs=1e-12)

    def test_alpha_out_of_range(self):
        w = make_iid_weights(4, 1, 0.5)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                edgeless_evaluator(w, alpha, SurrogateKind.CHEBYSHEV)

    def test_strictly_increasing_in_selection_size(self):
        w = make_iid_weights(30, 1, 0.5)
        for kind in SurrogateKind:
            ev = edgeless_evaluator(w, 0.05, kind)
            values = [ev.surrogate_from(float(k), k) for k in range(31)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_tail_bound_crossover_with_alpha(self):
        # For unit means with d = 0.5 the Chebyshev surrogate is the smaller
        # one at alpha = 0.1 and the Chernoff one at alpha = 0.001, for every
        # non-empty selection size.
        w = make_iid_weights(200, 1, 0.5)
        cheb_01, chern_01, cheb_001, chern_001 = (
            edgeless_evaluator(w, alpha, kind)
            for alpha in (0.1, 0.001)
            for kind in (SurrogateKind.CHEBYSHEV, SurrogateKind.CHERNOFF)
        )
        for k in range(1, 201):
            assert cheb_01.surrogate_from(k, k) < chern_01.surrogate_from(k, k)
            assert chern_001.surrogate_from(k, k) < cheb_001.surrogate_from(k, k)

    @pytest.mark.parametrize(
        "kind,alpha,k_max",
        [
            (SurrogateKind.CHEBYSHEV, 0.1, 37),
            (SurrogateKind.CHEBYSHEV, 0.001, 11),
            (SurrogateKind.CHERNOFF, 0.1, 32),
            (SurrogateKind.CHERNOFF, 0.001, 26),
        ],
    )
    def test_feasible_size_thresholds_at_budget_43(self, kind, alpha, k_max):
        # Largest selection size whose surrogate stays within B = 43 for unit
        # means and d = 0.5; derived by scanning the closed-form expression.
        # The evaluator's own feasibility test must agree with the surrogate.
        ev = edgeless_evaluator(make_iid_weights(60, 1, 0.5), alpha, kind, budget=43.0)
        sizes = [k for k in range(60) if ev.surrogate_from(float(k), k) <= 43.0]
        assert max(sizes) == k_max
        feasible = [k for k in range(60) if ev.evaluate_bits(bitvec(60, range(k))).g1 >= 0]
        assert feasible == sizes

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(9)
        w = make_iid_weights(40, 3, 1.25)
        for kind in SurrogateKind:
            for _ in range(50):
                x = (rng.random(40) < 0.3).astype(np.uint8)
                alpha = float(rng.uniform(0.001, 0.5))
                idx = np.flatnonzero(x)
                got = edgeless_evaluator(w, alpha, kind).surrogate_from(float(w.expected[idx].sum()), len(idx))
                want = naive_surrogate_of(x, w, alpha, kind.value)
                assert got == pytest.approx(want, rel=1e-12)


def naive_surrogate_of(x, w, alpha, kind):
    from oracles import naive_surrogate

    k = int(x.sum())
    e = float(sum(w.expected[i] for i in np.flatnonzero(x)))
    return naive_surrogate(e, k, w.dispersion, alpha, kind)


class TestEvaluate:
    def test_empty_selection(self, toy_instance):
        assert Evaluator(toy_instance).evaluate_bits(np.zeros(5, dtype=np.uint8)) == Objectives(0.0, 0.0)

    def test_infeasible_sentinel(self, toy_instance):
        # all five nodes: surrogate 5 + sqrt(0.75*5) > 3 = B
        obj = Evaluator(toy_instance).evaluate_bits(np.ones(5, dtype=np.uint8))
        assert obj.g1 == -1.0
        assert obj.g2 > toy_instance.budget

    def test_sentinel_always_from_surrogate_even_in_expected_regime(self, toy_instance):
        x = bitvec(5, range(3))  # surrogate 3 + sqrt(0.75*3) > 3, expected 3 <= 3
        obj = Evaluator(toy_instance, G2Regime.EXPECTED).evaluate_bits(x)
        assert obj.g1 == -1.0
        assert obj.g2 == 3.0  # objective itself is the expected weight

    @pytest.mark.parametrize("regime", ["surrogate-g2", "expected-g2"])
    def test_exhaustive_toy_oracle(self, toy_instance, regime):
        adjacency = adjacency_lists(toy_instance.graph)
        expected = list(toy_instance.weights.expected)
        ev = Evaluator(toy_instance, G2Regime.parse(regime))
        for bits in itertools.product((0, 1), repeat=5):
            want = naive_objectives(
                bits, adjacency, expected, toy_instance.weights.dispersion,
                toy_instance.alpha, toy_instance.budget,
                toy_instance.surrogate.value, regime,
            )
            got = ev.evaluate_bits(np.array(bits, dtype=np.uint8))
            assert got.g1 == want[0]
            assert got.g2 == pytest.approx(want[1], rel=1e-12)

    def test_parent_mask_update_equals_full_scoring(self, toy_instance):
        roomy = Instance(
            graph=toy_instance.graph, weights=toy_instance.weights, budget=10.0,
            alpha=toy_instance.alpha, surrogate=toy_instance.surrogate,
        )
        ev = Evaluator(roomy)
        adjacency = adjacency_lists(roomy.graph)
        parent = bitvec(5, [0, 3])
        # The parent is scored as the empty selection with its nodes flipped.
        empty = np.zeros(2 * 5, dtype=np.uint8)
        _, parent_state = ev.evaluate_from_stats(ev.constraint(2, 2.0)[1], empty, np.array([0, 3]))
        assert np.array_equal(parent_state, full_state(roomy.graph, parent)[0])
        for flipped in ([2], [0, 2], [0], [0, 3], [1, 3, 4]):
            child = parent.copy()
            child[flipped] ^= 1
            size, expected = int(child.sum()), float(child.sum())
            full = ev.evaluate_bits(child)
            g2, feasible = ev.constraint(size, expected)
            g1, state = ev.evaluate_from_stats(feasible, parent_state, np.array(flipped))
            assert g1 == full.g1 == naive_coverage(adjacency, child)
            assert g2 == full.g2
            assert np.array_equal(state, full_state(roomy.graph, child)[0])
            assert not state.flags.writeable
            assert not parent_state.flags.writeable

    def test_infeasible_has_no_mask(self, toy_instance):
        ev = Evaluator(toy_instance)
        feasible = ev.constraint(5, 5.0)[1]
        assert ev.evaluate_from_stats(feasible, np.zeros(2 * 5, dtype=np.uint8), np.arange(5)) == (-1.0, None)
        assert ev.evaluations == 1


class TestDominates:
    def test_examples(self):
        assert dominates(Objectives(5, 3), Objectives(4, 4), strict=True)
        assert dominates(Objectives(5, 3), Objectives(5, 3))
        assert not dominates(Objectives(5, 3), Objectives(5, 3), strict=True)

    def test_feasible_strictly_dominates_infeasible(self):
        feasible = Objectives(0.0, 0.0)
        infeasible = Objectives(-1.0, 61.2)
        assert dominates(feasible, infeasible, strict=True)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        pts=st.lists(
            st.tuples(st.integers(-1, 50), st.integers(0, 50)),
            min_size=3, max_size=3,
        )
    )
    def test_partial_order(self, pts):
        a, b, c = (Objectives(float(g1), float(g2)) for g1, g2 in pts)
        assert dominates(a, a)
        assert not dominates(a, a, strict=True)
        if dominates(a, b) and dominates(b, a):
            assert a == b
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)
        if dominates(a, b, strict=True):
            assert not dominates(b, a, strict=True)
