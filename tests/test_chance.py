import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsubmod import (
    Evaluator,
    G2Regime,
    Instance,
    Objectives,
    SurrogateKind,
    dominates,
    evaluate,
    expected_weight,
    make_degree_weights,
    make_iid_weights,
    surrogate_weight,
    weight_variance,
)
from oracles import adjacency_lists, naive_coverage, naive_objectives


def bitvec(n, ones):
    x = np.zeros(n, dtype=np.uint8)
    x[list(ones)] = 1
    return x


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
        assert weight_variance(np.zeros(4), make_iid_weights(4, 1, 0.5)) == 0.0

    @pytest.mark.parametrize("d,k,expected", [(0.5, 12, 1.0), (1.0, 3, 1.0)])
    def test_formula(self, d, k, expected):
        w = make_iid_weights(20, 2, d)
        assert weight_variance(bitvec(20, range(k)), w) == pytest.approx(expected)

    def test_matches_monte_carlo(self):
        # sum of 12 independent uniforms on [a-d, a+d]
        d, k = 0.5, 12
        rng = np.random.default_rng(42)
        samples = rng.uniform(-d, d, size=(1_000_000, k)).sum(axis=1)
        w = make_iid_weights(20, 1, d)
        exact = weight_variance(bitvec(20, range(k)), w)
        assert abs(samples.var() - exact) / exact < 0.01


class TestSurrogateWeight:
    def test_empty_selection_is_zero(self):
        w = make_iid_weights(6, 1, 0.5)
        for kind in SurrogateKind:
            assert surrogate_weight(np.zeros(6), w, 0.1, kind) == 0.0

    def test_chebyshev_hand_value(self):
        w = make_iid_weights(20, 1, 0.5)
        value = surrogate_weight(bitvec(20, range(12)), w, 0.1, SurrogateKind.CHEBYSHEV)
        assert value == pytest.approx(15.0, abs=1e-12)

    def test_chernoff_hand_value(self):
        w = make_iid_weights(10, 1, 0.5)
        value = surrogate_weight(bitvec(10, range(3)), w, math.exp(-1), SurrogateKind.CHERNOFF)
        assert value == pytest.approx(3 + math.sqrt(4.5), abs=1e-12)

    def test_alpha_out_of_range(self):
        w = make_iid_weights(4, 1, 0.5)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                surrogate_weight(np.zeros(4), w, alpha, SurrogateKind.CHEBYSHEV)

    def test_strictly_increasing_in_selection_size(self):
        w = make_iid_weights(30, 1, 0.5)
        for kind in SurrogateKind:
            values = [surrogate_weight(bitvec(30, range(k)), w, 0.05, kind) for k in range(31)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_tail_bound_crossover_with_alpha(self):
        # For unit means with d = 0.5 the Chebyshev surrogate is the smaller
        # one at alpha = 0.1 and the Chernoff one at alpha = 0.001, for every
        # non-empty selection size.
        w = make_iid_weights(200, 1, 0.5)
        for k in range(1, 201):
            x = bitvec(200, range(k))
            cheb_01 = surrogate_weight(x, w, 0.1, SurrogateKind.CHEBYSHEV)
            chern_01 = surrogate_weight(x, w, 0.1, SurrogateKind.CHERNOFF)
            cheb_001 = surrogate_weight(x, w, 0.001, SurrogateKind.CHEBYSHEV)
            chern_001 = surrogate_weight(x, w, 0.001, SurrogateKind.CHERNOFF)
            assert cheb_01 < chern_01
            assert chern_001 < cheb_001

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
        w = make_iid_weights(60, 1, 0.5)
        sizes = [
            k for k in range(60)
            if surrogate_weight(bitvec(60, range(k)), w, alpha, kind) <= 43.0
        ]
        assert max(sizes) == k_max

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(9)
        w = make_iid_weights(40, 3, 1.25)
        for kind in SurrogateKind:
            for _ in range(50):
                x = (rng.random(40) < 0.3).astype(np.uint8)
                alpha = float(rng.uniform(0.001, 0.5))
                got = surrogate_weight(x, w, alpha, kind)
                want = naive_surrogate_of(x, w, alpha, kind.value)
                assert got == pytest.approx(want, rel=1e-12)


def naive_surrogate_of(x, w, alpha, kind):
    from oracles import naive_surrogate

    k = int(x.sum())
    e = float(sum(w.expected[i] for i in np.flatnonzero(x)))
    return naive_surrogate(e, k, w.dispersion, alpha, kind)


class TestEvaluate:
    def test_empty_selection(self, toy_instance):
        assert evaluate(np.zeros(5, dtype=np.uint8), toy_instance) == Objectives(0.0, 0.0)

    def test_infeasible_sentinel(self, toy_instance):
        # all five nodes: surrogate 5 + sqrt(0.75*5) > 3 = B
        obj = evaluate(np.ones(5, dtype=np.uint8), toy_instance)
        assert obj.g1 == -1.0
        assert obj.g2 > toy_instance.budget

    def test_sentinel_always_from_surrogate_even_in_expected_regime(self, toy_instance):
        x = bitvec(5, range(3))  # surrogate 3 + sqrt(0.75*3) > 3, expected 3 <= 3
        obj = evaluate(x, toy_instance, G2Regime.EXPECTED)
        assert obj.g1 == -1.0
        assert obj.g2 == 3.0  # objective itself is the expected weight

    @pytest.mark.parametrize("regime", ["surrogate-g2", "expected-g2"])
    def test_exhaustive_toy_oracle(self, toy_instance, regime):
        adjacency = adjacency_lists(toy_instance.graph)
        expected = list(toy_instance.weights.expected)
        for bits in itertools.product((0, 1), repeat=5):
            want = naive_objectives(
                bits, adjacency, expected, toy_instance.weights.dispersion,
                toy_instance.alpha, toy_instance.budget,
                toy_instance.surrogate.value, regime,
            )
            got = evaluate(np.array(bits, dtype=np.uint8), toy_instance, G2Regime.parse(regime))
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
        _, _, parent_covered = ev.evaluate_from_stats(parent, 2, 2.0)
        for flipped in ([2], [0, 2], [0], [0, 3], [1, 3, 4]):
            child = parent.copy()
            child[flipped] ^= 1
            size, expected = int(child.sum()), float(child.sum())
            full = ev.evaluate_from_stats(child, size, expected)
            delta = ev.evaluate_from_stats(child, size, expected, parent_covered, np.array(flipped))
            assert delta.g1 == full.g1 == naive_coverage(adjacency, child)
            assert delta.g2 == full.g2
            assert np.array_equal(delta.covered, full.covered)
            assert not delta.covered.flags.writeable

    def test_infeasible_has_no_mask(self, toy_instance):
        assert Evaluator(toy_instance).evaluate_from_stats(bitvec(5, range(5)), 5, 5.0).covered is None


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
