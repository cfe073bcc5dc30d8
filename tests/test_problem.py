import math

import numpy as np
import pytest

from ccsubmod import (
    Instance,
    SurrogateKind,
    default_budgets,
    make_degree_weights,
    make_iid_weights,
)
from ccsubmod.problem import WeightKind
from conftest import random_sparse_graph
from oracles import sample_weight_totals


class TestIidWeights:
    def test_all_means_equal(self):
        w = make_iid_weights(5, 1, 0.5)
        assert w.kind is WeightKind.IID
        assert list(w.expected) == [1] * 5

    def test_dispersion_boundary_valid(self):
        make_iid_weights(3, 2, 2.0)

    def test_dispersion_above_mean_rejected(self):
        with pytest.raises(ValueError):
            make_iid_weights(3, 1, 1.5)

    def test_dispersion_zero_rejected(self):
        with pytest.raises(ValueError):
            make_iid_weights(3, 1, 0.0)

    def test_non_integer_mean_rejected(self):
        with pytest.raises(ValueError):
            make_iid_weights(3, 0, 0.5)


class TestDegreeWeights:
    def test_path_means_are_degree_plus_one(self, path3):
        w = make_degree_weights(path3, 1.0)
        assert list(w.expected) == [2, 3, 2]

    def test_d_one_always_valid(self):
        g = random_sparse_graph(30, 50, seed=0)
        make_degree_weights(g, 1.0)

    def test_isolated_node_mean_one_limits_dispersion(self):
        from ccsubmod import Graph

        g = Graph.from_edges(3, np.array([[0, 1]]))  # node 2 isolated
        w = make_degree_weights(g, 1.0)
        assert w.expected[2] == 1
        with pytest.raises(ValueError):
            make_degree_weights(g, 1.5)

    def test_means_sum_to_twice_edges_plus_n(self):
        g = random_sparse_graph(40, 90, seed=1)
        w = make_degree_weights(g, 1.0)
        assert int(w.expected.sum()) == 2 * g.num_edges + g.n


class TestDefaultBudgets:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1882, [43, 94, 188]),
            (4158, [64, 207, 415]),
            (21363, [146, 1068, 2136]),
            (400, [20, 20, 40]),
        ],
    )
    def test_budget_grid(self, n, expected):
        assert default_budgets(n) == expected


class TestInstance:
    def test_validation(self, path3):
        w = make_iid_weights(3, 1, 0.5)
        with pytest.raises(ValueError):
            Instance(graph=path3, weights=w, budget=0.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        with pytest.raises(ValueError):
            Instance(graph=path3, weights=w, budget=2.0, alpha=1.0, surrogate=SurrogateKind.CHEBYSHEV)
        with pytest.raises(ValueError):
            Instance(graph=path3, weights=make_iid_weights(4, 1, 0.5), budget=2.0, alpha=0.1,
                     surrogate=SurrogateKind.CHEBYSHEV)

    @pytest.mark.parametrize("budget", [math.inf, 1e309, math.nan, -math.inf], ids=["inf", "1e309", "nan", "-inf"])
    def test_budget_must_be_finite(self, path3, budget):
        w = make_iid_weights(3, 1, 0.5)
        with pytest.raises(ValueError, match="budget B must be positive and finite"):
            Instance(graph=path3, weights=w, budget=budget, alpha=0.1, surrogate=SurrogateKind.CHERNOFF)

    def test_tail_coefficient_must_be_finite(self, path3):
        # At d = 0.5 the Chebyshev coefficient sqrt((1 - alpha) d^2 / (3 alpha))
        # is about 9.1e153 at alpha = 1e-309 and overflows to inf below about
        # 1e-310; the Chernoff one, sqrt(3 d ln(1/alpha)), stays small.
        w = make_iid_weights(3, 1, 0.5)
        Instance(graph=path3, weights=w, budget=2.0, alpha=1e-309, surrogate=SurrogateKind.CHEBYSHEV)
        Instance(graph=path3, weights=w, budget=2.0, alpha=1e-320, surrogate=SurrogateKind.CHERNOFF)
        with pytest.raises(ValueError, match="chebyshev surrogate weight overflows"):
            Instance(graph=path3, weights=w, budget=2.0, alpha=1e-320, surrogate=SurrogateKind.CHEBYSHEV)


class TestSampling:
    def test_totals_within_support_and_mean(self):
        w = make_iid_weights(10, 2, 1.0)
        sel = np.zeros(10, dtype=np.uint8)
        sel[:4] = 1
        rng = np.random.default_rng(0)
        totals = sample_weight_totals(w, sel, rng, 20_000)
        assert totals.min() >= 4 * (2 - 1)
        assert totals.max() <= 4 * (2 + 1)
        assert abs(totals.mean() - 8.0) < 0.05

    def test_empty_selection_is_zero(self):
        w = make_iid_weights(5, 1, 0.5)
        totals = sample_weight_totals(w, np.zeros(5), np.random.default_rng(0), 10)
        assert np.all(totals == 0)
