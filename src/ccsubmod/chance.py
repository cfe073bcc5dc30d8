"""Surrogate weights and bi-objective fitness.

A selection x of elements with uniform weights has

    expected total   E(x) = sum of selected means
    total variance   V(x) = d^2 * |x| / 3

and its chance constraint Pr[W(x) > B] <= alpha is certified through one of
two deterministic surrogate weights:

    chebyshev:  E(x) + sqrt((1 - alpha) * V(x) / alpha)
    chernoff:   E(x) + sqrt(3 * d * |x| * ln(1/alpha))

A surrogate weight within the budget implies the chance constraint holds.

The fitness of x is the pair (g1, g2): g1 is the coverage value, replaced by
the sentinel -1 whenever the surrogate weight exceeds the budget; g2 is the
constraint-side objective, either the surrogate weight itself
(``surrogate-g2``) or the expected weight (``expected-g2``, the variant used
with per-element means). Feasibility, i.e. the g1 sentinel, is always judged
against the surrogate weight, in both regimes.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .graphs import coverage_of_groups, coverage_of_indices, update_coverage
from .problem import Instance, SurrogateKind, WeightModel

__all__ = [
    "G2Regime",
    "Objectives",
    "Evaluator",
]

INFEASIBLE_G1 = -1.0


class G2Regime(enum.Enum):
    """Which quantity serves as the second (minimized) objective."""

    SURROGATE = "surrogate-g2"
    EXPECTED = "expected-g2"

    @classmethod
    def parse(cls, name: str) -> "G2Regime":
        aliases = {"surrogate": cls.SURROGATE, "expected": cls.EXPECTED}
        name = name.strip().lower()
        if name in aliases:
            return aliases[name]
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown g2 regime {name!r}") from None


class Objectives(NamedTuple):
    g1: float
    g2: float


def _tail_coefficient(model: WeightModel, alpha: float, kind: SurrogateKind) -> float:
    """c such that the surrogate equals E(x) + c * sqrt(|x|)."""
    d = model.dispersion
    if kind is SurrogateKind.CHEBYSHEV:
        return math.sqrt((1.0 - alpha) * d * d / (3.0 * alpha))
    # ln(1/alpha) computed as -ln(alpha)
    return math.sqrt(3.0 * d * -math.log(alpha))


class Evaluator:
    """Per-(instance, regime) fitness evaluator with precomputed constants.

    The evaluation count is the budget currency of every optimizer run, so
    this object also tracks how many selections it has scored; the archive
    loop adds the children whose coverage it bounds instead of scoring them.
    Coverage is only computed for feasible selections; infeasible ones
    short-circuit to the sentinel.
    """

    def __init__(self, instance: Instance, regime: G2Regime = G2Regime.SURROGATE):
        self.regime = regime
        self.graph = instance.graph
        self.model = instance.weights
        self.budget = float(instance.budget)
        self.tail_coefficient = _tail_coefficient(
            instance.weights, instance.alpha, instance.surrogate
        )
        self.evaluations = 0

    def surrogate_from(self, expected: float, size: int) -> float:
        """Surrogate weight of a selection with ``size`` elements whose means
        sum to ``expected``; it rises strictly with the size when d > 0."""
        return expected + self.tail_coefficient * math.sqrt(size)

    def constraint(self, size: int, expected: float) -> tuple[float, bool]:
        """g2 of a selection with ``size`` elements whose means sum to
        ``expected``, and whether its surrogate weight fits the budget.

        ``expected`` must be the exact sum of the integer means, which float64
        holds exactly; the archive loop keeps it so incrementally."""
        sg = self.surrogate_from(expected, size)
        return (sg if self.regime is G2Regime.SURROGATE else expected), sg <= self.budget

    def evaluate_from_stats(
        self, feasible: bool, parent_state: np.ndarray, flipped: list[int]
    ) -> tuple[float, np.ndarray | None]:
        """``(g1, state)`` of the child of a selection, given whether
        :meth:`constraint` finds the child feasible.

        The child is ``parent_state`` (see
        :func:`~ccsubmod.graphs.update_coverage`) with the nodes ``flipped``
        flipped. A feasible child's state is updated from a copy of it and
        returned read-only; an infeasible child gets the sentinel g1 and no
        state. The caller keeps the child's g2 from :meth:`constraint`.
        """
        self.evaluations += 1
        if not feasible:
            return INFEASIBLE_G1, None
        state = parent_state.copy()
        update_coverage(self.graph, state, flipped)
        state.setflags(write=False)
        return float(np.count_nonzero(state[: self.graph.n])), state

    def evaluate_groups(
        self, nodes: np.ndarray, groups: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score ``count`` selections at once; returns their (g1, g2) arrays.

        Selection g holds the distinct node ids ``nodes[groups == g]``. Its
        size and expected weight are summed with ``bincount``, exactly,
        since the means are integers; only feasible selections get their
        coverage counted. This counts ``count`` evaluations.
        """
        self.evaluations += count
        size = np.bincount(groups, minlength=count)
        expected = np.bincount(groups, weights=self.model.expected[nodes], minlength=count)
        sg = expected + self.tail_coefficient * np.sqrt(size)
        g2 = sg if self.regime is G2Regime.SURROGATE else expected
        feasible = sg <= self.budget
        scored = feasible[groups]
        coverage = coverage_of_groups(self.graph, nodes[scored], groups[scored], count)
        return np.where(feasible, coverage, INFEASIBLE_G1), g2

    def evaluate_bits(self, x: np.ndarray) -> Objectives:
        """Objectives of a 0/1 vector, its size and expected weight summed here."""
        x = np.asarray(x)
        if x.shape != (self.model.n,):
            raise ValueError(f"bit vector length {x.shape} != model size {self.model.n}")
        idx = np.flatnonzero(x)
        self.evaluations += 1
        g2, feasible = self.constraint(len(idx), float(self.model.expected[idx].sum()))
        return Objectives(float(coverage_of_indices(self.graph, idx)) if feasible else INFEASIBLE_G1, g2)
