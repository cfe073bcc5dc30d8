"""Surrogate weights, bi-objective fitness, and Pareto dominance.

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
    "Scored",
    "dominates",
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


class Scored(NamedTuple):
    """Objectives plus the covered mask they came from (None if infeasible)."""

    g1: float
    g2: float
    covered: np.ndarray | None


def _tail_coefficient(model: WeightModel, alpha: float, kind: SurrogateKind) -> float:
    """c such that the surrogate equals E(x) + c * sqrt(|x|)."""
    d = model.dispersion
    if kind is SurrogateKind.CHEBYSHEV:
        return math.sqrt((1.0 - alpha) * d * d / (3.0 * alpha))
    # ln(1/alpha) computed as -ln(alpha)
    return math.sqrt(3.0 * d * -math.log(alpha))


def dominates(a: Objectives, b: Objectives, strict: bool = False) -> bool:
    """Weak dominance: g1(a) >= g1(b) and g2(a) <= g2(b); strict adds inequality."""
    weak = a.g1 >= b.g1 and a.g2 <= b.g2
    if not strict:
        return weak
    return weak and (a.g1 > b.g1 or a.g2 < b.g2)


class Evaluator:
    """Per-(instance, regime) fitness evaluator with precomputed constants.

    The evaluation count is the budget currency of every optimizer run, so
    this object also tracks how many selections it has scored. Coverage is
    only computed for feasible selections; infeasible ones short-circuit to
    the sentinel.
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

    def evaluate_from_stats(
        self,
        bits: np.ndarray,
        size: int,
        expected: float,
        parent_covered: np.ndarray | None = None,
        flipped: np.ndarray | None = None,
    ) -> Scored:
        """Score a 0/1 uint8 selection whose size and expected weight are known.

        ``expected`` must equal the exact integer sum of selected means (the
        optimizers maintain it incrementally; integer arithmetic in float64
        keeps it exact). When ``bits`` is a parent's selection with the
        positions ``flipped`` flipped, passing the parent's covered mask as
        ``parent_covered`` updates coverage from it; otherwise coverage is
        computed from scratch. The returned mask is read-only.
        """
        self.evaluations += 1
        sg = self.surrogate_from(expected, size)
        g2 = sg if self.regime is G2Regime.SURROGATE else expected
        if sg > self.budget:
            return Scored(INFEASIBLE_G1, g2, None)
        if parent_covered is None:
            covered = np.zeros(self.graph.n, dtype=bool)
            g1 = coverage_of_indices(self.graph, bits.view(np.bool_).nonzero()[0], covered)
        else:
            covered = parent_covered.copy()
            update_coverage(self.graph, covered, bits, flipped)
            g1 = int(np.count_nonzero(covered))
        covered.setflags(write=False)
        return Scored(float(g1), g2, covered)

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
        bits = (x != 0).view(np.uint8)
        idx = np.flatnonzero(bits)
        g1, g2, _ = self.evaluate_from_stats(bits, len(idx), float(self.model.expected[idx].sum()))
        return Objectives(g1, g2)
