"""Problem instances: stochastic weight models bound to a graph and budget.

Element weights are uniform on ``[a_i - d, a_i + d]`` with integer means.
Two models are supported: identical means for every element ("iid") and
per-element means equal to degree+1 with a shared dispersion ("degree").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph

__all__ = [
    "WeightKind",
    "SurrogateKind",
    "WeightModel",
    "Instance",
    "make_iid_weights",
    "make_degree_weights",
    "default_budgets",
]


class WeightKind(enum.Enum):
    IID = "iid"
    SAME_DISPERSION = "same-dispersion"


class SurrogateKind(enum.Enum):
    """Which tail bound turns the chance constraint into a deterministic weight."""

    CHEBYSHEV = "chebyshev"
    CHERNOFF = "chernoff"

    @classmethod
    def parse(cls, name: str) -> "SurrogateKind":
        aliases = {"cheb": cls.CHEBYSHEV, "chern": cls.CHERNOFF}
        name = name.strip().lower()
        if name in aliases:
            return aliases[name]
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown surrogate kind {name!r}") from None


def tail_coefficient(model: WeightModel, alpha: float, kind: SurrogateKind) -> float:
    """c such that the surrogate weight equals E(x) + c * sqrt(|x|)."""
    d = model.dispersion
    if kind is SurrogateKind.CHEBYSHEV:
        return math.sqrt((1.0 - alpha) * d * d / (3.0 * alpha))
    # ln(1/alpha) computed as -ln(alpha)
    return math.sqrt(3.0 * d * -math.log(alpha))


@dataclass(frozen=True)
class WeightModel:
    """Per-element integer expected weights plus a shared dispersion d.

    Invariants: every expected weight is a positive integer and
    ``0 < d <= min(expected)``, so sampled weights stay non-negative.
    """

    kind: WeightKind
    expected: np.ndarray = field(repr=False)
    dispersion: float

    def __post_init__(self) -> None:
        expected = np.ascontiguousarray(self.expected, dtype=np.int64)
        expected.setflags(write=False)
        object.__setattr__(self, "expected", expected)
        if expected.ndim != 1 or expected.size == 0:
            raise ValueError("expected weights must be a non-empty vector")
        if expected.min() < 1:
            raise ValueError("expected weights must be positive integers")
        if not (0.0 < self.dispersion <= float(expected.min())):
            raise ValueError(
                f"dispersion d={self.dispersion} outside (0, {int(expected.min())}]"
            )

    @property
    def n(self) -> int:
        return int(self.expected.size)

    @property
    def uniform_mean(self) -> int | None:
        """The shared mean a for iid models, else None."""
        return int(self.expected[0]) if self.kind is WeightKind.IID else None


def make_iid_weights(n: int, a: int, d: float) -> WeightModel:
    """Model with the same integer mean ``a`` for all n elements; 0 < d <= a."""
    if n < 1:
        raise ValueError("n must be positive")
    if int(a) != a or a < 1:
        raise ValueError("a must be a positive integer")
    return WeightModel(WeightKind.IID, np.full(n, int(a), dtype=np.int64), float(d))


def make_degree_weights(graph: Graph, d: float) -> WeightModel:
    """Model with mean degree(v)+1 per node and shared dispersion d.

    d = 1 is always valid because degree(v)+1 >= 1.
    """
    return WeightModel(WeightKind.SAME_DISPERSION, graph.degrees + 1, float(d))


def default_budgets(n: int) -> list[int]:
    """The three standard budgets for an n-node instance.

    ``[floor(sqrt(n)), n // 20, n // 10]``; the square root is truncated,
    which is what reproduces the published budget grids (e.g. 1882 -> 43).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return [math.isqrt(n), n // 20, n // 10]


@dataclass(frozen=True)
class Instance:
    """A chance-constrained max-coverage instance.

    Feasibility of a selection is certified by comparing its surrogate weight
    (see :mod:`ccsubmod.chance`) against the budget ``B`` at violation
    probability ``alpha``. The budget is positive and finite, and so is the
    surrogate's tail coefficient: the empty selection, of weight 0, fits.
    """

    graph: Graph
    weights: WeightModel
    budget: float
    alpha: float
    surrogate: SurrogateKind
    name: str = ""

    def __post_init__(self) -> None:
        if self.weights.n != self.graph.n:
            raise ValueError("weight model size does not match graph size")
        if not 0 < self.budget < math.inf:
            raise ValueError(f"budget B must be positive and finite, got {self.budget}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not math.isfinite(tail_coefficient(self.weights, self.alpha, self.surrogate)):
            raise ValueError(f"alpha={self.alpha} is too small: the {self.surrogate.value} surrogate weight overflows")


def build_weights(graph: Graph, kind: str, a: int = 1, d: float = 0.5) -> WeightModel:
    """Construct a weight model from its name in an experiment config or CLI flag."""
    kind = kind.strip().lower()
    if kind == "iid":
        return make_iid_weights(graph.n, a, d)
    if kind in ("degree", "same-dispersion"):
        return make_degree_weights(graph, d)
    raise ValueError(f"unknown weight kind {kind!r}")

