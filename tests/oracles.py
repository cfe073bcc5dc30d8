"""Independent brute-force reference implementations.

Everything in here is deliberately naive (explicit set unions, quadratic
scans, full enumeration) and shares no code with the optimized library
paths it is used to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def adjacency_lists(graph) -> list[list[int]]:
    """Per-node neighbor lists of a graph, as plain python ints."""
    return [[int(u) for u in graph.neighbors(v)] for v in range(graph.n)]


def naive_coverage(adjacency: list, selection) -> int:
    """Coverage by explicit union of python sets."""
    covered: set[int] = set()
    for v, flag in enumerate(selection):
        if flag:
            covered.add(v)
            covered.update(int(u) for u in adjacency[v])
    return len(covered)


def naive_surrogate(expected_sum: float, k: int, d: float, alpha: float, kind: str) -> float:
    if kind == "chebyshev":
        return expected_sum + math.sqrt((1 - alpha) * (d * d * k / 3.0) / alpha)
    if kind == "chernoff":
        return expected_sum + math.sqrt(3.0 * d * k * math.log(1.0 / alpha))
    raise ValueError(kind)


def naive_objectives(bits, adjacency, expected, d, alpha, budget, kind, regime) -> tuple[float, float]:
    k = int(sum(bits))
    e = float(sum(expected[i] for i, b in enumerate(bits) if b))
    sg = naive_surrogate(e, k, d, alpha, kind)
    g1 = float(naive_coverage(adjacency, bits)) if sg <= budget else -1.0
    g2 = sg if regime == "surrogate-g2" else e
    return g1, g2


def exhaustive_optimum(instance, regime: str = "surrogate-g2") -> tuple[float, tuple]:
    """Best feasible coverage over all 2^n subsets (n must be small)."""
    n = instance.graph.n
    adjacency = adjacency_lists(instance.graph)
    expected = list(instance.weights.expected)
    best, best_bits = 0.0, tuple([0] * n)
    for bits in itertools.product((0, 1), repeat=n):
        g1, _ = naive_objectives(
            bits, adjacency, expected, instance.weights.dispersion,
            instance.alpha, instance.budget, instance.surrogate.value, regime,
        )
        if g1 > best:
            best, best_bits = g1, bits
    return best, best_bits


def filter_nondominated(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sequential non-dominated filter with the replacement rule.

    Mirrors the archive contract: a candidate is rejected iff some kept pair
    strictly dominates it, and on acceptance every kept pair it weakly
    dominates (equal pairs included) is removed.
    """
    kept: list[tuple[float, float]] = []
    for g1, g2 in pairs:
        if any(w1 >= g1 and w2 <= g2 and (w1 > g1 or w2 < g2) for w1, w2 in kept):
            continue
        kept = [(w1, w2) for w1, w2 in kept if not (g1 >= w1 and g2 <= w2)]
        kept.append((g1, g2))
    return sorted(kept)


def layered_fronts(points: list[tuple[float, float]]) -> list[list[int]]:
    """Dominance layers for (maximize first, minimize second) by repeated
    removal of the non-dominated subset."""
    remaining = set(range(len(points)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            g1i, g2i = points[i]
            dominated = any(
                points[j][0] >= g1i and points[j][1] <= g2i and points[j] != points[i]
                for j in remaining
                if j != i
            )
            if not dominated:
                front.append(i)
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def monte_carlo_violation(expected_sel: np.ndarray, d: float, budget: float,
                          rng: np.random.Generator, samples: int) -> float:
    """Empirical Pr[total weight > budget] for the selected means."""
    k = len(expected_sel)
    if k == 0:
        return 0.0
    totals = np.full(samples, float(expected_sel.sum()))
    chunk = max(1, min(samples, 10**7 // max(1, k)))
    start = 0
    while start < samples:
        stop = min(samples, start + chunk)
        noise = rng.uniform(-d, d, size=(stop - start, k))
        totals[start:stop] += noise.sum(axis=1)
        start = stop
    return float((totals > budget).mean())
