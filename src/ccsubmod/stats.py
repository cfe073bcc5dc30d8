"""Rank-based k-sample testing used by the benchmark tables.

Implements the Kruskal-Wallis omnibus test (tie-corrected H, chi-square
p-value) and Dunn's pairwise rank z-tests with Bonferroni correction, plus
the small special-function kernel they need. Kept dependency-free so the
harness does not pull in a statistics stack; the implementations are
validated against reference values in the test suite.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["kruskal_wallis", "posthoc_marks", "rankdata", "chi2_sf"]

# Significance level of the benchmark tables' Kruskal-Wallis gate, and the
# family-wise level its Bonferroni-corrected pairwise tests share.
FAMILY_ALPHA = 0.05


def _regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series expansion."""
    term = 1.0 / a
    total = term
    k = a
    for _ in range(500):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function Pr[X > x] with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be positive")
    if x <= 0:
        return 1.0
    a = df / 2.0
    half = x / 2.0
    # Series converges fast left of the mean, continued fraction right of it.
    if half < a + 1.0:
        return 1.0 - _regularized_gamma_p(a, half)
    return _regularized_gamma_q(a, half)


def normal_sf(z: float) -> float:
    """Standard normal survival function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def rankdata(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties assigned their average rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_vals) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(values)]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + e + 1)
    return ranks


def _tie_term(pooled: np.ndarray) -> float:
    """Sum of t^3 - t over groups of tied values."""
    _, counts = np.unique(pooled, return_counts=True)
    counts = counts[counts > 1].astype(float)
    return float((counts**3 - counts).sum())


def kruskal_wallis(samples: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Tie-corrected Kruskal-Wallis H statistic and chi-square p-value.

    When every observation across all groups is identical the test is
    undefined; (H, p) = (0, 1) by convention.
    """
    groups = [np.asarray(g, dtype=float) for g in samples]
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise ValueError("groups must be non-empty")
    pooled = np.concatenate(groups)
    total = len(pooled)
    if np.all(pooled == pooled[0]):
        return 0.0, 1.0
    ranks = rankdata(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r = ranks[offset : offset + len(g)]
        h += r.sum() ** 2 / len(g)
        offset += len(g)
    h = 12.0 / (total * (total + 1)) * h - 3.0 * (total + 1)
    correction = 1.0 - _tie_term(pooled) / (total**3 - total)
    h /= correction
    return float(h), chi2_sf(h, len(groups) - 1)


def posthoc_marks(samples: Sequence[Sequence[float]]) -> list[list[str]]:
    """Pairwise better/worse/equal marks from Dunn's rank z-tests.

    ``marks[i][j]`` is '+' when group i is statistically better (higher
    values) than group j, '-' for worse, '=' otherwise. The omnibus
    Kruskal-Wallis test gates everything: without rejection at
    ``FAMILY_ALPHA`` all marks are '='. Pairwise significance uses the
    Bonferroni threshold ``FAMILY_ALPHA / n_pairs``; direction follows the
    mean-rank order, so the matrix is antisymmetric by construction.
    """
    k = len(samples)
    marks = [["=" for _ in range(k)] for _ in range(k)]
    _, p_omnibus = kruskal_wallis(samples)
    if p_omnibus > FAMILY_ALPHA:
        return marks

    groups = [np.asarray(g, dtype=float) for g in samples]
    pooled = np.concatenate(groups)
    total = len(pooled)
    ranks = rankdata(pooled)
    mean_ranks = []
    offset = 0
    for g in groups:
        mean_ranks.append(ranks[offset : offset + len(g)].mean())
        offset += len(g)
    # Dunn's variance with tie correction.
    base_var = total * (total + 1) / 12.0 - _tie_term(pooled) / (12.0 * (total - 1))
    n_pairs = k * (k - 1) // 2
    threshold = FAMILY_ALPHA / n_pairs
    for i in range(k):
        for j in range(i + 1, k):
            se = math.sqrt(base_var * (1.0 / len(groups[i]) + 1.0 / len(groups[j])))
            if se == 0.0:
                continue
            z = (mean_ranks[i] - mean_ranks[j]) / se
            p = 2.0 * normal_sf(abs(z))
            if p <= threshold and z != 0.0:
                better, worse = (i, j) if z > 0 else (j, i)
                marks[better][worse] = "+"
                marks[worse][better] = "-"
    return marks
