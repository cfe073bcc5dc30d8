"""Rank-based k-sample testing used by the benchmark tables.

Implements the Kruskal-Wallis omnibus test (tie-corrected H, chi-square
p-value) and Dunn's pairwise rank z-tests with Bonferroni correction. The
pooled sample is ranked once per test, and the chi-square tail is the exact
finite sum for integer degrees of freedom. Kept dependency-free so the
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


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function Pr[X > x] for a positive integer df.

    Exact finite sum (Abramowitz & Stegun 26.4.4-26.4.5): start from the
    df = 1 or df = 2 tail, then each step of two in df adds one term,
    Q(a + 1, x/2) = Q(a, x/2) + (x/2)^a e^(-x/2) / Gamma(a + 1).
    """
    if df < 1 or df != int(df):
        raise ValueError("df must be a positive integer")
    if x <= 0:
        return 1.0
    half = x / 2.0
    odd = df % 2 == 1
    total = math.erfc(math.sqrt(half)) if odd else math.exp(-half)
    a = 0.5 if odd else 1.0
    while a < df / 2:
        total += math.exp(a * math.log(half) - half - math.lgamma(a + 1.0))
        a += 1.0
    return total


def normal_sf(z: float) -> float:
    """Standard normal survival function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _ranks(pooled: np.ndarray) -> tuple[np.ndarray, float]:
    """Average ranks 1..N of ``pooled`` and its tie term, the sum of t^3 - t
    over groups of t tied values."""
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # A value seen t times ends at rank `end` and holds ranks end-t+1..end.
    ends = np.cumsum(counts)
    ties = counts[counts > 1].astype(float)
    return (ends - 0.5 * (counts - 1))[inverse], float((ties**3 - ties).sum())


def rankdata(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties assigned their average rank."""
    return _ranks(np.asarray(values, dtype=float))[0]


def _kruskal_wallis(samples: Sequence[Sequence[float]]) -> tuple[float, float, list[int], np.ndarray, float]:
    """(H, p) with the group sizes, mean ranks and tie term they came from."""
    groups = [np.asarray(g, dtype=float) for g in samples]
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise ValueError("groups must be non-empty")
    sizes = [len(g) for g in groups]
    total = sum(sizes)
    ranks, tie = _ranks(np.concatenate(groups))
    rank_sums = np.add.reduceat(ranks, np.cumsum([0] + sizes[:-1]))
    mean_ranks = rank_sums / sizes
    correction = 1.0 - tie / (total**3 - total)
    if correction == 0.0:  # every observation is the same value
        return 0.0, 1.0, sizes, mean_ranks, tie
    h = 0.0
    for s, n in zip(rank_sums, sizes):
        h += s**2 / n
    h = float((12.0 / (total * (total + 1)) * h - 3.0 * (total + 1)) / correction)
    return h, chi2_sf(h, len(groups) - 1), sizes, mean_ranks, tie


def kruskal_wallis(samples: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Tie-corrected Kruskal-Wallis H statistic and chi-square p-value.

    When every observation across all groups is identical the test is
    undefined; (H, p) = (0, 1) by convention.
    """
    h, p, *_ = _kruskal_wallis(samples)
    return h, p


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
    _, p_omnibus, sizes, mean_ranks, tie = _kruskal_wallis(samples)
    if p_omnibus > FAMILY_ALPHA:
        return marks

    total = sum(sizes)
    # Dunn's variance with tie correction.
    base_var = total * (total + 1) / 12.0 - tie / (12.0 * (total - 1))
    n_pairs = k * (k - 1) // 2
    threshold = FAMILY_ALPHA / n_pairs
    for i in range(k):
        for j in range(i + 1, k):
            se = math.sqrt(base_var * (1.0 / sizes[i] + 1.0 / sizes[j]))
            if se == 0.0:
                continue
            z = (mean_ranks[i] - mean_ranks[j]) / se
            p = 2.0 * normal_sf(abs(z))
            if p <= threshold and z != 0.0:
                better, worse = (i, j) if z > 0 else (j, i)
                marks[better][worse] = "+"
                marks[worse][better] = "-"
    return marks
