"""Seeded Chung-Lu-style power-law graphs written as Matrix-Market files.

Expected degrees follow ``w_i = (i + i0) ** -beta`` scaled to the target
mean degree, with ``i0`` chosen so that the largest expected degree matches
the target maximum. Edge endpoints are drawn with probability proportional
to ``w``; self loops and repeats are dropped until ``m`` distinct edges
remain. Node labels are shuffled so that degree is not tied to the id.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    name: str
    n: int
    m: int
    max_degree: int
    exponent: float = 2.5


CSPHD = GraphSpec("csphd", n=1882, m=1740, max_degree=46)
CONDMAT = GraphSpec("condmat", n=21363, m=91286, max_degree=279)


def _expected_degrees(spec: GraphSpec) -> np.ndarray:
    beta = 1.0 / (spec.exponent - 1.0)
    mean = 2.0 * spec.m / spec.n
    ranks = np.arange(spec.n, dtype=float)

    def top(i0: float) -> np.ndarray:
        w = (ranks + i0) ** -beta
        return w * (mean / w.mean())

    lo, hi = 1e-6, float(spec.n)
    for _ in range(100):  # larger i0 flattens the head of the distribution
        mid = 0.5 * (lo + hi)
        if top(mid)[0] > spec.max_degree:
            lo = mid
        else:
            hi = mid
    return top(hi)


def generate(spec: GraphSpec, seed: int) -> np.ndarray:
    """Edge array of shape (m, 2), 0-based, u < v, in generation order."""
    rng = np.random.default_rng([seed, spec.n])
    cdf = np.cumsum(_expected_degrees(spec))
    cdf /= cdf[-1]
    labels = rng.permutation(spec.n)
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < spec.m:
        draws = 2 * (spec.m - len(chosen)) + 64
        ends = np.searchsorted(cdf, rng.random(2 * draws), side="right")
        ends = labels[np.minimum(ends, spec.n - 1)].reshape(-1, 2)
        u, v = ends.min(axis=1), ends.max(axis=1)
        keys = np.concatenate([chosen, (u * spec.n + v)[u != v]])
        _, first = np.unique(keys, return_index=True)
        chosen = keys[np.sort(first)][: spec.m]
    return np.column_stack([chosen // spec.n, chosen % spec.n])


def write_mtx(path: Path, n: int, edges: np.ndarray) -> None:
    """Matrix-Market pattern file with 1-based ids and an ``n n m`` header."""
    lines = [f"{u} {v}" for u, v in (edges + 1).tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{n} {n} {len(edges)}\n")
        fh.write("\n".join(lines))
        fh.write("\n")
