"""Independent brute-force reference implementations, and test helpers.

The references are deliberately naive (explicit set unions, quadratic
scans, full enumeration) and share no code with the optimized library
paths they are used to check. Two of them pin the random stream: the
sized draws the optimizers once made, which their cheaper draws must
reproduce value for value and state for state. The Dunn marks are built
on ``scipy.stats`` instead, and skip their test when scipy is missing.

The graph-file reference reads a file line by line with ``str.split`` and
``int``, the way the loader once did, and builds closed neighbourhoods
from python sets.

The helpers at the end turn selections between the forms tests use and
the library's; only tests need them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ccsubmod.graphs import GraphFormatError, coverage_of_indices


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


def reference_load(path) -> tuple[int, list[tuple[int, int]]]:
    """Node count and 0-based ``(u, v)`` pairs of a graph file, read one line
    at a time; raises ``GraphFormatError`` naming ``path:line`` for the first
    faulty line, as ``load_graph`` must.

    Lines are split by file iteration with universal newlines. Blank lines
    and lines starting with '%' or '#' are skipped; a first line starting
    with ``%%MatrixMarket`` (any case) marks the file Matrix-Market, as does
    a ``.mtx`` suffix. Every other line holds integers: a three-integer first
    data line is the size header in Matrix-Market files and, elsewhere, only
    when its first two values are equal. Any other line needs at least two
    integers, of which the first two (u and v) must fit int64. Ids are
    1-based in Matrix-Market files and in other files with no 0 among u and
    v, otherwise 0-based; an id below the base names the first line holding
    one. The node count is ``max(declared size, largest id + 1)``.
    """
    path = Path(path)
    is_mm = path.suffix.lower() == ".mtx"
    declared = None
    pairs, lines = [], []
    first_data = True
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(("%", "#")):
                if lineno == 1 and line.lower().startswith("%%matrixmarket"):
                    is_mm = True
                continue
            try:
                values = [int(t) for t in line.split()]
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: non-integer token in {line!r}") from None
            if len(values) < 2:
                raise GraphFormatError(f"{path}:{lineno}: expected an integer pair, got {line!r}")
            if not all(-(2**63) <= x < 2**63 for x in values[:2]):
                raise GraphFormatError(f"{path}:{lineno}: id or size beyond int64 in {line!r}")
            if first_data and len(values) == 3 and (is_mm or values[0] == values[1]):
                declared = max(values[0], values[1])
            else:
                pairs.append((values[0], values[1]))
                lines.append(lineno)
            first_data = False
    base = 1 if is_mm or not any(0 in pair for pair in pairs) else 0
    for (u, v), lineno in zip(pairs, lines):
        if min(u, v) < base:
            raise GraphFormatError(f"{path}:{lineno}: node id below the indexing base")
    n = max(declared or 0, max((max(pair) - base + 1 for pair in pairs), default=0))
    if n == 0:
        raise GraphFormatError(f"{path}: no nodes (empty file without size header)")
    return n, [(u - base, v - base) for u, v in pairs]


def reference_csr(n: int, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, degrees)`` of the closed neighbourhoods of an
    undirected graph, from python sets: row v holds v, then its neighbours
    in ascending order, with self loops and repeated edges dropped."""
    neighbours = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            neighbours[u].add(int(v))
            neighbours[v].add(int(u))
    rows = [[v, *sorted(neighbours[v])] for v in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    indices = np.array([x for row in rows for x in row], dtype=np.int64)
    degrees = np.array([len(s) for s in neighbours], dtype=np.int64)
    return indptr, indices, degrees


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


def dominates(a, b, strict: bool = False) -> bool:
    """Weak dominance of objective pairs: g1(a) >= g1(b) and g2(a) <= g2(b);
    strict adds inequality."""
    weak = a.g1 >= b.g1 and a.g2 <= b.g2
    if not strict:
        return weak
    return weak and (a.g1 > b.g1 or a.g2 < b.g2)


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


def sized_mutation_positions(n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard bit mutation's flip positions, each round of positions drawn
    by one ``rng.integers(0, n, size=k)`` call.

    A draw with a repeated position is redrawn whole; when k(k-1) >= n a
    random permutation is cut to k instead.
    """
    k = int(rng.binomial(n, 1.0 / n))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k * (k - 1) >= n:
        return rng.permutation(n)[:k]
    while True:
        pos = rng.integers(0, n, size=k)
        if len(np.unique(pos)) == k:
            return pos


def sized_tournaments(rank: np.ndarray, crowd: np.ndarray, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
    """Two rounds of binary tournaments, each contestant row drawn by its
    own ``rng.integers(0, len(rank), size=count)`` call."""
    winners = []
    for _ in range(2):
        a = rng.integers(0, len(rank), size=count)
        b = rng.integers(0, len(rank), size=count)
        winners.append(np.array([
            j if rank[j] < rank[i] or (rank[j] == rank[i] and crowd[j] > crowd[i]) else i
            for i, j in zip(a.tolist(), b.tolist())
        ], dtype=np.int64))
    return winners[0], winners[1]


def dunn_marks(samples) -> list[list[str]]:
    """Kruskal-Wallis gated, Bonferroni-corrected Dunn marks from scipy's
    rank statistics at family-wise level 0.05; skips the calling test when
    scipy is missing.

    ``marks[i][j]`` is '+' when group i has the significantly higher mean
    rank, '-' when group j has, '=' otherwise.
    """
    stats = pytest.importorskip("scipy.stats")
    k = len(samples)
    marks = [["="] * k for _ in range(k)]
    pooled = np.concatenate(samples)
    if len(set(pooled.tolist())) == 1 or stats.kruskal(*samples).pvalue > 0.05:
        return marks
    ranks = stats.rankdata(pooled)
    total = len(pooled)
    tie = sum(t**3 - t for t in Counter(pooled.tolist()).values())
    variance = total * (total + 1) / 12.0 - tie / (12.0 * (total - 1))
    starts = np.cumsum([0] + [len(s) for s in samples])
    mean_ranks = [ranks[starts[i] : starts[i + 1]].mean() for i in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        se = math.sqrt(variance * (1.0 / len(samples[i]) + 1.0 / len(samples[j])))
        z = (mean_ranks[i] - mean_ranks[j]) / se
        if z != 0.0 and 2.0 * stats.norm.sf(abs(z)) <= 0.05 / (k * (k - 1) / 2):
            marks[i][j], marks[j][i] = ("+", "-") if z > 0 else ("-", "+")
    return marks


def bits_from_hex(hex_string: str, n: int) -> np.ndarray:
    """0/1 vector of a selection from its big-endian packed hex string."""
    raw = np.frombuffer(bytes.fromhex(hex_string), dtype=np.uint8)
    return np.unpackbits(raw)[:n]


def closed_neighborhood(graph, v: int) -> np.ndarray:
    """Sorted node ids of v's closed neighborhood ({v} plus neighbors)."""
    return np.sort(graph.indices[graph.indptr[v] : graph.indptr[v + 1]])


def coverage_count(graph, selection) -> int:
    """The library's coverage (``coverage_of_indices``) of a 0/1 vector."""
    selection = np.asarray(selection)
    if selection.shape != (graph.n,):
        raise ValueError(f"selection length {selection.shape} != graph size {graph.n}")
    return coverage_of_indices(graph, np.flatnonzero(selection))


def full_state(graph, selection) -> tuple[np.ndarray, int]:
    """``2·selection + covered`` as uint8, with the covered mask computed
    from scratch by ``coverage_of_indices``, and its coverage count."""
    selection = np.asarray(selection, dtype=np.uint8)
    covered = np.zeros(graph.n, dtype=bool)
    count = coverage_of_indices(graph, np.flatnonzero(selection), covered)
    return 2 * selection + covered, count


def sample_weight_totals(model, selection, rng: np.random.Generator, samples: int) -> np.ndarray:
    """Monte-Carlo totals of the stochastic weight of a 0/1 selection.

    Each selected element draws from the continuous uniform on
    ``[a_i - d, a_i + d]``; returns ``samples`` independent totals.
    """
    idx = np.flatnonzero(np.asarray(selection))
    if len(idx) == 0:
        return np.zeros(samples)
    noise = rng.uniform(-model.dispersion, model.dispersion, size=(samples, len(idx)))
    return float(model.expected[idx].sum()) + noise.sum(axis=1)
