"""Independent brute-force reference implementations, and test helpers.

The references are deliberately naive (explicit set unions, quadratic
scans, full enumeration) and share no code with the optimized library
paths they are used to check. Some of them pin the random stream: naive
forms of the optimizers' sized draws, which their vectorized draws must
reproduce value for value and state for state, and a GSEMO/SW-GSEMO and
an NSGA-II that consume them in the library's declared order (they read
the library's block constant and take g2 from ``Evaluator.constraint``,
but select, breed, sort and archive on their own). The Dunn marks are built
on ``scipy.stats`` instead, and the LP coverage bound on scipy's HiGHS;
both skip their test when scipy is missing.

The graph-file reference reads a file line by line with ``str.split`` and
``int``, the way the loader once did, and builds closed neighbourhoods
from python sets.

The helpers at the end turn selections between the forms tests use and
the library's, list a graph's neighbours and edges, and write graph files;
only tests need them.
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
    return [[int(u) for u in neighbors(graph, v)] for v in range(graph.n)]


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
    v, otherwise 0-based; an id below the base, or one that needs 2**32
    nodes or more, names the first line holding one, as does a size header
    that declares that many. The node count is
    ``max(declared size, largest id + 1)``.
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
                if declared >= 2**32:
                    raise GraphFormatError(
                        f"{path}:{lineno}: size header declares {declared} nodes; the limit is 2**32 - 1"
                    )
            else:
                pairs.append((values[0], values[1]))
                lines.append(lineno)
            first_data = False
    base = 1 if is_mm or not any(0 in pair for pair in pairs) else 0
    for (u, v), lineno in zip(pairs, lines):
        if min(u, v) < base:
            raise GraphFormatError(f"{path}:{lineno}: node id below the indexing base")
        if max(u, v) - base + 1 >= 2**32:
            raise GraphFormatError(
                f"{path}:{lineno}: node id {max(u, v)} needs {max(u, v) - base + 1} nodes; the limit is 2**32 - 1"
            )
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


def block_mutation_positions(n: int, rng: np.random.Generator, count: int) -> list[list[int]]:
    """Standard bit mutation's flip positions for ``count`` offspring, one
    list per offspring, from one sized ``rng.binomial`` and one sized
    ``rng.integers`` draw.

    Offspring are checked one by one with a python set; each one whose
    positions repeat takes ``rng.permutation(n)[:k]`` instead, in offspring
    order.
    """
    counts = rng.binomial(n, 1.0 / n, size=count).tolist()
    flat = rng.integers(0, n, size=sum(counts)).tolist()
    out, start = [], 0
    for k in counts:
        out.append(flat[start:start + k])
        start += k
    for i, pos in enumerate(out):
        if len(set(pos)) < len(pos):
            out[i] = rng.permutation(n)[: len(pos)].tolist()
    return out


def sized_picks(rng: np.random.Generator, bound: int, generations: int, count: int) -> list[list[list[int]]]:
    """Tournament contestants of ``generations`` NSGA-II generations: for
    each generation the rows a1, b1, a2, b2, each drawn by its own
    ``rng.integers(0, bound, size=count)`` call, generation after
    generation."""
    return [[rng.integers(0, bound, size=count).tolist() for _ in range(4)] for _ in range(generations)]


def naive_tournament(rank, crowd, rows) -> tuple[list[int], list[int]]:
    """Winners of two rounds of binary tournaments, a_i against b_i, on
    (rank asc, crowding desc); the first pick wins ties."""
    a1, b1, a2, b2 = rows

    def winner(i: int, j: int) -> int:
        return j if rank[j] < rank[i] or (rank[j] == rank[i] and crowd[j] > crowd[i]) else i

    return [winner(i, j) for i, j in zip(a1, b1)], [winner(i, j) for i, j in zip(a2, b2)]


def naive_crowding(points: list[tuple[float, float]], front: list[int]) -> list[float]:
    """Crowding distances of a front's members, one objective after the
    other; the extremes of each objective (ties broken by position in the
    front) get +inf, and every member of a front of at most two does."""
    size = len(front)
    if size <= 2:
        return [math.inf] * size
    dist = [0.0] * size
    for objective in (0, 1):
        values = [points[i][objective] for i in front]
        order = sorted(range(size), key=lambda k: values[k])
        dist[order[0]] = dist[order[-1]] = math.inf
        span = values[order[-1]] - values[order[0]]
        if span > 0:
            for k in range(1, size - 1):
                dist[order[k]] += (values[order[k + 1]] - values[order[k - 1]]) / span
    return dist


def _reference_score(instance, regime):
    """``score(bits)``: the (g1, g2) of a 0/1 list, g1 by
    :func:`naive_coverage` (-1 when infeasible), g2 and feasibility from
    the library's ``Evaluator.constraint``, whose float arithmetic
    ``naive_surrogate`` does not repeat."""
    from ccsubmod import Evaluator

    n = instance.graph.n
    adjacency = adjacency_lists(instance.graph)
    means = instance.weights.expected.tolist()
    constraint = Evaluator(instance, regime).constraint

    def score(bits: list[int]) -> tuple[float, float]:
        chosen = [v for v in range(n) if bits[v]]
        g2, feasible = constraint(len(chosen), float(sum(means[v] for v in chosen)))
        return (float(naive_coverage(adjacency, bits)) if feasible else -1.0), g2

    return score


def reference_archive_loop(instance, cfg) -> dict:
    """GSEMO or SW-GSEMO on 0/1 lists, scoring every child, drawing its
    randomness in the library's declared order; returns the fields of a
    :class:`~ccsubmod.algorithms.RunResult` that the run decides, and its
    trace as a ``TRACE_DTYPE`` array.

    At the start of each block of ``_BLOCK`` iterations (the last one holds
    the iterations left) it draws the flips of every offspring of the block
    (:func:`block_mutation_positions`), then one ``rng.random`` uniform per
    offspring of the block that flips a bit. An iteration that flips no
    bit takes no uniform and writes the no-parent row. Any other takes the
    next uniform u and picks its parent ``pool[int(u * len(pool))]`` from
    a pool: the whole archive for ``gsemo``; for ``sw-gsemo`` the members
    with g2 in ``[floor(c), ceil(c)]``, ``c = (t / t_max) * B``, or, when
    that window is empty, the best-coverage member below it alone. The
    child is scored (see :func:`_reference_score`) and offered to a
    staircase archive kept as a list: it is rejected when a member strictly
    dominates it, and otherwise replaces the members it weakly dominates.
    Its trace row holds its exact g1, so on the rows where the library's g1
    is NaN (a child rejected at its coverage bound) this reference's
    ``accepted`` must be False.
    """
    from ccsubmod import make_rng
    from ccsubmod.algorithms import _BLOCK, TRACE_DTYPE

    n = instance.graph.n
    t_max, budget = cfg.t_max, instance.budget
    sliding = cfg.algorithm == "sw-gsemo"
    rng = make_rng(*cfg.seed_tuple())
    score = _reference_score(instance, cfg.regime)

    root = [0] * n
    archive = [(*score(root), root)]  # (g1, g2, bits), g2 ascending
    best_g1, best_bits = archive[0][0], root
    peak = 1
    rows = []
    for start in range(0, t_max, _BLOCK):
        block = block_mutation_positions(n, rng, min(_BLOCK, t_max - start))
        uniforms = iter(rng.random(sum(1 for flips in block if flips)).tolist())
        for i, flips in enumerate(block):
            t = start + i + 1
            if not flips:
                rows.append((math.nan, math.nan, math.nan, False, False, 0))
                continue
            pool, occupancy = archive, 0
            if sliding:
                c = t / t_max * budget
                window = [m for m in archive if math.floor(c) <= m[1] <= math.ceil(c)]
                below = [m for m in archive if m[1] < math.floor(c)]
                occupancy = len(window)
                if window:
                    pool = window
                elif below:
                    pool = [max(below, key=lambda m: m[0])]
            parent = pool[int(next(uniforms) * len(pool))]
            child = list(parent[2])
            for v in flips:
                child[v] ^= 1
            g1, g2 = score(child)
            accepted = not any(a >= g1 and b <= g2 and (a > g1 or b < g2) for a, b, _ in archive)
            if accepted:
                archive = sorted([m for m in archive if not (g1 >= m[0] and g2 <= m[1])] + [(g1, g2, child)],
                                 key=lambda m: m[1])
                peak = max(peak, len(archive))
            if g1 > best_g1:
                best_g1, best_bits = g1, child
            rows.append((parent[1], g1, g2, accepted, occupancy > 0, occupancy))

    return {
        "best_g1": best_g1,
        "best_bits_hex": np.packbits(np.array(best_bits, dtype=np.uint8)).tobytes().hex(),
        "evaluations": t_max + 1,
        "archive_size": len(archive),
        "peak_archive_size": peak,
        "final_objectives": [[g1, g2] for g1, g2, _ in archive],
        "trace": np.array(rows, dtype=TRACE_DTYPE),
    }


def reference_nsga2(instance, cfg) -> dict:
    """(mu + lambda) NSGA-II on 0/1 lists, one child at a time, drawing its
    randomness in the library's declared order; returns the fields of a
    :class:`~ccsubmod.algorithms.RunResult` that the run decides.

    The run makes ``t_max // lambda`` generations. At the start of each
    block of ``max(1, _BLOCK // lambda)`` generations (the last one holds
    the generations left) it draws every tournament row of the block
    (:func:`sized_picks`), then one crossover switch per child of the
    block from ``rng.random`` (switch on below 0.9), then the flips of
    every child of the block (:func:`block_mutation_positions`). A
    generation picks each child's parents by :func:`naive_tournament`,
    then, for each crossing child in turn, takes one coin per bit in which
    its parents differ, in ascending bit order; the bit comes from the
    second parent where the coin is below 1/2. The coins come from a
    buffer: a generation that needs more coins than the buffer has left
    drops the rest and draws ``max(_BLOCK, need)`` new uniforms. Then each
    child's flips are applied. Survivors are the best layers of
    :func:`layered_fronts` over parents then children; the first layer
    that does not fit keeps its members with the largest
    :func:`naive_crowding` distance (ties by position in the layer).

    Children are scored by :func:`_reference_score`.
    """
    from ccsubmod import make_rng
    from ccsubmod.algorithms import _BLOCK

    n = instance.graph.n
    mu, lam = cfg.population, cfg.children
    rng = make_rng(*cfg.seed_tuple())
    score = _reference_score(instance, cfg.regime)

    population = [[0] * n] * mu
    points = [score(population[0])] * mu
    rank, crowd = [0] * mu, [math.inf] * mu
    best_g1, best_bits = points[0][0], population[0]
    peak = 1
    coins: list[float] = []
    used = 0
    generations = cfg.t_max // lam
    per_block = max(1, _BLOCK // lam)
    for start in range(0, generations, per_block):
        block = min(per_block, generations - start)
        picks = sized_picks(rng, mu, block, lam)
        crossing = (rng.random((block, lam)) < 0.9).tolist()
        flips = block_mutation_positions(n, rng, block * lam)
        for g in range(block):
            firsts, seconds = naive_tournament(rank, crowd, picks[g])
            parents = [(population[i], population[j]) for i, j in zip(firsts, seconds)]
            differ = [[v for v in range(n) if p1[v] != p2[v]] for p1, p2 in parents]
            need = sum(len(d) for d, cross in zip(differ, crossing[g]) if cross)
            if used + need > len(coins):
                coins, used = rng.random(max(_BLOCK, need)).tolist(), 0
            children = []
            for c, (p1, p2) in enumerate(parents):
                child = list(p1)
                if crossing[g][c]:
                    for v in differ[c]:
                        if coins[used] < 0.5:
                            child[v] = p2[v]
                        used += 1
                for v in flips[g * lam + c]:
                    child[v] ^= 1
                children.append(child)
            scored = [score(child) for child in children]
            for child, (g1, _) in zip(children, scored):
                if g1 > best_g1:
                    best_g1, best_bits = g1, child

            pool, pool_points = population + children, points + scored
            fronts = layered_fronts(pool_points)
            peak = max(peak, len({pool_points[i] for i in fronts[0]}))
            chosen, rank, crowd = [], [], []
            for index, front in enumerate(fronts):
                room = mu - len(chosen)
                dist = naive_crowding(pool_points, front)
                if len(front) > room:
                    keep = sorted(range(len(front)), key=lambda k: -dist[k])[:room]
                    front, dist = [front[k] for k in keep], [dist[k] for k in keep]
                chosen += front
                rank += [index] * len(front)
                crowd += dist
                if len(chosen) == mu:
                    break
            population = [pool[i] for i in chosen]
            points = [pool_points[i] for i in chosen]

    final = [list(points[i]) for i in range(mu) if rank[i] == 0]
    return {
        "best_g1": best_g1,
        "best_bits_hex": np.packbits(np.array(best_bits, dtype=np.uint8)).tobytes().hex(),
        "evaluations": generations * lam + 1,
        "archive_size": len({tuple(p) for p in final}),
        "peak_archive_size": peak,
        "final_objectives": final,
    }


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


def lp_coverage_bound(graph, k: int) -> float:
    """Optimum of the LP relaxation of max coverage under ``|x| <= k``, a
    sound upper bound on the coverage of any selection of at most k nodes.

    Maximize ``sum(y)`` over ``0 <= x, y <= 1`` with ``y_u <= sum of x_v
    over v in N[u]`` and ``sum(x) <= k``, solved by scipy's HiGHS through
    ``linprog``; skips the calling test when scipy is missing.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n = graph.n
    adjacency = adjacency_lists(graph)
    rows, cols, vals = [], [], []
    for u in range(n):
        # y_u - x_u - sum of x_v over u's neighbours <= 0; columns are x, then y.
        for v in [u, *adjacency[u]]:
            rows.append(u)
            cols.append(v)
            vals.append(-1.0)
        rows.append(u)
        cols.append(n + u)
        vals.append(1.0)
    rows += [n] * n
    cols += list(range(n))
    vals += [1.0] * n
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(n + 1, 2 * n))
    b_ub = np.zeros(n + 1)
    b_ub[n] = k
    cost = np.concatenate([np.zeros(n), -np.ones(n)])
    result = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
    assert result.status == 0, result.message
    return -float(result.fun)


def greedy_coverage(graph, k: int) -> int:
    """Coverage of the greedy selection of k nodes, each step adding the
    node that covers the most uncovered nodes (the lowest id on ties).
    Greedy covers at least ``(1 - 1/e)`` of the optimum (Nemhauser, Wolsey
    and Fisher 1978)."""
    closed = [{v, *row} for v, row in enumerate(adjacency_lists(graph))]
    covered: set[int] = set()
    for _ in range(k):
        gains = [len(row - covered) for row in closed]
        best = max(range(graph.n), key=lambda v: (gains[v], -v))
        if gains[best] == 0:
            break
        covered |= closed[best]
    return len(covered)


def bits_from_hex(hex_string: str, n: int) -> np.ndarray:
    """0/1 vector of a selection from its big-endian packed hex string."""
    raw = np.frombuffer(bytes.fromhex(hex_string), dtype=np.uint8)
    return np.unpackbits(raw)[:n]


def closed_neighborhood(graph, v: int) -> np.ndarray:
    """Sorted node ids of v's closed neighborhood ({v} plus neighbors)."""
    return np.sort(graph.indices[graph.indptr[v] : graph.indptr[v + 1]])


def neighbors(graph, v: int) -> np.ndarray:
    """Sorted neighbor ids of v (without v): the rest of v's CSR row."""
    return graph.indices[graph.indptr[v] + 1 : graph.indptr[v + 1]]


def edge_array(graph) -> np.ndarray:
    """All edges as an (m, 2) array with u < v, sorted lexicographically."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    dst = np.delete(graph.indices, graph.indptr[:-1])
    higher = dst > src
    return np.column_stack([src[higher], dst[higher]])


def save_edge_list(graph, path) -> None:
    """Write the graph so that ``load_graph`` round-trips it exactly.

    A ``.mtx`` destination gets a Matrix-Market pattern header with 1-based
    ids; anything else gets an ``n n m`` size line plus 0-based pairs. The
    size header keeps isolated trailing nodes alive either way.
    """
    path = Path(path)
    edges = edge_array(graph)
    offset = 1 if path.suffix.lower() == ".mtx" else 0
    with open(path, "w", encoding="utf-8") as fh:
        if offset:
            fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{graph.n} {graph.n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u + offset} {v + offset}\n")


def coverage_count(graph, selection) -> int:
    """The library's coverage (``coverage_of_indices``) of a 0/1 vector."""
    selection = np.asarray(selection)
    if selection.shape != (graph.n,):
        raise ValueError(f"selection length {selection.shape} != graph size {graph.n}")
    return coverage_of_indices(graph, np.flatnonzero(selection))


def full_state(graph, selection) -> tuple[np.ndarray, int]:
    """The 2n-byte uint8 state ``[covered, selection]``, with the covered
    mask computed from scratch by ``coverage_of_indices``, and its coverage
    count."""
    selection = np.asarray(selection, dtype=np.uint8)
    covered = np.zeros(graph.n, dtype=bool)
    count = coverage_of_indices(graph, np.flatnonzero(selection), covered)
    return np.concatenate([covered, selection]), count


def selection_of(state) -> np.ndarray:
    """A writable copy of a state's selected plane, its second half."""
    return state[len(state) // 2 :].copy()


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
