"""Undirected graph loading and closed-neighborhood coverage.

Graphs come from plain edge lists or Matrix-Market coordinate files (the
formats used by the network data repository). Node ids are normalized to
0-based indices. Each node's closed neighborhood (the node plus its
neighbors) is one row of a CSR array, with the node itself first, so its
open neighborhood is the rest of the row.

Coverage is held as a covered mask: one bool per node, True when some
selected node's row contains it. A full computation marks the rows of all
selected nodes. An update after a few bit flips marks the rows of added
nodes and rechecks the row of each removed node, so it costs the rows
around the flipped nodes instead of the whole selection. Many small
selections at once are counted without masks, from the rows of their
selected nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "load_graph",
    "save_edge_list",
    "coverage_count",
    "coverage_of_indices",
    "coverage_of_groups",
    "update_coverage",
]


class GraphFormatError(ValueError):
    """Raised for malformed graph files (non-integer tokens, bad ids)."""


_COMMENT_PREFIXES = ("%", "#")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph stored as CSR closed neighborhoods.

    Attributes:
        n: number of nodes (0-based ids 0..n-1; isolated trailing nodes are
           retained when declared by a size header).
        indptr: int64 array of length n + 1; row v is
            ``indices[indptr[v]:indptr[v + 1]]``.
        indices: int64 array of length n + 2m; row v holds v itself, then
            its neighbors in ascending order (no self loops).
        degrees: per-node degree, one less than the row length.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    degrees: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "Graph":
        """Build a graph from 0-based edge pairs.

        Duplicate edges (in either orientation) and self loops are dropped.
        ``n`` may exceed the largest id to keep isolated trailing nodes.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GraphFormatError("edge endpoint out of range")
        u = np.minimum(edges[:, 0], edges[:, 1])
        v = np.maximum(edges[:, 0], edges[:, 1])
        keep = u != v
        u, v = u[keep], v[keep]
        if u.size:
            canon = np.unique(u * np.int64(n) + v)
            u, v = canon // n, canon % n
        both_src = np.concatenate([u, v])
        both_dst = np.concatenate([v, u])
        order = np.lexsort((both_dst, both_src))
        degrees = np.bincount(both_src, minlength=n).astype(np.int64)
        open_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=open_starts[1:])
        ids = np.arange(n + 1, dtype=np.int64)
        # Each node goes in front of its own neighbors.
        indices = np.insert(both_dst[order], open_starts[:-1], ids[:-1])
        indptr = open_starts + ids
        for a in (indptr, indices, degrees):
            a.setflags(write=False)
        return cls(n=n, indptr=indptr, indices=indices, degrees=degrees)

    @property
    def num_edges(self) -> int:
        return int(self.degrees.sum()) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (without v)."""
        return self.indices[self.indptr[v] + 1 : self.indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """All edges as (m, 2) array with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        dst = np.delete(self.indices, self.indptr[:-1])
        higher = dst > src
        return np.column_stack([src[higher], dst[higher]])

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """Sorted node ids of v's closed neighborhood ({v} plus neighbors)."""
        return np.sort(self.indices[self.indptr[v] : self.indptr[v + 1]])


def _parse_pairs(path: Path) -> tuple[list[tuple[int, int]], int | None, bool]:
    """Read integer pair lines; returns (pairs, declared size or None, is_mm)."""
    pairs: list[tuple[int, int]] = []
    declared: int | None = None
    is_mm = False
    first_data = True
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(_COMMENT_PREFIXES):
                if lineno == 1 and line.lower().startswith("%%matrixmarket"):
                    is_mm = True
                continue
            tokens = line.split()
            try:
                values = [int(t) for t in tokens]
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer token in {line!r}") from exc
            if first_data and len(values) == 3:
                # Matrix-Market size header "rows cols nnz"; also accepted on
                # plain lists whose first data line declares the node count.
                declared = max(values[0], values[1])
                first_data = False
                continue
            first_data = False
            if len(values) < 2:
                raise GraphFormatError(f"{path}:{lineno}: expected an integer pair, got {line!r}")
            # Coordinate files may carry a value column; ignore anything past u v.
            pairs.append((values[0], values[1]))
    return pairs, declared, is_mm


def load_graph(path: str | Path, format: str = "auto") -> Graph:
    """Load an undirected graph from an edge-list or Matrix-Market file.

    ``format`` is one of ``"matrix-market"``, ``"edge-list"``, ``"auto"``.
    Matrix-Market ids are 1-based; plain lists are sniffed (an id 0 anywhere
    means 0-based). Comment lines start with '%' or '#'. Self loops are
    dropped, duplicate edges are merged, and the node count is
    ``max(declared header size, largest id + 1)`` so that isolated trailing
    nodes declared by the header survive.
    """
    path = Path(path)
    if format not in ("auto", "matrix-market", "edge-list"):
        raise ValueError(f"unknown graph format {format!r}")
    pairs, declared, saw_banner = _parse_pairs(path)
    if format == "matrix-market":
        one_based = True
    elif format == "edge-list":
        one_based = not any(u == 0 or v == 0 for u, v in pairs)
    else:
        if saw_banner or path.suffix.lower() == ".mtx":
            one_based = True
        else:
            one_based = not any(u == 0 or v == 0 for u, v in pairs)

    if pairs:
        edges = np.asarray(pairs, dtype=np.int64)
        if one_based:
            edges = edges - 1
        if edges.min() < 0:
            raise GraphFormatError(f"{path}: node id below the indexing base")
        max_id = int(edges.max())
    else:
        edges = np.empty((0, 2), dtype=np.int64)
        max_id = -1
    n = max(declared or 0, max_id + 1)
    if n == 0:
        raise GraphFormatError(f"{path}: no nodes (empty file without size header)")
    return Graph.from_edges(n, edges)


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write the graph so that :func:`load_graph` round-trips it exactly.

    A ``.mtx`` destination gets a Matrix-Market pattern header with 1-based
    ids; anything else gets an ``n n m`` size line plus 0-based pairs. The
    size header keeps isolated trailing nodes alive either way.
    """
    path = Path(path)
    edges = graph.edge_array()
    offset = 1 if path.suffix.lower() == ".mtx" else 0
    with open(path, "w", encoding="utf-8") as fh:
        if offset:
            fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{graph.n} {graph.n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u + offset} {v + offset}\n")


def coverage_count(graph: Graph, selection: np.ndarray) -> int:
    """Number of nodes covered by a selection: |union of closed neighborhoods|.

    ``selection`` is a 0/1 (or boolean) vector of length ``graph.n``. The
    result is 0 for the empty selection and is monotone submodular in the
    selected set.
    """
    selection = np.asarray(selection)
    if selection.shape != (graph.n,):
        raise ValueError(f"selection length {selection.shape} != graph size {graph.n}")
    idx = np.flatnonzero(selection)
    return coverage_of_indices(graph, idx)


def _rows(graph: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed rows of ``nodes`` back to back, where each row starts, and
    the row lengths."""
    row_ends = graph.indptr[nodes + 1]
    lengths = row_ends - graph.indptr[nodes]
    ends = np.cumsum(lengths)
    positions = np.arange(ends[-1]) + np.repeat(row_ends - ends, lengths)
    return graph.indices[positions], ends - lengths, lengths


def coverage_of_indices(graph: Graph, idx: np.ndarray, out: np.ndarray | None = None) -> int:
    """Coverage value for an explicit array of selected node ids.

    ``out``, when given, is an all-False bool array of length ``graph.n``
    that receives the covered mask.
    """
    covered = np.zeros(graph.n, dtype=bool) if out is None else out
    if len(idx):
        covered[_rows(graph, idx)[0]] = True
    return int(np.count_nonzero(covered))


def coverage_of_groups(graph: Graph, nodes: np.ndarray, groups: np.ndarray, count: int) -> np.ndarray:
    """Coverage values of ``count`` selections given as (group, node) pairs.

    Selection g holds ``nodes[groups == g]``. The rows of all nodes are
    tagged with their group as keys ``group * n + node`` and counted once
    each, so the scratch memory is proportional to the total row length,
    not to ``count * n``.
    """
    if len(nodes) == 0:
        return np.zeros(count, dtype=np.int64)
    covered, _, lengths = _rows(graph, nodes)
    keys = np.repeat(groups * np.int64(graph.n), lengths) + covered
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    edges = keys[first].searchsorted(np.arange(count + 1) * np.int64(graph.n))
    return edges[1:] - edges[:-1]


def update_coverage(graph: Graph, covered: np.ndarray, bits: np.ndarray, flipped: np.ndarray) -> None:
    """Turn a parent's covered mask into its child's, in place.

    ``bits`` is the child's 0/1 selection (uint8) and ``flipped`` the
    positions in which it differs from the parent. An added node covers its
    row. A node in the row of a removed node stays covered only if its own
    row still holds a selected node.
    """
    indptr, indices = graph.indptr, graph.indices
    lost = []
    for v in flipped.tolist():
        row = indices[indptr[v] : indptr[v + 1]]
        if bits[v]:
            covered[row] = True
        else:
            lost.append(row)
    if lost:
        recheck = lost[0] if len(lost) == 1 else np.concatenate(lost)
        around, offsets, _ = _rows(graph, recheck)
        covered[recheck] = np.maximum.reduceat(bits[around], offsets)
