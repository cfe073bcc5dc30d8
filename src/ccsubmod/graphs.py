"""Undirected graph loading and closed-neighborhood coverage.

Graphs come from plain edge lists or Matrix-Market coordinate files (the
formats used by the network data repository). Node ids are normalized to
0-based indices. Each node's closed neighborhood (the node plus its
neighbors) is one row of a CSR array, with the node itself first, so its
open neighborhood is the rest of the row.

Loading takes a few passes over whole arrays. The file's text is scanned
as bytes to find its lines, tokens and comment lines, and the integer
tokens of all plain lines are converted by one numpy call; only lines
with unusual content go through Python's ``int``. The CSR build sorts one
key ``src * n + dst`` per orientation of each edge, drops repeats, and
puts each node in front of its row.

A full computation marks the rows of all selected nodes in a covered
mask. A selection that is updated by flips is held as a state: one byte per
node, where value 2 marks a selected node and value 1 a node that some
selected node's row contains, so a selected node reads 3 and the coverage
is the count of nonzero bytes. An update after a few flips marks the rows
of added nodes and rechecks the row of each removed node, so it costs the
rows around the flipped nodes instead of the whole selection. Many small
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
    "coverage_of_indices",
    "coverage_of_groups",
    "update_coverage",
]


class GraphFormatError(ValueError):
    """Raised for malformed graph files (non-integer tokens, bad ids); the
    message names ``path:line`` when one line is at fault."""


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
        src, dst = edges[:, 0], edges[:, 1]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # One key src * n + dst per orientation of each edge: a single sort
        # puts every row in order and every repeat next to its first copy.
        keys = np.concatenate([src * np.int64(n) + dst, dst * np.int64(n) + src])
        keys.sort()
        if keys.size:
            fresh = np.empty(keys.size, dtype=bool)
            fresh[0] = True
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            keys = keys[fresh]
        src, dst = np.divmod(keys, np.int64(n))
        degrees = np.bincount(src, minlength=n).astype(np.int64, copy=False)
        open_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=open_starts[1:])
        ids = np.arange(n + 1, dtype=np.int64)
        # Each node goes in front of its own neighbors.
        indices = np.insert(dst, open_starts[:-1], ids[:-1])
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


# The bytes ``str.split()`` treats as whitespace that can occur in a line
# read with universal newlines, where "\n" is the only line break left.
_SPACE_BYTES = b" \t\n\v\f\r\x1c\x1d\x1e\x1f"
_SPACE, _DIGIT, _SIGN, _OTHER = range(4)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(_SPACE_BYTES)] = _SPACE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
# A token of at most 18 bytes has at most 18 digits, so it fits int64 and the
# array parse cannot clamp it. A longer one is read by int().
_ARRAY_TOKEN_BYTES = 18
_INT64 = np.iinfo(np.int64)


def _read_pairs(path: Path) -> tuple[np.ndarray, np.ndarray, int | None, bool]:
    """Read the integer pair lines of a graph file.

    Returns the ``(u, v)`` pairs as an (m, 2) int64 array, the line number
    of each pair, the size a header line declares (or None), and whether
    the file is Matrix-Market (a banner or a ``.mtx`` suffix).

    The text is scanned as one byte array. The lines whose tokens are all
    ASCII ``[+-]digits`` of at most 18 bytes are parsed together by one
    ``np.fromstring`` call. Any other line that is neither blank nor a
    comment (non-ASCII bytes, a stray sign or character, a long token) goes
    through ``str.split`` and ``int``, so every line means what it means to
    Python. The first faulty line, in file order, is the one reported.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    banner = text.partition("\n")[0].strip().lower().startswith("%%matrixmarket")
    is_mm = banner or path.suffix.lower() == ".mtx"
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    cls = _BYTE_CLASS[data]
    space = cls == _SPACE
    begins = ~space
    begins[1:] &= space[:-1]
    token_starts = np.flatnonzero(begins)
    if token_starts.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64), None, is_mm

    # Line i is data[starts[i]:ends[i]]; every line but perhaps the last ends at "\n".
    ends = np.flatnonzero(data == ord("\n"))
    if data[-1] != ord("\n"):
        ends = np.append(ends, data.size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    stops = ~space
    stops[:-1] &= space[1:]
    token_bytes = np.flatnonzero(stops) - token_starts + 1
    first_token = np.searchsorted(token_starts, starts)
    counts = np.searchsorted(token_starts, ends) - first_token
    lead = data[token_starts[np.minimum(first_token, token_starts.size - 1)]]
    comment = (counts > 0) & ((lead == ord("%")) | (lead == ord("#")))

    # A sign is plain only as the first byte of a token, before a digit.
    odd = cls == _OTHER
    odd[:-1] |= (cls[:-1] == _SIGN) & ~(begins[:-1] & (cls[1:] == _DIGIT))
    odd[-1] |= cls[-1] == _SIGN
    slow = np.logical_or.reduceat(odd, starts)
    slow[np.searchsorted(ends, token_starts[token_bytes > _ARRAY_TOKEN_BYTES])] = True
    slow &= ~comment
    fast = (counts > 0) & ~comment & ~slow

    fast_lines = np.flatnonzero(fast)
    fast_counts = counts[fast_lines]
    offsets = np.cumsum(fast_counts) - fast_counts
    values = np.empty(0, dtype=np.int64)
    if fast_lines.size:
        keep = np.repeat(fast, np.diff(starts, append=data.size))
        keep &= ~space
        body = np.where(keep, data, np.uint8(ord(" ")))
        values = np.fromstring(body.tobytes(), dtype=np.int64, sep=" ")
        if values.size != fast_counts.sum():
            raise RuntimeError(f"{path}: read {values.size} integers, expected {fast_counts.sum()}")

    def line_text(i: int) -> str:
        return data[starts[i] : ends[i]].tobytes().decode("utf-8").strip()

    def fail(i: int, message: str):
        raise GraphFormatError(f"{path}:{i + 1}: {message}")

    # The first faulty line is reported: one with a single integer, a token
    # int() rejects, or a u or v beyond int64. Lines past the first plain
    # line with a single integer need not be read.
    short = fast_lines[fast_counts < 2]
    rows: dict[int, list[int]] = {}
    for i in np.flatnonzero(slow).tolist():
        if short.size and i > short[0]:
            break
        line = line_text(i)
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        try:
            row = [int(t) for t in line.split()]
        except ValueError:
            fail(i, f"non-integer token in {line!r}")
        if len(row) < 2:
            fail(i, f"expected an integer pair, got {line!r}")
        if not all(_INT64.min <= x <= _INT64.max for x in row[:2]):
            fail(i, f"id or size beyond int64 in {line!r}")
        rows[i] = row
    if short.size:
        fail(int(short[0]), f"expected an integer pair, got {line_text(int(short[0]))!r}")

    # Only the first data line can be a size header: "rows cols nnz" in
    # Matrix-Market files and, elsewhere, only the "n n m" line
    # save_edge_list writes. Any other three-integer line is a weighted edge.
    declared, header = None, -1
    if fast_lines.size or rows:
        header = min(fast_lines[:1].tolist() + list(rows)[:1])
        head = rows[header] if header in rows else values[: fast_counts[0]].tolist()
        if len(head) == 3 and (is_mm or head[0] == head[1]):
            declared = max(head[:2])
        else:
            header = -1

    # Coordinate files may carry a value column; anything past u v is ignored.
    at = offsets[fast_lines != header]
    pairs = np.concatenate([
        np.column_stack([values[at], values[at + 1]]),
        np.array([row[:2] for i, row in rows.items() if i != header], dtype=np.int64).reshape(-1, 2),
    ])
    slow_lines = np.array([i for i in rows if i != header], dtype=np.int64)
    lines = np.concatenate([fast_lines[fast_lines != header], slow_lines]) + 1
    return pairs, lines, declared, is_mm


def load_graph(path: str | Path) -> Graph:
    """Load an undirected graph from an edge-list or Matrix-Market file.

    Ids are 1-based when the file has a Matrix-Market banner or a ``.mtx``
    suffix; otherwise they are 1-based unless some id is 0. Comment lines
    start with '%' or '#'. A three-integer first data line is a size
    header in Matrix-Market files; elsewhere it is one only in the ``n n m``
    form :func:`save_edge_list` writes, and otherwise an edge whose third
    column is ignored (but must be an integer). Ids and header sizes must
    fit int64. Self loops are dropped, duplicate edges are merged, and the
    node count is ``max(declared header size, largest id + 1)`` so that
    isolated trailing nodes declared by the header survive. A malformed
    file raises :class:`GraphFormatError` naming ``path:line``.
    """
    path = Path(path)
    edges, lines, declared, is_mm = _read_pairs(path)
    base = 1 if is_mm or not (edges == 0).any() else 0
    below = (edges < base).any(axis=1)
    if below.any():
        raise GraphFormatError(f"{path}:{lines[below].min()}: node id below the indexing base")
    edges -= base
    n = max(declared or 0, int(edges.max()) + 1 if edges.size else 0)
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


def update_coverage(graph: Graph, state: np.ndarray, flipped: np.ndarray) -> None:
    """Turn a parent's state into its child's, in place.

    ``state`` is the parent's uint8 state (2 selected, 1 covered) and
    ``flipped`` the distinct nodes whose selection flips. An added node
    covers its row. A node in the row of a removed node stays covered only
    if its own row still holds a selected node.
    """
    indptr, indices = graph.indptr, graph.indices
    lost = []
    for v in flipped.tolist():
        row = indices[indptr[v] : indptr[v + 1]]
        if state.item(v) & 2:
            state[v] = 1
            lost.append(row)
        else:
            state[row] |= 1
            state[v] = 3
    if lost:
        recheck = lost[0] if len(lost) == 1 else np.concatenate(lost)
        around, offsets, _ = _rows(graph, recheck)
        state[recheck] = (state[recheck] & 2) | (np.maximum.reduceat(state[around], offsets) >> 1)
