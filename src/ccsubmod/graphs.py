"""Undirected graph loading and closed-neighborhood coverage.

Graphs come from plain edge lists or Matrix-Market coordinate files (the
formats used by the network data repository). Node ids are normalized to
0-based indices. Each node's closed neighborhood (the node plus its
neighbors) is one row of a CSR array, with the node itself first, so its
open neighborhood is the rest of the row.

Loading takes a few passes over whole arrays. A file that asks for 2**32
nodes or more is rejected before they are allocated, and so is a graph of
more than 3037000499 nodes; one that does not fit in memory is reported as
a malformed file. The file's text is scanned as bytes to find its lines,
tokens and comment lines, and the integer tokens of all plain lines are
converted by one numpy call; only lines with unusual content go through
Python's ``int``. The CSR build sorts one key ``src * n + dst`` per
orientation of each edge, drops repeats, and puts each node in front of
its row.

A full computation marks the rows of all selected nodes in a covered
mask. A selection that is updated by flips is held as a state of 2n bytes,
two planes of 0/1 bytes: ``state[:n]`` marks the nodes that some selected
node's row contains, so the coverage is its count of nonzero bytes, and
``state[n:]`` marks the selected nodes. The covered plane comes first, so a
row's node ids index it directly. An update after a few flips writes 1 over
the row of each added node and rechecks the row of each removed node, so it
costs the rows around the flipped nodes instead of the whole selection.
Many small selections at once are counted without masks, from the rows of
their selected nodes: one sort of the keys ``group * n + node`` puts every
repeat next to its first copy. The keys are 32-bit whenever all of them and the
group boundaries fit, since numpy sorts those about twice as fast as
64-bit keys; the CSR arrays themselves stay int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "load_graph",
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
        ``n`` may exceed the largest id to keep isolated trailing nodes. An
        ``n`` above 3037000499, whose keys would overflow int64, raises
        :class:`GraphFormatError` before anything is built.
        """
        if n > _MAX_KEY_NODES:
            raise GraphFormatError(f"{n} nodes overflow the int64 edge keys; the limit is {_MAX_KEY_NODES}")
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
# No run can index 2**32 nodes or more (the index draw takes bounds below
# 2**32), so a file that asks for that many is rejected before anything is
# allocated for them.
_MAX_NODES = 2**32 - 1
# The largest n whose edge keys src * n + dst, at most n * n - 1, fit int64.
_MAX_KEY_NODES = math.isqrt(_INT64.max)


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
    # The text and the per-byte arrays below are each as long as the file;
    # each is dropped once no longer needed, to keep the load's peak low.
    del text
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
    del stops
    first_token = np.searchsorted(token_starts, starts)
    counts = np.searchsorted(token_starts, ends) - first_token
    lead = data[token_starts[np.minimum(first_token, token_starts.size - 1)]]
    del first_token
    comment = (counts > 0) & ((lead == ord("%")) | (lead == ord("#")))

    # A sign is plain only as the first byte of a token, before a digit.
    # Files rarely hold a sign, so only the sign positions are checked.
    odd = cls == _OTHER
    signs = np.flatnonzero(cls == _SIGN)
    plain = begins[signs] & (signs + 1 < cls.size)
    plain[plain] = cls[signs[plain] + 1] == _DIGIT
    odd[signs[~plain]] = True
    del cls, begins, signs, plain
    slow = np.logical_or.reduceat(odd, starts)
    del odd
    slow[np.searchsorted(ends, token_starts[token_bytes > _ARRAY_TOKEN_BYTES])] = True
    del token_starts, token_bytes
    slow &= ~comment
    fast = (counts > 0) & ~comment & ~slow

    fast_lines = np.flatnonzero(fast)
    fast_counts = counts[fast_lines]
    offsets = np.cumsum(fast_counts) - fast_counts
    values = np.empty(0, dtype=np.int64)
    if fast_lines.size:
        # Blank every byte outside the tokens of the plain lines.
        blank = np.repeat(~fast, np.diff(starts, append=data.size))
        blank |= space
        del space
        body = data.copy()
        body[blank] = ord(" ")
        del blank
        values = np.fromstring(body.tobytes(), dtype=np.int64, sep=" ")
        if values.size != fast_counts.sum():
            raise RuntimeError(f"{path}: read {values.size} integers, expected {fast_counts.sum()}")

    def line_text(i: int) -> str:
        return data[starts[i] : ends[i]].tobytes().decode("utf-8").strip()

    def fail(i: int, message: str):
        raise GraphFormatError(f"{path}:{i + 1}: {message}")

    # The first faulty line is reported: one with a single integer, a token
    # int() rejects, a u or v beyond int64, or a size header that declares
    # too many nodes. Lines past the first plain line with a single integer
    # need not be read.
    short = fast_lines[fast_counts < 2]
    faults: list[tuple[int, str]] = []
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
            faults.append((i, f"non-integer token in {line!r}"))
            break
        if len(row) < 2:
            faults.append((i, f"expected an integer pair, got {line!r}"))
            break
        if not all(_INT64.min <= x <= _INT64.max for x in row[:2]):
            faults.append((i, f"id or size beyond int64 in {line!r}"))
            break
        rows[i] = row
    if short.size:
        faults.append((int(short[0]), f"expected an integer pair, got {line_text(int(short[0]))!r}"))

    # Only the first data line can be a size header: "rows cols nnz" in
    # Matrix-Market files and, elsewhere, only an "n n m" line, whose first
    # two values are equal. Any other three-integer line is a weighted edge.
    # A fault found above on an earlier line still comes first.
    declared, header = None, -1
    if fast_lines.size or rows:
        header = min(fast_lines[:1].tolist() + list(rows)[:1])
        head = rows[header] if header in rows else values[: fast_counts[0]].tolist()
        if len(head) == 3 and (is_mm or head[0] == head[1]):
            declared = max(head[:2])
            if declared > _MAX_NODES:
                faults.append((header, f"size header declares {declared} nodes; the limit is 2**32 - 1"))
        else:
            header = -1
    if faults:
        fail(*min(faults))

    # The pairs fill one array once the per-byte, per-token and per-line
    # arrays are gone. Coordinate files may carry a value column; anything
    # past u v is ignored.
    del data, starts, ends, counts
    keep = fast_lines != header
    fast_lines, at = fast_lines[keep], offsets[keep]
    del fast_counts, offsets
    slow_lines = [i for i in rows if i != header]
    pairs = np.empty((fast_lines.size + len(slow_lines), 2), dtype=np.int64)
    pairs[: fast_lines.size, 0] = values[at]
    at += 1
    pairs[: fast_lines.size, 1] = values[at]
    del values, at
    for k, i in enumerate(slow_lines, start=fast_lines.size):
        pairs[k] = rows[i][:2]
    lines = np.concatenate([fast_lines, np.array(slow_lines, dtype=np.int64)]) + 1
    return pairs, lines, declared, is_mm


def load_graph(path: str | Path) -> Graph:
    """Load an undirected graph from an edge-list or Matrix-Market file.

    Ids are 1-based when the file has a Matrix-Market banner or a ``.mtx``
    suffix; otherwise they are 1-based unless some id is 0. Comment lines
    start with '%' or '#'. A three-integer first data line is a size
    header in Matrix-Market files; elsewhere it is one only in the ``n n m``
    form, with its first two values equal, and otherwise an edge whose third
    column is ignored (but must be an integer). Ids and header sizes must
    fit int64. Self loops are dropped, duplicate edges are merged, and the
    node count is ``max(declared header size, largest id + 1)`` so that
    isolated trailing nodes declared by the header survive; it must be
    below 2**32. A malformed file raises :class:`GraphFormatError` naming
    ``path:line``, and one whose graph cannot be built (more than 3037000499
    nodes, or too many to fit in memory) raises it naming ``path``.
    """
    path = Path(path)
    edges, lines, declared, is_mm = _read_pairs(path)
    base = 1 if is_mm or not (edges == 0).any() else 0
    bad = ((edges < base) | (edges >= _MAX_NODES + base)).any(axis=1)
    if bad.any():
        first = np.flatnonzero(bad)[np.argmin(lines[bad])]
        where = f"{path}:{lines[first]}"
        if edges[first].min() < base:
            raise GraphFormatError(f"{where}: node id below the indexing base")
        top = int(edges[first].max())
        raise GraphFormatError(f"{where}: node id {top} needs {top - base + 1} nodes; the limit is 2**32 - 1")
    edges -= base
    n = max(declared or 0, int(edges.max()) + 1 if edges.size else 0)
    if n == 0:
        raise GraphFormatError(f"{path}: no nodes (empty file without size header)")
    try:
        return Graph.from_edges(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    except MemoryError:
        # A size header can declare billions of isolated nodes.
        raise GraphFormatError(f"{path}: a graph of {n} nodes does not fit in memory") from None


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
    not to ``count * n``. The keys are int32 whenever ``count * n`` fits
    (numpy sorts them about twice as fast as int64), and int64 otherwise.
    """
    if len(nodes) == 0:
        return np.zeros(count, dtype=np.int64)
    key = np.int32 if count * graph.n < 2**31 else np.int64
    covered, _, lengths = _rows(graph, nodes)
    keys = np.add(np.repeat(groups * graph.n, lengths), covered, dtype=key, casting="unsafe")
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    edges = keys[first].searchsorted(np.arange(count + 1, dtype=key) * key(graph.n))
    return edges[1:] - edges[:-1]


def update_coverage(graph: Graph, state: np.ndarray, flipped: list[int]) -> None:
    """Turn a parent's state into its child's, in place.

    ``state`` is the parent's uint8 state of 2n bytes, the covered plane
    ``state[:n]`` followed by the selected plane ``state[n:]``, and
    ``flipped`` the distinct nodes whose selection flips, as a list of ints
    (or any sequence of node ids). An added node covers its row with one
    constant write, whatever else the row holds. A node in the row of a
    removed node stays covered only if its own row still holds a selected
    node: its covered byte becomes the largest selected byte of that row.
    """
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    lost = []
    for v in flipped:
        row = indices[indptr[v] : indptr[v + 1]]
        if state.item(n + v):
            state[n + v] = 0
            lost.append(row)
        else:
            state[row] = 1
            state[n + v] = 1
    if lost:
        recheck = lost[0] if len(lost) == 1 else np.concatenate(lost)
        around, offsets, _ = _rows(graph, recheck)
        state[recheck] = np.maximum.reduceat(state[n:][around], offsets)
