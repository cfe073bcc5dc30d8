"""Archive-based and population-based optimizers over node selections.

Three algorithms share the bi-objective fitness from :mod:`ccsubmod.chance`:

* ``gsemo``: keeps an archive of mutually non-dominated solutions, picks a
  parent uniformly at random, applies standard bit mutation, and inserts the
  offspring unless some member strictly dominates it (removing every member
  the offspring weakly dominates). Each member holds its coverage and its
  selection as one state of two n-byte planes, covered nodes first (see
  :func:`ccsubmod.graphs.update_coverage`), from which a child's is updated.
* ``sw-gsemo``: same loop, but the parent comes from a weight window
  ``[floor(c), ceil(c)]`` with ``c = (t / t_max) * B`` sliding linearly from
  0 to the budget over the run. A member the window has passed can never be
  a parent again, so it drops its state and keeps only its objectives:
  SW-GSEMO holds states for O(window) members, not for the whole archive.
* ``nsga2``: classic (mu + lambda) NSGA-II with fast non-dominated sorting
  and crowding distance, binary-tournament parents, uniform crossover and
  the same bit mutation. Its members are sorted arrays of selected node
  ids, and each generation's children are bred and scored as one batch.

All runs start from the empty selection, are deterministic given their seed,
and spend exactly one fitness evaluation per offspring (plus one for the
initial individual). :func:`run` sets each run up and builds every
:class:`RunResult`; a traced archive-based run adds one :data:`TRACE_DTYPE`
record per iteration.

Every algorithm draws its mutation flips with :func:`_mutation_positions`,
many offspring at once: GSEMO and SW-GSEMO in blocks of ``_BLOCK``
iterations, NSGA-II in blocks of ``max(1, _BLOCK // lambda)`` generations,
together with the block's tournament picks and crossover switches. About
(1 - 1/n)^n of the archive loop's iterations, 37%, flip no bit. Such an
offspring is its parent, so the iteration counts one evaluation and draws
no parent.

Coverage is monotone and submodular, so a GSEMO or SW-GSEMO child that adds
the nodes A to its parent covers at most ``parent.g1 + sum(|N[v]| for v in
A)`` nodes. When the archive would reject a feasible child even at that
bound, the child is counted as an evaluation but its coverage is bounded,
not computed: the archive and the best solution are what scoring it would
leave. A traced run takes the same steps: its row for such a child holds
g1 NaN.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
# Imported here, not on a run's first make_rng call: numpy loads numpy.random
# lazily, which would put the import (about 8 ms) inside that run's wall time.
from numpy.random import PCG64, Generator, SeedSequence

from .chance import Evaluator, G2Regime, Objectives
from .problem import Instance

__all__ = [
    "Individual",
    "ParetoArchive",
    "RunConfig",
    "RunResult",
    "TRACE_DTYPE",
    "make_rng",
    "run",
]

ALGORITHMS = ("gsemo", "sw-gsemo", "nsga2")


def make_rng(*entropy: int) -> Generator:
    """Seeded PCG64 generator; the entropy tuple is mixed by SeedSequence.

    Repetition r of grid cell c under experiment seed s uses
    ``make_rng(s, c, r)``, which is the reproducibility contract for every
    published result file. A run draws from it in a fixed order: the
    archive loop draws each block's flips (see :func:`_mutation_positions`)
    and then one parent index per iteration that flips a bit. NSGA-II
    draws, for each block of generations, all tournament picks, then all
    crossover switches, then all flips; each generation then takes its
    crossover coins from a buffer of uniforms that it refills when they
    run short (see :func:`_run_nsga2`). Results made with earlier draw
    orders (per-iteration archive draws, or NSGA-II draws one generation
    at a time) are not reproduced.
    """
    return Generator(PCG64(SeedSequence(list(entropy))))


def _index_draw(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(bound)``: the value ``rng.integers(bound)`` returns, leaving
    ``rng`` in the state that call leaves.

    GSEMO and SW-GSEMO draw their parents with it, one scalar draw per
    iteration that flips a bit. A scalar ``rng.integers`` call spends most
    of its time on argument handling. For a bound below 2**32 its value is
    Lemire's multiply-and-reject method (ACM TOMACS 2019) on 32-bit outputs
    of the bit generator, so running that method on the bit generator's
    ``next_uint32`` through ``bit_generator.ctypes`` gives the same values
    from the same stream at about a third of the cost. The parent draws
    thus depend on PCG64's ``next_uint32`` alone, not on how
    ``Generator.integers`` is implemented; ``tests/test_mutation.py``
    checks the two against each other, generator state included. A bound
    of 1 returns 0 and draws nothing, as numpy does; a bound of 2**32 or
    more raises ``ValueError``.
    """
    bit_generator = rng.bit_generator
    interface = bit_generator.ctypes
    next_uint32, state = interface.next_uint32, interface.state

    def draw(bound: int) -> int:
        if bound <= 1:
            if bound == 1:
                return 0
            raise ValueError(f"bound must be positive, got {bound}")
        if bound > 0xFFFFFFFF:
            raise ValueError(f"bound must be below 2**32, got {bound}")
        m = next_uint32(state) * bound
        if m & 0xFFFFFFFF < bound:
            # Reject the lowest 2**32 mod bound products, which would bias
            # the high word.
            threshold = (0x100000000 - bound) % bound
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * bound
        return m >> 32

    # The ctypes pointers do not keep the generator alive; this does.
    draw.bit_generator = bit_generator
    return draw


@dataclass(slots=True)
class Individual:
    """A selection with its cached objectives.

    ``state`` is the read-only uint8 state of a feasible selection, 2n bytes
    of 0/1: ``state[:n]`` marks the covered nodes and ``state[n:]`` the
    selected ones, so the selection is ``state[n:]``. It is None when the
    selection is infeasible, or when a sliding window has passed the member
    (see :meth:`ParetoArchive.raise_floor`).
    """

    state: np.ndarray | None
    size: int
    expected: float
    g1: float
    g2: float


class ParetoArchive:
    """Mutually non-dominated individuals, sorted by g2.

    The contents always form a strict staircase (g2 and g1 both strictly
    increasing along the list) because any violation would be a dominance
    relation. There is at most one member per distinct g2 value; inserting an
    exact duplicate objective pair replaces the older member.

    ``floor`` is the lower edge of a sliding selection window, -inf for an
    archive without one. Of the members with g2 below it, only the last can
    still be selected (as an empty window's fallback): every member under
    that one holds no state, so a sliding run keeps O(window) states, not
    one per member. Each member keeps its objectives either way.
    """

    __slots__ = ("_g2", "members", "peak_size", "floor")

    def __init__(self) -> None:
        self._g2: list[float] = []
        # Members in g2-ascending order (read-only by convention).
        self.members: list[Individual] = []
        self.peak_size = 0
        self.floor = -math.inf

    def __len__(self) -> int:
        return len(self.members)

    def rejects(self, g1: float, g2: float) -> bool:
        """Whether some member strictly dominates the objective pair (g1, g2).

        If it rejects (g1, g2), it rejects (g1', g2) for every g1' <= g1.
        """
        i = bisect_right(self._g2, g2) - 1
        if i < 0:
            return False
        # The staircase makes m the best potential dominator: it has the
        # largest g1 among members with g2 <= the given g2.
        m = self.members[i]
        return m.g1 >= g1 and (m.g2 < g2 or m.g1 > g1)

    def insert(self, ind: Individual) -> bool:
        """Insert unless strictly dominated; drop weakly dominated members.

        Returns True when the individual was accepted. Re-inserting a member
        accepts it and changes nothing.
        """
        if self.rejects(ind.g1, ind.g2):
            return False
        g2s = self._g2
        j = bisect_left(g2s, ind.g2)
        nmem = len(g2s)
        j2 = j
        while j2 < nmem and self.members[j2].g1 <= ind.g1:
            j2 += 1
        if j2 > j:
            del g2s[j:j2]
            del self.members[j:j2]
        g2s.insert(j, ind.g2)
        self.members.insert(j, ind)
        if len(g2s) > self.peak_size:
            self.peak_size = len(g2s)
        if ind.g2 < self.floor:
            if j + 1 < len(g2s) and g2s[j + 1] < self.floor:
                # A later member below the floor shadows the newcomer.
                ind.state = None
            else:
                self._release_under(j)
        return True

    def raise_floor(self, floor: float) -> None:
        """Raise the window's lower edge and drop the states it has passed.

        The floor must not decrease. A member m stays released: a member m'
        with g2(m) < g2(m') < floor blocks it, and a newcomer that removes
        m' either lies in (g2(m), g2(m')] and blocks m in turn, or
        dominates m as well.
        """
        self.floor = floor
        self._release_under(bisect_left(self._g2, floor) - 1)

    def _release_under(self, last: int) -> None:
        """Drop the states of the members under index ``last``; the members
        under the first stateless one have none already."""
        members = self.members
        i = last - 1
        while i >= 0 and members[i].state is not None:
            members[i].state = None
            i -= 1

    def uniform_member(self, draw: Callable[[int], int]) -> Individual:
        """A member drawn uniformly by ``draw`` (see :func:`_index_draw`):
        the one ``rng.integers(len(self))`` would pick, taken from PCG64's
        ``next_uint32`` without going through ``Generator.integers``."""
        return self.members[draw(len(self.members))]

    def index_range(self, lo: float, hi: float) -> tuple[int, int]:
        """Indices ``[start, stop)`` of the members with lo <= g2 <= hi."""
        return bisect_left(self._g2, lo), bisect_right(self._g2, hi)


# ---------------------------------------------------------------------------
# Variation
# ---------------------------------------------------------------------------

def _mutation_positions(n: int, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Flips of ``count`` offspring of standard bit mutation, each bit
    flipped independently w.p. 1/n.

    Returns ``(counts, positions)``: offspring i flips the ``counts[i]``
    distinct positions that follow those of the offspring before it in
    ``positions``. Sampling each flip count from Binomial(n, 1/n) and then
    a uniform k-subset of positions is distributionally identical to n
    independent coin flips, at O(k) cost.

    All counts come from one ``rng.binomial`` call and all positions from
    one ``rng.integers`` call. An offspring whose positions repeat takes
    ``rng.permutation(n)[:k]`` instead, so each offspring's positions are
    still a uniform k-subset.
    """
    counts = rng.binomial(n, 1.0 / n, size=count)
    positions = rng.integers(0, n, size=int(counts.sum()))
    keys = np.sort(np.repeat(np.arange(count, dtype=np.int64) * n, counts) + positions)
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if len(repeated):
        starts = np.cumsum(counts) - counts
        # A set, not np.unique, whose first call imports numpy.ma (1.7 MB).
        for i in sorted(set((repeated // n).tolist())):
            k = int(counts[i])
            positions[starts[i]:starts[i] + k] = rng.permutation(n)[:k]
    return counts, positions


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)

# GSEMO and SW-GSEMO draw the flips of this many iterations at once. NSGA-II
# draws max(1, _BLOCK // lambda) generations' picks, switches and flips at
# once, and its crossover coins at least this many at a time.
_BLOCK = 4096


def _spawn_child(
    parent: Individual, pos: list[int], n: int, expected_arr: np.ndarray, row_sizes: np.ndarray
) -> tuple[int, float, int]:
    """The child's (size, expected, gain), updated from the parent's after flips.

    Node p is selected in the parent when its state's byte ``n + p`` is set
    (see :class:`Individual`). The integer means keep ``expected`` an exact
    sum. ``row_sizes`` holds each node's closed-neighborhood size (its
    degree plus 1), and ``gain`` sums it over the added nodes. Coverage is
    monotone and submodular, so adding those nodes and removing the others
    covers at most ``gain`` nodes more than the parent: the child's g1, if
    feasible, is at most ``parent.g1 + gain``.
    """
    state = parent.state
    size, expected, gain = parent.size, parent.expected, 0
    for p in pos:
        weight = expected_arr.item(p)
        if state.item(n + p):
            size -= 1
            expected -= weight
        else:
            size += 1
            expected += weight
            gain += row_sizes.item(p)
    return size, expected, gain


# ---------------------------------------------------------------------------
# Sliding-window parent selection
# ---------------------------------------------------------------------------

def _window(t: int, t_max: int, budget: float) -> tuple[int, int]:
    """The weight window ``(floor(c), ceil(c))`` of iteration t, with
    ``c = (t / t_max) * budget``."""
    c_hat = (t / t_max) * budget
    return math.floor(c_hat), math.ceil(c_hat)


def _sliding_select(
    archive: ParetoArchive,
    t: int,
    t_max: int,
    budget: float,
    draw: Callable[[int], int],
) -> tuple[Individual, bool, int]:
    """Pick a parent from the sliding weight window.

    Candidates are the members whose g2 lies in the window
    ``[floor(c), ceil(c)]`` of :func:`_window`; ``draw`` (see
    :func:`_index_draw`) chooses one uniformly at random.
    Returns (parent, in_window, window occupancy). When the window is empty
    the best-coverage member below it is used instead (``in_window`` False),
    and past ``t_max`` selection reverts to uniform over the whole archive.

    A run calls it with t rising, so c never decreases: the archive's floor
    follows floor(c), and the members the window has passed drop their
    states (see :meth:`ParetoArchive.raise_floor`). The best member tops
    the staircase, so it keeps its state.
    """
    if t > t_max or t_max < 1:
        return archive.uniform_member(draw), False, 0
    lo, hi = _window(t, t_max, budget)
    if lo > archive.floor:
        archive.raise_floor(lo)
    i0, i1 = archive.index_range(lo, hi)
    occ = i1 - i0
    members = archive.members
    if occ > 0:
        # The window mostly holds one member; a bound-1 draw would draw
        # nothing anyway, so skip the call.
        return members[i0 if occ == 1 else i0 + draw(occ)], True, occ
    # Empty window: take the best-coverage member among those below it. The
    # staircase ordering makes that the last member with g2 <= floor(c);
    # g1 ties cannot occur between archive members. No member has
    # g2 == floor(c), since it would lie in the window, so that member
    # sits just before the window's start.
    if i0 == 0:
        # Unreachable while the empty selection (g2 = 0) stays archived;
        # fall back to uniform selection for totality.
        return archive.uniform_member(draw), False, 0
    return members[i0 - 1], False, 0


# ---------------------------------------------------------------------------
# Run configuration and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration of a single optimizer run."""

    algorithm: str
    t_max: int
    seed: tuple[int, ...] | int = 0
    regime: G2Regime = G2Regime.SURROGATE
    population: int = 20
    children: int = 10
    trace: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.t_max < 0:
            raise ValueError("t_max must be non-negative")
        if self.algorithm == "nsga2":
            if self.population < 1 or self.children < 1:
                raise ValueError("nsga2 needs positive population and children counts")
            if self.children > self.population:
                raise ValueError("children must not exceed population size")
            if self.trace:
                raise ValueError("traces are only recorded for archive-based algorithms")

    def seed_tuple(self) -> tuple[int, ...]:
        return (self.seed,) if isinstance(self.seed, int) else tuple(self.seed)


# One record per iteration of a traced archive-based run (row i is iteration
# i + 1): the parent's g2, the offspring's objectives, whether the archive
# took it, and whether the parent came from a window of how many members.
# An offspring the archive rejects at its coverage bound is not scored: its
# row holds g1 NaN. An iteration that flips no bit selects no parent: its
# row is _NO_PARENT, NaN objectives and parent_g2, accepted and in_window
# False, and window_count 0.
TRACE_DTYPE = np.dtype([
    ("parent_g2", np.float64),
    ("g1", np.float64),
    ("g2", np.float64),
    ("accepted", np.bool_),
    ("in_window", np.bool_),
    ("window_count", np.uint32),
])
_NO_PARENT = np.array((math.nan, math.nan, math.nan, False, False, 0), TRACE_DTYPE)[()]


@dataclass
class RunResult:
    """Outcome of one run: best feasible coverage plus archive statistics."""

    algorithm: str
    best_g1: float
    best_bits_hex: str
    archive_size: int
    peak_archive_size: int
    evaluations: int
    wall_time_s: float
    config: dict
    final_objectives: list[Objectives]
    trace: np.recarray | None

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "best_g1": self.best_g1,
            "best_individual_bits": self.best_bits_hex,
            "archive_size": self.archive_size,
            "peak_archive_size": self.peak_archive_size,
            "evaluations": self.evaluations,
            "wall_time_s": self.wall_time_s,
        }


def _config_echo(instance: Instance, cfg: RunConfig) -> dict:
    doc = {
        "instance": instance.name or None,
        "n": instance.graph.n,
        "weights": instance.weights.kind.value,
        "d": instance.weights.dispersion,
        "B": instance.budget,
        "alpha": instance.alpha,
        "surrogate": instance.surrogate.value,
        "algorithm": cfg.algorithm,
        "t_max": cfg.t_max,
        "seed": list(cfg.seed_tuple()),
        "regime": cfg.regime.value,
    }
    if instance.weights.uniform_mean is not None:
        doc["a"] = instance.weights.uniform_mean
    if cfg.algorithm == "nsga2":
        doc["population"] = cfg.population
        doc["children"] = cfg.children
    return doc


# ---------------------------------------------------------------------------
# GSEMO and SW-GSEMO
# ---------------------------------------------------------------------------

def _run_archive_loop(instance: Instance, cfg: RunConfig, evaluator: Evaluator, rng: np.random.Generator) -> tuple:
    """GSEMO, with sliding-window parent selection for ``sw-gsemo``.

    The flips of up to ``_BLOCK`` iterations are drawn at once, then each
    iteration that flips a bit draws its parent with ``rng``'s index draw
    (see :func:`_index_draw`). ``_sliding_select`` sees the iteration's own
    t: its window only moves up, so an iteration without flips that leaves
    it unraised changes nothing.
    """
    sliding = cfg.algorithm == "sw-gsemo"
    n = instance.graph.n
    expected_arr = instance.weights.expected
    budget = instance.budget
    t_max = cfg.t_max

    # The empty selection is feasible, as the budget is positive.
    g2, feasible = evaluator.constraint(0, 0.0)
    g1, state = evaluator.evaluate_from_stats(feasible, np.zeros(2 * n, dtype=np.uint8), [])
    root = Individual(state=state, size=0, expected=0.0, g1=g1, g2=g2)
    archive = ParetoArchive()
    archive.insert(root)
    best = root
    # A row the loop leaves as filled is an iteration that flipped no bit.
    trace = np.full(t_max, _NO_PARENT).view(np.recarray) if cfg.trace else None
    row_sizes = instance.graph.degrees + 1
    draw = _index_draw(rng)

    for start in range(0, t_max, _BLOCK):
        block = min(_BLOCK, t_max - start)
        counts, positions = _mutation_positions(n, rng, block)
        flips, positions = counts.tolist(), positions.tolist()
        # A zero-flip offspring is its parent: it counts as one evaluation
        # and changes nothing, so it draws no parent.
        steps = np.flatnonzero(counts).tolist()
        evaluator.evaluations += block - len(steps)
        end = 0
        for i in steps:
            t = start + i + 1
            k = flips[i]
            pos = positions[end:end + k]
            end += k
            if sliding:
                parent, in_window, occ = _sliding_select(archive, t, t_max, budget, draw)
            else:
                parent, in_window, occ = archive.uniform_member(draw), False, 0
            size, expected, gain = _spawn_child(parent, pos, n, expected_arr, row_sizes)
            g2, feasible = evaluator.constraint(size, expected)
            if feasible and archive.rejects(parent.g1 + gain, g2):
                # The archive rejects the child at its coverage bound, so at
                # its exact coverage too. A member then covers at least as
                # much, so the child is no new best either. It counts as one
                # evaluation.
                evaluator.evaluations += 1
                if trace is not None:
                    trace[t - 1] = (parent.g2, math.nan, g2, False, in_window, occ)
                continue
            g1, state = evaluator.evaluate_from_stats(feasible, parent.state, pos)
            child = Individual(state=state, size=size, expected=expected, g1=g1, g2=g2)
            accepted = archive.insert(child)
            if child.g1 > best.g1:
                best = child
            if trace is not None:
                trace[t - 1] = (parent.g2, child.g1, child.g2, accepted, in_window, occ)

    final = [Objectives(m.g1, m.g2) for m in archive.members]
    return best.g1, best.state[n:], len(archive), archive.peak_size, final, trace


# ---------------------------------------------------------------------------
# NSGA-II
# ---------------------------------------------------------------------------

def fast_nondominated_sort(g1: np.ndarray, g2: np.ndarray) -> list[np.ndarray]:
    """Fronts of indices for (maximize g1, minimize g2), best front first.

    One pass in order of g1 descending, then g2 ascending (Jensen 2003).
    Every earlier point has at least the current g1, so the point belongs
    to the first front whose last g2 exceeds its own; those last values
    ascend with the front index. Equal objective pairs are adjacent in that
    order and share a front. Each front lists its indices in ascending
    order.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    order = np.lexsort((g2, -g1))
    ranks = [0] * len(order)
    tails: list[float] = []
    last = None
    front = 0
    for i, a, b in zip(order.tolist(), g1[order].tolist(), g2[order].tolist()):
        if (a, b) != last:
            front = bisect_right(tails, b)
            if front == len(tails):
                tails.append(b)
            else:
                tails[front] = b
            last = (a, b)
        ranks[i] = front
    ranks = np.array(ranks, dtype=np.int64)
    members = np.argsort(ranks, kind="stable")
    ends = np.cumsum(np.bincount(ranks)).tolist()
    return [members[lo:hi] for lo, hi in zip([0] + ends, ends)]


def crowding_distance(g1: np.ndarray, g2: np.ndarray, front: np.ndarray) -> np.ndarray:
    """Crowding distances within one front; boundary points get +inf."""
    size = len(front)
    dist = np.zeros(size)
    if size <= 2:
        dist[:] = np.inf
        return dist
    for values in (np.asarray(g1, dtype=float)[front], np.asarray(g2, dtype=float)[front]):
        order = np.argsort(values, kind="stable")
        dist[order[0]] = dist[order[-1]] = np.inf
        span = values[order[-1]] - values[order[0]]
        if span > 0:
            dist[order[1:-1]] += (values[order[2:]] - values[order[:-2]]) / span
    return dist


def _tournament(rank: np.ndarray, crowd: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two rounds of binary tournaments on (rank asc, crowding desc); the
    first pick wins ties.

    ``picks`` holds one generation's drawn contestants, the rows a1, b1,
    a2, b2 of shape ``(4, count)``; round i pits ``a_i`` against ``b_i``.
    ``rank`` and ``crowd`` are gathered once over all four rows.
    """
    r, c = rank[picks], crowd[picks]
    b_wins = (r[1::2] < r[0::2]) | ((r[1::2] == r[0::2]) & (c[1::2] > c[0::2]))
    first, second = np.where(b_wins, picks[1::2], picks[0::2])
    return first, second


def _tagged(selections: list[np.ndarray], members: np.ndarray, tags: np.ndarray, n: int) -> np.ndarray:
    """Keys ``tag * n + node`` of each node of ``selections[member]``, one
    (member, tag) pair after the other."""
    chosen = [selections[j] for j in members.tolist()]
    return np.concatenate(chosen) + np.repeat(tags * n, [len(c) for c in chosen])


def _odd_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct keys that occur an odd number of times, sorted.

    Over key sets that each hold distinct keys, this is their symmetric
    difference: a bit flipped twice is not flipped.
    """
    keys = np.sort(keys)
    first = np.empty(len(keys) + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    starts = first.nonzero()[0]
    odd = (starts[1:] - starts[:-1]) % 2 == 1
    return keys[starts[:-1][odd]]


def _distinct_points(g1: np.ndarray, front: np.ndarray) -> int:
    """Distinct objective pairs in a non-dominated front.

    Two members of one front with equal g1 have equal g2 (otherwise one
    would dominate the other), so counting distinct g1 values suffices.
    """
    values = np.sort(g1[front])
    return 1 + int(np.count_nonzero(values[1:] != values[:-1]))


def _survivors(
    g1: np.ndarray, g2: np.ndarray, fronts: list[np.ndarray], mu: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, ranks and crowding distances of the mu survivors.

    Whole fronts are taken best first; the front that does not fit is cut
    to its members with the largest crowding distance (stable on ties).
    """
    chosen, ranks, crowd = [], [], []
    room = mu
    for front_index, front in enumerate(fronts):
        dist = crowding_distance(g1, g2, front)
        if len(front) > room:
            keep = np.argsort(-dist, kind="stable")[:room]
            front, dist = front[keep], dist[keep]
        chosen.append(front)
        ranks.append(np.full(len(front), front_index, dtype=np.int64))
        crowd.append(dist)
        room -= len(front)
        if room == 0:
            break
    return np.concatenate(chosen), np.concatenate(ranks), np.concatenate(crowd)


def _run_nsga2(instance: Instance, cfg: RunConfig, evaluator: Evaluator, rng: np.random.Generator) -> tuple:
    """(mu + lambda) NSGA-II on (maximize coverage, minimize g2).

    The population starts as mu copies of the empty selection and evolves for
    ``t_max // children`` generations so the offspring evaluations total
    t_max. Infeasible solutions take the g1 sentinel and need no extra
    constraint handling: every feasible point dominates them.

    Each member is the sorted array of its selected node ids. A generation's
    children are built as keys ``child * n + node``: a child is its first
    parent, flipped where uniform crossover takes the second parent's bits
    and where mutation flips, and all children are scored in one batch.

    The draws that do not depend on the population come a block of
    ``max(1, _BLOCK // children)`` generations at a time (the last block
    holds the generations left): first every tournament pick, then every
    crossover switch, then the flips of every child (see
    :func:`_mutation_positions`). The crossover coins, one per bit in
    which a crossing child's parents differ, come from a buffer of
    uniforms; when a generation needs more coins than the buffer has left,
    the rest is dropped and ``max(_BLOCK, need)`` new uniforms are drawn.
    """
    n = instance.graph.n
    mu, lam = cfg.population, cfg.children

    root_g1, root_g2 = evaluator.evaluate_groups(_EMPTY_POSITIONS, _EMPTY_POSITIONS, 1)
    population: list[np.ndarray] = [_EMPTY_POSITIONS] * mu
    pop_g1 = np.repeat(root_g1, mu)
    pop_g2 = np.repeat(root_g2, mu)
    rank = np.zeros(mu, dtype=np.int64)
    crowd = np.full(mu, np.inf)
    best_g1, best = float(root_g1[0]), _EMPTY_POSITIONS
    peak_tradeoffs = 1

    crossover_rate = 0.9
    child_ids = np.arange(lam, dtype=np.int64)
    generations = cfg.t_max // lam
    per_block = max(1, _BLOCK // lam)
    coins, used = np.empty(0), 0
    for start in range(0, generations, per_block):
        block = min(per_block, generations - start)
        picks = rng.integers(0, mu, size=(block, 4, lam))
        crossing = rng.random((block, lam)) < crossover_rate
        counts, positions = _mutation_positions(n, rng, block * lam)
        mutated = np.repeat(np.tile(child_ids * n, block), counts) + positions
        cuts = np.cumsum(counts.reshape(block, lam).sum(axis=1))[:-1]
        for g, flipped in enumerate(np.split(mutated, cuts)):
            parents_a, parents_b = _tournament(rank, crowd, picks[g])
            firsts = _tagged(population, parents_a, child_ids, n)
            # The bits in which each child's parents differ, ascending, as
            # np.flatnonzero(p1_bits != p2_bits) would list them; only those
            # of crossing children matter.
            diff = _odd_keys(np.concatenate([firsts, _tagged(population, parents_b, child_ids, n)]))
            diff = diff[crossing[g][diff // n]]
            # Uniform crossover flips p1's bits where p2's are taken: where
            # the bit's coin falls below 1/2.
            need = len(diff)
            if used + need > len(coins):
                coins, used = rng.random(max(_BLOCK, need)), 0
            taken = diff[coins[used:used + need] < 0.5]
            used += need
            keys = _odd_keys(np.concatenate([firsts, taken, flipped]))
            owners = keys // n
            nodes = keys - owners * n
            g1, g2 = evaluator.evaluate_groups(nodes, owners, lam)
            ends = np.searchsorted(owners, child_ids, side="right").tolist()
            children = [nodes[lo:hi] for lo, hi in zip([0] + ends, ends)]

            top = int(np.argmax(g1))
            if g1[top] > best_g1:
                best_g1, best = float(g1[top]), children[top]

            pool = population + children
            pool_g1 = np.concatenate([pop_g1, g1])
            pool_g2 = np.concatenate([pop_g2, g2])
            fronts = fast_nondominated_sort(pool_g1, pool_g2)
            peak_tradeoffs = max(peak_tradeoffs, _distinct_points(pool_g1, fronts[0]))
            chosen, rank, crowd = _survivors(pool_g1, pool_g2, fronts, mu)
            population = [pool[j] for j in chosen.tolist()]
            pop_g1, pop_g2 = pool_g1[chosen], pool_g2[chosen]

    # The survivors' rank 0 is their own first front: each survivor of a
    # later rank is dominated by a rank-0 survivor.
    front0 = np.flatnonzero(rank == 0)
    best_bits = np.zeros(n, dtype=np.uint8)
    best_bits[best] = 1
    final = [Objectives(float(pop_g1[i]), float(pop_g2[i])) for i in front0]
    return best_g1, best_bits, _distinct_points(pop_g1, front0), peak_tradeoffs, final, None


def run(instance: Instance, cfg: RunConfig) -> RunResult:
    """Run the configured algorithm and build its :class:`RunResult`.

    This is the one place a result is put together. It starts the clock and
    makes the seeded generator and the evaluator, then hands
    them to NSGA-II or to the archive loop, which selects parents uniformly
    (``gsemo``) or from the sliding window (``sw-gsemo``). A loop returns
    only what differs between them: the best g1 and its 0/1 selection, the
    final and peak archive (or first-front) size, the final objectives and
    the trace.
    """
    start = time.perf_counter()
    rng = make_rng(*cfg.seed_tuple())
    evaluator = Evaluator(instance, cfg.regime)
    loop = _run_nsga2 if cfg.algorithm == "nsga2" else _run_archive_loop
    best_g1, best_bits, size, peak, final, trace = loop(instance, cfg, evaluator, rng)
    return RunResult(
        algorithm=cfg.algorithm,
        best_g1=best_g1,
        best_bits_hex=np.packbits(best_bits).tobytes().hex(),  # big-endian, ceil(n/8) bytes
        archive_size=size,
        peak_archive_size=peak,
        evaluations=evaluator.evaluations,
        wall_time_s=time.perf_counter() - start,
        config=_config_echo(instance, cfg),
        final_objectives=final,
        trace=trace,
    )
