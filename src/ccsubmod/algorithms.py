"""Archive-based and population-based optimizers over bit-vector selections.

Three algorithms share the bi-objective fitness from :mod:`ccsubmod.chance`:

* ``gsemo``: keeps an archive of mutually non-dominated solutions, picks a
  parent uniformly at random, applies standard bit mutation, and inserts the
  offspring unless some member strictly dominates it (removing every member
  the offspring weakly dominates).
* ``sw-gsemo``: same loop, but the parent comes from a weight window
  ``[floor(c), ceil(c)]`` with ``c = (t / t_max) * B`` sliding linearly from
  0 to the budget over the run.
* ``nsga2``: classic (mu + lambda) NSGA-II with fast non-dominated sorting
  and crowding distance, binary-tournament parents, uniform crossover and
  the same bit mutation. Its members are sorted arrays of selected node
  ids, and each generation's children are bred and scored as one batch.

All runs start from the empty selection, are deterministic given their seed,
and spend exactly one fitness evaluation per offspring (plus one for the
initial individual).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .chance import Evaluator, G2Regime, Objectives
from .problem import Instance

__all__ = [
    "Individual",
    "ParetoArchive",
    "RunConfig",
    "RunResult",
    "Trace",
    "make_rng",
    "run",
]

ALGORITHMS = ("gsemo", "sw-gsemo", "nsga2")


def make_rng(*entropy: int) -> np.random.Generator:
    """Seeded PCG64 generator; the entropy tuple is mixed by SeedSequence.

    Repetition r of grid cell c under experiment seed s uses
    ``make_rng(s, c, r)``, which is the reproducibility contract for every
    published result file.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


@dataclass(slots=True)
class Individual:
    """A selection with its cached objectives.

    ``covered`` is the read-only covered mask of a feasible selection, from
    which a child's coverage is updated; it is None when the selection is
    infeasible.
    """

    bits: np.ndarray
    size: int
    expected: float
    g1: float
    g2: float
    covered: np.ndarray | None = None

    @property
    def obj(self) -> Objectives:
        return Objectives(self.g1, self.g2)

    def bits_hex(self) -> str:
        """Big-endian packed bit string as hex (ceil(n/8) bytes)."""
        return np.packbits(self.bits).tobytes().hex()


def bits_from_hex(hex_string: str, n: int) -> np.ndarray:
    """Inverse of :meth:`Individual.bits_hex`."""
    raw = np.frombuffer(bytes.fromhex(hex_string), dtype=np.uint8)
    return np.unpackbits(raw)[:n]


class ParetoArchive:
    """Mutually non-dominated individuals, sorted by g2.

    The contents always form a strict staircase (g2 and g1 both strictly
    increasing along the list) because any violation would be a dominance
    relation. There is at most one member per distinct g2 value; inserting an
    exact duplicate objective pair replaces the older member.
    """

    __slots__ = ("_g2", "_members", "peak_size")

    def __init__(self) -> None:
        self._g2: list[float] = []
        self._members: list[Individual] = []
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._members)

    @property
    def members(self) -> list[Individual]:
        """Members in g2-ascending order (read-only by convention)."""
        return self._members

    def objective_pairs(self) -> list[Objectives]:
        return [m.obj for m in self._members]

    def insert(self, ind: Individual) -> bool:
        """Insert unless strictly dominated; drop weakly dominated members.

        Returns True when the individual was accepted.
        """
        g2s = self._g2
        i = bisect_right(g2s, ind.g2) - 1
        if i >= 0:
            m = self._members[i]
            # The staircase makes m the best potential dominator: it has the
            # largest g1 among members with g2 <= ind.g2.
            if m.g1 >= ind.g1 and (m.g2 < ind.g2 or m.g1 > ind.g1):
                return False
        j = bisect_left(g2s, ind.g2)
        j2 = j
        nmem = len(g2s)
        while j2 < nmem and self._members[j2].g1 <= ind.g1:
            j2 += 1
        if j2 > j:
            del g2s[j:j2]
            del self._members[j:j2]
        g2s.insert(j, ind.g2)
        self._members.insert(j, ind)
        if len(g2s) > self.peak_size:
            self.peak_size = len(g2s)
        return True

    def uniform_member(self, rng: np.random.Generator) -> Individual:
        m = self._members
        return m[rng.integers(len(m))] if len(m) > 1 else m[0]

    def index_range(self, lo: float, hi: float) -> tuple[int, int]:
        """Indices ``[start, stop)`` of the members with lo <= g2 <= hi."""
        return bisect_left(self._g2, lo), bisect_right(self._g2, hi)

    def best(self) -> Individual:
        """Member with the largest g1 (the top of the staircase)."""
        return self._members[-1]


# ---------------------------------------------------------------------------
# Variation
# ---------------------------------------------------------------------------

def _mutation_positions(n: int, rng: np.random.Generator) -> np.ndarray:
    """Distinct positions to flip; each bit flips independently w.p. 1/n.

    Sampling the flip count from Binomial(n, 1/n) and then a uniform
    k-subset of positions is distributionally identical to n independent
    coin flips, at O(k) cost.
    """
    k = int(rng.binomial(n, 1.0 / n))
    if k == 0:
        return _EMPTY_POSITIONS
    if k == 1:
        return rng.integers(0, n, size=1)
    if k * (k - 1) >= n:
        return rng.permutation(n)[:k]
    while True:
        pos = rng.integers(0, n, size=k)
        if len(set(pos.tolist())) == k:
            return pos


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)


def _spawn_child(
    parent: Individual, pos: np.ndarray, expected_arr: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """Child bits and incrementally-updated (size, expected) after flips.

    The integer means and +1/-1 signs keep ``expected`` an exact sum.
    """
    bits = parent.bits.copy()
    old = bits[pos]
    bits[pos] = old ^ 1
    sign = _FLIP_SIGN[old]
    size = parent.size + int(sign.sum())
    expected = parent.expected + float(expected_arr[pos] @ sign)
    return bits, size, expected


_FLIP_SIGN = np.array([1, -1], dtype=np.int64)


def _offspring(
    evaluator: Evaluator, parent: Individual, pos: np.ndarray, expected_arr: np.ndarray
) -> Individual:
    """Scored child of ``parent`` with ``pos`` flipped.

    Its coverage is updated from the parent's covered mask when the parent
    has one, and computed from scratch otherwise.
    """
    bits, size, expected = _spawn_child(parent, pos, expected_arr)
    g1, g2, covered = evaluator.evaluate_from_stats(bits, size, expected, parent.covered, pos)
    bits.setflags(write=False)
    return Individual(bits=bits, size=size, expected=expected, g1=g1, g2=g2, covered=covered)


# ---------------------------------------------------------------------------
# Sliding-window parent selection
# ---------------------------------------------------------------------------

def _sliding_select(
    archive: ParetoArchive,
    t: int,
    t_max: int,
    budget: float,
    rng: np.random.Generator,
) -> tuple[Individual, bool, int]:
    """Pick a parent from the sliding weight window.

    With ``c = (t / t_max) * budget``, candidates are the members whose g2
    lies in ``[floor(c), ceil(c)]``; one is chosen uniformly at random.
    Returns (parent, in_window, window occupancy). When the window is empty
    the best-coverage member below it is used instead (``in_window`` False),
    and past ``t_max`` selection reverts to uniform over the whole archive.
    """
    if t > t_max or t_max < 1:
        return archive.uniform_member(rng), False, 0
    c_hat = (t / t_max) * budget
    lo = math.floor(c_hat)
    hi = math.ceil(c_hat)
    i0, i1 = archive.index_range(lo, hi)
    occ = i1 - i0
    members = archive.members
    if occ > 0:
        pick = i0 if occ == 1 else i0 + int(rng.integers(occ))
        return members[pick], True, occ
    # Empty window: take the best-coverage member among those below it. The
    # staircase ordering makes that the last member with g2 <= floor(c_hat);
    # g1 ties cannot occur between archive members. No member has
    # g2 == floor(c_hat), since it would lie in the window, so that member
    # sits just before the window's start.
    if i0 == 0:
        # Unreachable while the empty selection (g2 = 0) stays archived;
        # fall back to uniform selection for totality.
        return archive.uniform_member(rng), False, 0
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


@dataclass
class Trace:
    """Per-iteration record of an archive-based run (index i is iteration i+1)."""

    parent_g2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    accepted: np.ndarray
    in_window: np.ndarray
    window_count: np.ndarray

    @classmethod
    def zeros(cls, t_max: int) -> "Trace":
        """A record of t_max iterations, each filled in by :meth:`record`."""
        return cls(
            parent_g2=np.zeros(t_max),
            g1=np.zeros(t_max),
            g2=np.zeros(t_max),
            accepted=np.zeros(t_max, dtype=bool),
            in_window=np.zeros(t_max, dtype=bool),
            window_count=np.zeros(t_max, dtype=np.uint32),
        )

    def __len__(self) -> int:
        return len(self.g1)

    def record(self, t, parent_g2, g1, g2, accepted, in_window, occ) -> None:
        i = t - 1
        self.parent_g2[i] = parent_g2
        self.g1[i] = g1
        self.g2[i] = g2
        self.accepted[i] = accepted
        self.in_window[i] = in_window
        self.window_count[i] = occ


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
    final_objectives: list[Objectives] = field(default_factory=list)
    trace: Trace | None = None

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

def _empty_individual(evaluator: Evaluator, n: int) -> Individual:
    bits = np.zeros(n, dtype=np.uint8)
    bits.setflags(write=False)
    g1, g2, covered = evaluator.evaluate_from_stats(bits, 0, 0.0)
    return Individual(bits=bits, size=0, expected=0.0, g1=g1, g2=g2, covered=covered)


def _run_archive_loop(instance: Instance, cfg: RunConfig, sliding: bool) -> RunResult:
    start = time.perf_counter()
    rng = make_rng(*cfg.seed_tuple())
    evaluator = Evaluator(instance, cfg.regime)
    n = instance.graph.n
    expected_arr = instance.weights.expected
    budget = instance.budget
    t_max = cfg.t_max

    root = _empty_individual(evaluator, n)
    archive = ParetoArchive()
    archive.insert(root)
    best = root
    trace = Trace.zeros(t_max) if cfg.trace else None

    for t in range(1, t_max + 1):
        if sliding:
            parent, in_window, occ = _sliding_select(archive, t, t_max, budget, rng)
        else:
            parent, in_window, occ = archive.uniform_member(rng), False, 0
        pos = _mutation_positions(n, rng)
        if len(pos) == 0:
            # Offspring identical to parent: re-inserting the parent changes
            # nothing, but the iteration still counts as one evaluation.
            child = parent
            evaluator.evaluations += 1
        else:
            child = _offspring(evaluator, parent, pos, expected_arr)
        accepted = archive.insert(child)
        if child.g1 > best.g1:
            best = child
        if trace is not None:
            trace.record(t, parent.g2, child.g1, child.g2, accepted, in_window, occ)

    return RunResult(
        algorithm=cfg.algorithm,
        best_g1=best.g1,
        best_bits_hex=best.bits_hex(),
        archive_size=len(archive),
        peak_archive_size=archive.peak_size,
        evaluations=evaluator.evaluations,
        wall_time_s=time.perf_counter() - start,
        config=_config_echo(instance, cfg),
        final_objectives=archive.objective_pairs(),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# NSGA-II
# ---------------------------------------------------------------------------

def fast_nondominated_sort(g1: np.ndarray, g2: np.ndarray) -> list[np.ndarray]:
    """Fronts of indices for (maximize g1, minimize g2), best front first."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    n = len(g1)
    ge1 = g1[:, None] >= g1[None, :]
    le2 = g2[:, None] <= g2[None, :]
    neq = (g1[:, None] != g1[None, :]) | (g2[:, None] != g2[None, :])
    dom = ge1 & le2 & neq
    n_dom = dom.sum(axis=0)
    assigned = np.zeros(n, dtype=bool)
    fronts: list[np.ndarray] = []
    while not assigned.all():
        current = ~assigned & (n_dom == 0)
        idx = np.flatnonzero(current)
        fronts.append(idx)
        assigned[idx] = True
        n_dom = n_dom - dom[idx].sum(axis=0)
    return fronts


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


def _tournament(
    rank: np.ndarray, crowd: np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Binary tournaments on (rank asc, crowding desc); first pick wins ties."""
    a = rng.integers(0, len(rank), size=count)
    b = rng.integers(0, len(rank), size=count)
    b_wins = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (crowd[b] > crowd[a]))
    return np.where(b_wins, b, a)


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


def _run_nsga2(instance: Instance, cfg: RunConfig) -> RunResult:
    """(mu + lambda) NSGA-II on (maximize coverage, minimize g2).

    The population starts as mu copies of the empty selection and evolves for
    ``t_max // children`` generations so the offspring evaluations total
    t_max. Infeasible solutions take the g1 sentinel and need no extra
    constraint handling: every feasible point dominates them.

    Each member is the sorted array of its selected node ids. A generation's
    children are built as keys ``child * n + node``: a child is its first
    parent, flipped where uniform crossover takes the second parent's bits
    and where mutation flips, and all children are scored in one batch.
    """
    start = time.perf_counter()
    rng = make_rng(*cfg.seed_tuple())
    evaluator = Evaluator(instance, cfg.regime)
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
    child_starts = np.arange(lam + 1, dtype=np.int64) * n
    for _ in range(cfg.t_max // lam):
        parents_a = _tournament(rank, crowd, rng, lam)
        parents_b = _tournament(rank, crowd, rng, lam)
        do_cross = rng.random(lam) < crossover_rate
        firsts = _tagged(population, parents_a, child_ids, n)
        # The bits in which each child's parents differ, ascending, as
        # np.flatnonzero(p1_bits != p2_bits) would list them.
        diff = _odd_keys(np.concatenate([firsts, _tagged(population, parents_b, child_ids, n)]))
        bounds = np.searchsorted(diff, child_starts).tolist()
        flips = [firsts]
        for i, cross in enumerate(do_cross.tolist()):
            if cross:
                # Uniform crossover flips p1's bits where p2's are taken.
                d = diff[bounds[i] : bounds[i + 1]]
                flips.append(d[rng.random(len(d)) < 0.5])
            pos = _mutation_positions(n, rng)
            if len(pos):
                flips.append(pos + i * n)
        keys = _odd_keys(np.concatenate(flips))
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

    front0 = fast_nondominated_sort(pop_g1, pop_g2)[0]
    best_bits = np.zeros(n, dtype=np.uint8)
    best_bits[best] = 1

    return RunResult(
        algorithm="nsga2",
        best_g1=best_g1,
        best_bits_hex=np.packbits(best_bits).tobytes().hex(),
        archive_size=_distinct_points(pop_g1, front0),
        peak_archive_size=peak_tradeoffs,
        evaluations=evaluator.evaluations,
        wall_time_s=time.perf_counter() - start,
        config=_config_echo(instance, cfg),
        final_objectives=[Objectives(float(pop_g1[i]), float(pop_g2[i])) for i in front0],
    )


def run(instance: Instance, cfg: RunConfig) -> RunResult:
    """Run the configured algorithm: NSGA-II, or the archive loop with
    uniform (``gsemo``) or sliding-window (``sw-gsemo``) parent selection."""
    if cfg.algorithm == "nsga2":
        return _run_nsga2(instance, cfg)
    return _run_archive_loop(instance, cfg, sliding=cfg.algorithm == "sw-gsemo")
