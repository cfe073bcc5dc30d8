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
  the same bit mutation.

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
    infeasible or was never scored.
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
        if len(np.unique(pos)) == k:
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


def _run_nsga2(instance: Instance, cfg: RunConfig) -> RunResult:
    """(mu + lambda) NSGA-II on (maximize coverage, minimize g2).

    The population starts as mu copies of the empty selection and evolves for
    ``t_max // children`` generations so the offspring evaluations total
    t_max. Infeasible solutions take the g1 sentinel and need no extra
    constraint handling: every feasible point dominates them.
    """
    start = time.perf_counter()
    rng = make_rng(*cfg.seed_tuple())
    evaluator = Evaluator(instance, cfg.regime)
    n = instance.graph.n
    expected_arr = instance.weights.expected
    mu, lam = cfg.population, cfg.children

    root = _empty_individual(evaluator, n)
    population: list[Individual] = [root] * mu
    rank = np.zeros(mu, dtype=np.int64)
    crowd = np.full(mu, np.inf)
    best = root
    peak_tradeoffs = 1

    crossover_rate = 0.9
    generations = cfg.t_max // lam
    for _ in range(generations):
        children: list[Individual] = []
        parents_a = _tournament(rank, crowd, rng, lam)
        parents_b = _tournament(rank, crowd, rng, lam)
        do_cross = rng.random(lam) < crossover_rate
        for i in range(lam):
            p1 = base = population[parents_a[i]]
            if do_cross[i]:
                p2 = population[parents_b[i]]
                diff = np.flatnonzero(p1.bits != p2.bits)
                take = diff[rng.random(len(diff)) < 0.5]
                if len(take):
                    # Uniform crossover flips p1's bits where p2's are taken.
                    # The result has no covered mask, so its coverage is
                    # recomputed.
                    bits, size, expected = _spawn_child(p1, take, expected_arr)
                    base = Individual(bits=bits, size=size, expected=expected, g1=0.0, g2=0.0)
            pos = _mutation_positions(n, rng)
            if len(pos) == 0 and base is p1:
                child = p1
                evaluator.evaluations += 1
            else:
                child = _offspring(evaluator, base, pos, expected_arr)
            if child.g1 > best.g1:
                best = child
            children.append(child)

        pool = population + children
        pool_g1 = np.array([ind.g1 for ind in pool])
        pool_g2 = np.array([ind.g2 for ind in pool])
        fronts = fast_nondominated_sort(pool_g1, pool_g2)
        front0 = fronts[0]
        distinct = len({(pool_g1[i], pool_g2[i]) for i in front0})
        peak_tradeoffs = max(peak_tradeoffs, distinct)

        new_pop: list[Individual] = []
        new_rank: list[int] = []
        new_crowd: list[float] = []
        for front_index, front in enumerate(fronts):
            dist = crowding_distance(pool_g1, pool_g2, front)
            if len(new_pop) + len(front) <= mu:
                chosen = np.arange(len(front))
            else:
                chosen = np.argsort(-dist, kind="stable")[: mu - len(new_pop)]
            for c in chosen:
                new_pop.append(pool[front[c]])
                new_rank.append(front_index)
                new_crowd.append(dist[c])
            if len(new_pop) >= mu:
                break
        population = new_pop
        rank = np.array(new_rank, dtype=np.int64)
        crowd = np.array(new_crowd)

    final_g1 = np.array([ind.g1 for ind in population])
    final_g2 = np.array([ind.g2 for ind in population])
    front0 = fast_nondominated_sort(final_g1, final_g2)[0]
    final_tradeoffs = len({(final_g1[i], final_g2[i]) for i in front0})

    return RunResult(
        algorithm="nsga2",
        best_g1=best.g1,
        best_bits_hex=best.bits_hex(),
        archive_size=final_tradeoffs,
        peak_archive_size=peak_tradeoffs,
        evaluations=evaluator.evaluations,
        wall_time_s=time.perf_counter() - start,
        config=_config_echo(instance, cfg),
        final_objectives=[Objectives(float(final_g1[i]), float(final_g2[i])) for i in front0],
    )


def run(instance: Instance, cfg: RunConfig) -> RunResult:
    """Run the configured algorithm: NSGA-II, or the archive loop with
    uniform (``gsemo``) or sliding-window (``sw-gsemo``) parent selection."""
    if cfg.algorithm == "nsga2":
        return _run_nsga2(instance, cfg)
    return _run_archive_loop(instance, cfg, sliding=cfg.algorithm == "sw-gsemo")
