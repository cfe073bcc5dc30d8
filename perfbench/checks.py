"""Output checks for every run, computed from the benchmark's own inputs.

Nothing here calls into ``ccsubmod``: coverage is recomputed as a set union
over the generated edge list, and the surrogate weight from its closed form.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class Oracle:
    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        self.neighbours: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges.tolist():
            self.neighbours[u].append(v)
            self.neighbours[v].append(u)
        self.degree = np.bincount(edges.ravel(), minlength=n)

    def coverage(self, nodes: np.ndarray) -> int:
        covered = set(nodes.tolist())
        for v in nodes.tolist():
            covered.update(self.neighbours[v])
        return len(covered)

    def decode(self, bits_hex: str) -> np.ndarray:
        """Selected node ids of a big-endian packed bit string."""
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(bits_hex), dtype=np.uint8))
        if len(bits) != 8 * ((self.n + 7) // 8) or bits[self.n:].any():
            raise ValueError("bit string does not match the graph size")
        return np.flatnonzero(bits[: self.n])


def tail_coefficient(surrogate: str, alpha: float, d: float) -> float:
    if surrogate == "chebyshev":
        return math.sqrt((1.0 - alpha) / alpha * d * d / 3.0)
    if surrogate == "chernoff":
        return math.sqrt(3.0 * d * math.log(1.0 / alpha))
    raise ValueError(f"unknown surrogate {surrogate!r}")


def expected_evaluations(algorithm: str, t_max: int, children: int) -> int:
    if algorithm == "nsga2":
        return (t_max // children) * children + 1
    return t_max + 1


def check_run(
    oracle: Oracle,
    *,
    algorithm: str,
    t_max: int,
    children: int,
    weights: str,
    a: int,
    d: float,
    budget: float,
    alpha: float,
    surrogate: str,
    best_g1: float,
    bits_hex: str,
    evaluations: int,
    final_objectives: list | None = None,
    archive_size: int | None = None,
) -> list[str]:
    """Reasons the run's output is wrong; empty when every check holds."""
    problems = []
    nodes = oracle.decode(bits_hex)
    if oracle.coverage(nodes) != best_g1:
        problems.append(f"best_g1 {best_g1} != recomputed coverage {oracle.coverage(nodes)}")
    # Any model other than iid has per-node means degree(v) + 1.
    means = np.full(len(nodes), a) if weights == "iid" else oracle.degree[nodes] + 1
    weight = float(means.sum()) + tail_coefficient(surrogate, alpha, d) * math.sqrt(len(nodes))
    if weight > budget * (1.0 + 1e-12):
        problems.append(f"surrogate weight {weight} of the best selection exceeds B={budget}")
    want = expected_evaluations(algorithm, t_max, children)
    if evaluations != want:
        problems.append(f"{evaluations} evaluations, expected {want}")
    if final_objectives is not None:
        pairs = [(float(g1), float(g2)) for g1, g2 in final_objectives]
        if algorithm == "nsga2":
            # The first front may hold copies of one point; distinct points count.
            pairs = sorted(set(pairs), key=lambda p: p[1])
            if archive_size is not None and len(pairs) != archive_size:
                problems.append(f"{len(pairs)} distinct front points, reported {archive_size}")
        elif pairs and pairs[-1][0] != best_g1:
            problems.append(f"archive top {pairs[-1][0]} != best_g1 {best_g1}")
        for (g1a, g2a), (g1b, g2b) in zip(pairs, pairs[1:]):
            if not (g1a < g1b and g2a < g2b):
                problems.append(f"objectives not a strict staircase at {(g1a, g2a)}, {(g1b, g2b)}")
                break
    return problems


def run_digest(best_g1: float, bits_hex: str, evaluations: int) -> str:
    return hashlib.sha256(f"{best_g1!r}|{bits_hex}|{evaluations}".encode()).hexdigest()[:16]


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]
