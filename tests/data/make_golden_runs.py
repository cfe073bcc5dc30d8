"""Regenerate golden_runs.json: exact results of seeded optimizer runs.

Every field of a run that depends on the random stream or on the coverage
arithmetic is pinned, so tests/test_golden.py fails on any change to
either. Each case stores the inputs that rebuild it. Run from the
repository root:

    PYTHONPATH=src python tests/data/make_golden_runs.py
"""

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from conftest import random_sparse_graph  # noqa: E402

from ccsubmod import G2Regime, Instance, RunConfig, SurrogateKind, run  # noqa: E402
from ccsubmod.problem import build_weights  # noqa: E402

OUT = Path(__file__).parent / "golden_runs.json"

# (n, m, graph seed, budget, t_max): small graphs see many removals, the
# large one long rows and a wide selection.
GRAPHS = [
    (40, 80, 101, 12.0, 1500),
    (300, 600, 102, 40.0, 1500),
    (2000, 4000, 103, 120.0, 1000),
]
ALGORITHMS = ("gsemo", "sw-gsemo", "nsga2")
SURROGATES = ("chebyshev", "chernoff")
REGIMES = ("surrogate-g2", "expected-g2")
WEIGHTS = ("iid", "degree")
ALPHA = 0.1
D = 0.5


# NSGA-II cases beyond the grid: (label, graph index, surrogate, regime,
# weights, alpha, t_max, population, children). They cover a large
# population, mu = lambda, a t_max that lambda does not divide, and a tight
# Chernoff bound under which most children are infeasible.
NSGA2_CASES = [
    ("mu100-lam50", 1, "chebyshev", "surrogate-g2", "iid", ALPHA, 1500, 100, 50),
    ("mu100-lam50", 2, "chernoff", "expected-g2", "degree", ALPHA, 1000, 100, 50),
    ("mu-eq-lam", 0, "chebyshev", "surrogate-g2", "degree", ALPHA, 1500, 10, 10),
    ("mu-eq-lam", 1, "chernoff", "expected-g2", "iid", ALPHA, 1500, 20, 20),
    ("tmax-not-multiple", 1, "chebyshev", "expected-g2", "degree", ALPHA, 1497, 20, 10),
    ("tmax-not-multiple", 2, "chebyshev", "surrogate-g2", "iid", ALPHA, 1000, 30, 7),
    ("tight-chernoff", 0, "chernoff", "surrogate-g2", "degree", 0.001, 1500, 20, 10),
    ("tight-chernoff", 1, "chernoff", "expected-g2", "degree", 0.001, 1500, 20, 10),
]

# Tiny graphs, run by every algorithm under both surrogates: (n, m, graph
# seed, budget, t_max, weights, regime). At n <= 12 mutation often draws
# k with k*(k-1) >= n (the permutation branch) and redraws repeated
# positions, and NSGA-II pools hold many tied and duplicate points.
TINY_GRAPHS = [
    (10, 10, 104, 6.0, 1500, "iid", "surrogate-g2"),
    (12, 14, 105, 12.0, 1500, "degree", "expected-g2"),
]

# Long NSGA-II runs on the n = 2000 graph under a wide budget: (label,
# surrogate, regime, budget, t_max, population, children). Selections grow
# to many dozens of nodes (hundreds at mu = 20), and about one crossing
# child in ten has parents that agree on every bit.
LONG_NSGA2_CASES = [
    ("long-mu100-lam50", "chebyshev", "surrogate-g2", 400.0, 20000, 100, 50),
    ("long-mu20-lam10", "chernoff", "expected-g2", 400.0, 20000, 20, 10),
]


def cases() -> list[dict]:
    out = []
    for (n, m, graph_seed, budget, t_max), combo in itertools.product(
        GRAPHS, itertools.product(ALGORITHMS, SURROGATES, REGIMES, WEIGHTS)
    ):
        algorithm, surrogate, regime, weights = combo
        out.append({
            "n": n, "m": m, "graph_seed": graph_seed, "weights": weights, "d": D,
            "B": budget, "alpha": ALPHA, "surrogate": surrogate, "algorithm": algorithm,
            "regime": regime, "t_max": t_max, "seed": [graph_seed, len(out)],
            "population": 20, "children": 10,
        })
    for label, g, surrogate, regime, weights, alpha, t_max, population, children in NSGA2_CASES:
        n, m, graph_seed, budget, _ = GRAPHS[g]
        out.append({
            "n": n, "m": m, "graph_seed": graph_seed, "weights": weights, "d": D,
            "B": budget, "alpha": alpha, "surrogate": surrogate, "algorithm": "nsga2",
            "regime": regime, "t_max": t_max, "seed": [graph_seed, len(out)],
            "population": population, "children": children, "label": label,
        })
    for (n, m, graph_seed, budget, t_max, weights, regime), algorithm, surrogate in itertools.product(
        TINY_GRAPHS, ALGORITHMS, SURROGATES
    ):
        out.append({
            "n": n, "m": m, "graph_seed": graph_seed, "weights": weights, "d": D,
            "B": budget, "alpha": ALPHA, "surrogate": surrogate, "algorithm": algorithm,
            "regime": regime, "t_max": t_max, "seed": [graph_seed, len(out)],
            "population": 20, "children": 10,
        })
    n, m, graph_seed, _, _ = GRAPHS[2]
    for label, surrogate, regime, budget, t_max, population, children in LONG_NSGA2_CASES:
        out.append({
            "n": n, "m": m, "graph_seed": graph_seed, "weights": "iid", "d": D,
            "B": budget, "alpha": ALPHA, "surrogate": surrogate, "algorithm": "nsga2",
            "regime": regime, "t_max": t_max, "seed": [graph_seed, len(out)],
            "population": population, "children": children, "label": label,
        })
    return out


def run_case(case: dict) -> dict:
    """The pinned fields of one case's run."""
    graph = random_sparse_graph(case["n"], case["m"], seed=case["graph_seed"])
    instance = Instance(
        graph=graph,
        weights=build_weights(graph, case["weights"], d=case["d"]),
        budget=case["B"],
        alpha=case["alpha"],
        surrogate=SurrogateKind.parse(case["surrogate"]),
    )
    cfg = RunConfig(
        algorithm=case["algorithm"], t_max=case["t_max"], seed=tuple(case["seed"]),
        regime=G2Regime.parse(case["regime"]),
        population=case["population"], children=case["children"],
    )
    result = run(instance, cfg)
    return {
        "best_g1": result.best_g1,
        "best_bits_hex": result.best_bits_hex,
        "evaluations": result.evaluations,
        "archive_size": result.archive_size,
        "peak_archive_size": result.peak_archive_size,
        "final_objectives": [[o.g1, o.g2] for o in result.final_objectives],
    }


def main() -> None:
    fixtures = [{"case": case, "result": run_case(case)} for case in cases()]
    with open(OUT, "w") as fh:
        json.dump(fixtures, fh, indent=1)
    print(f"wrote {len(fixtures)} golden runs to {OUT}")


if __name__ == "__main__":
    main()
