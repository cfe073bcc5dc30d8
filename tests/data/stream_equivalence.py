"""Statistical gate for a declared change of the random stream.

A change that alters how runs draw their randomness cannot keep seeded
results bit-identical; it must instead leave their distribution unchanged.
This script runs the same seeded runs under a baseline revision and under
this checkout, each in its own process with its own ``src/`` on
``PYTHONPATH``, on one CSphd-size graph (``perfbench/graphgen.py``, n=1882).
For every (algorithm, weights, surrogate) cell it compares best_g1, the
final archive size and the peak archive size of the two sides with the
in-tree Kruskal-Wallis test, Bonferroni-corrected over all comparisons.

To show that the gate has power, it also runs this checkout with standard
bit mutation at rate 2/n (patched in here, not in ``src/``), which the gate
must flag. Run from the repository root:

    PYTHONPATH=src python tests/data/stream_equivalence.py --baseline REV [--out gate.json]

It exits 0 when the change passes and the 2/n variant is flagged, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median

import ccsubmod
from ccsubmod import Instance, RunConfig, SurrogateKind, algorithms, run
from ccsubmod.graphs import load_graph
from ccsubmod.problem import build_weights
from ccsubmod.stats import FAMILY_ALPHA, kruskal_wallis

ROOT = Path(__file__).resolve().parents[2]
METRICS = ("best_g1", "archive_size", "peak_archive_size")
# Seeds per side and cell, and the seed of the CSphd-size graph.
SEEDS = 30
GRAPH_SEED = 11


@dataclass(frozen=True)
class Cell:
    label: str
    algorithm: str
    t_max: int
    weights: str
    surrogate: str
    population: int = 20
    children: int = 10


def benchmark_cells() -> list[Cell]:
    """The csphd-runs workload's four runs under both weight models and
    both surrogates."""
    runs = [("gsemo", "gsemo", 10000, 20, 10), ("sw-gsemo", "sw-gsemo", 10000, 20, 10),
            ("nsga2-20", "nsga2", 5000, 20, 10), ("nsga2-100", "nsga2", 5000, 100, 50)]
    return [
        Cell(f"{label}/{weights}/{surrogate}", algorithm, t_max, weights, surrogate, population, children)
        for label, algorithm, t_max, population, children in runs
        for weights in ("iid", "degree")
        for surrogate in ("chebyshev", "chernoff")
    ]


@contextmanager
def doubled_mutation_rate():
    """Standard bit mutation at rate 2/n: the flip-count draw of
    ``algorithms._mutation_positions`` sees twice the rate it asks for."""
    sample = algorithms._mutation_positions

    class Doubled:
        def __init__(self, rng):
            self.rng = rng

        def binomial(self, n, p, size=None):
            return self.rng.binomial(n, min(1.0, 2.0 * p), size)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    algorithms._mutation_positions = lambda n, rng, count: sample(n, Doubled(rng), count)
    try:
        yield
    finally:
        algorithms._mutation_positions = sample


def collect(graph, budget: float, cells: list[Cell], seeds: int, base_seed: int = 18) -> dict:
    """``{cell label: {metric: [value per seed]}}``; repetition r of cell c
    runs with seed ``(base_seed, c, r)`` on either side."""
    samples = {}
    for index, cell in enumerate(cells):
        d = 0.5 if cell.weights == "iid" else 1.0
        instance = Instance(
            graph=graph, weights=build_weights(graph, cell.weights, a=1, d=d), budget=budget, alpha=0.1,
            surrogate=SurrogateKind.parse(cell.surrogate),
        )
        values = {metric: [] for metric in METRICS}
        for rep in range(seeds):
            cfg = RunConfig(algorithm=cell.algorithm, t_max=cell.t_max, seed=(base_seed, index, rep),
                            population=cell.population, children=cell.children)
            result = run(instance, cfg)
            for metric in METRICS:
                values[metric].append(float(getattr(result, metric)))
        samples[cell.label] = values
    return samples


def compare(baseline: dict, change: dict, family_alpha: float = FAMILY_ALPHA) -> dict:
    """Kruskal-Wallis test of every (cell, metric) pair of samples, judged
    at the Bonferroni level ``family_alpha / number of tests``."""
    rows = []
    for label in baseline:
        for metric in METRICS:
            a, b = baseline[label][metric], change[label][metric]
            h, p = kruskal_wallis([a, b])
            rows.append({"cell": label, "metric": metric, "baseline_median": median(a),
                         "change_median": median(b), "H": h, "p": p})
    threshold = family_alpha / len(rows)
    for row in rows:
        row["significant"] = row["p"] <= threshold
    return {"tests": len(rows), "threshold": threshold,
            "significant": sum(row["significant"] for row in rows), "rows": rows}


def _worker(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    graph = load_graph(spec["graph"])
    cells = [Cell(**c) for c in spec["cells"]]
    if spec["doubled"]:
        with doubled_mutation_rate():
            samples = collect(graph, spec["budget"], cells, spec["seeds"])
    else:
        samples = collect(graph, spec["budget"], cells, spec["seeds"])
    print(json.dumps({"module": ccsubmod.__file__, "samples": samples}))


def _run_side(tree: Path, spec: dict, work: Path) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, __file__, "--worker", str(spec_path)], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if (tree / "src").resolve() not in Path(out["module"]).resolve().parents:
        raise RuntimeError(f"ccsubmod came from {out['module']}, not from {tree / 'src'}")
    return out["samples"]


def _print_table(title: str, outcome: dict) -> None:
    print(f"{title}: {outcome['significant']} of {outcome['tests']} tests significant "
          f"at p <= {outcome['threshold']:.2e}")
    for row in outcome["rows"]:
        mark = "*" if row["significant"] else " "
        print(f"  {mark} {row['cell']:<28} {row['metric']:<18} {row['baseline_median']:>9.1f} "
              f"{row['change_median']:>9.1f}  H={row['H']:8.3f}  p={row['p']:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git revision of the baseline source tree")
    parser.add_argument("--out", type=Path, default=None, help="also write the tables as JSON")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.baseline:
        parser.error("--baseline is required")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import graphgen

    spec_graph = graphgen.CSPHD
    cells = benchmark_cells()
    revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.baseline],
                              capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="stream-gate-") as tmp:
        work = Path(tmp)
        baseline_tree = work / "baseline"
        baseline_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(baseline_tree)], input=archive, check=True)
        graph_path = work / "csphd.mtx"
        graphgen.write_mtx(graph_path, spec_graph.n, graphgen.generate(spec_graph, GRAPH_SEED))
        spec = {"graph": str(graph_path), "budget": float(spec_graph.n // 20),
                "cells": [asdict(c) for c in cells], "seeds": SEEDS, "doubled": False}
        baseline = _run_side(baseline_tree, spec, work)
        change = _run_side(ROOT, spec, work)
        doubled = _run_side(ROOT, {**spec, "doubled": True}, work)

    gate, power = compare(baseline, change), compare(baseline, doubled)
    _print_table(f"change against {revision}", gate)
    _print_table(f"2/n variant against {revision}", power)
    passed, flagged = gate["significant"] == 0, power["significant"] > 0
    print(f"gate: change {'passes' if passed else 'FAILS'}; 2/n variant {'flagged' if flagged else 'NOT flagged'}")
    if args.out:
        args.out.write_text(json.dumps({
            "baseline": revision, "seeds": SEEDS,
            "graph": {"generator": "perfbench/graphgen.py CSPHD", "n": spec_graph.n, "seed": GRAPH_SEED,
                      "budget": spec_graph.n // 20},
            "cells": [asdict(c) for c in cells], "family_alpha": FAMILY_ALPHA,
            "change": gate, "doubled_rate": power, "passed": passed, "variant_flagged": flagged,
        }, indent=1), encoding="utf-8")
    return 0 if passed and flagged else 1


if __name__ == "__main__":
    sys.exit(main())
