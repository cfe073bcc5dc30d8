"""One benchmark sample, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/sample.py SPEC.json`` with ``src`` and
``perfbench`` on ``PYTHONPATH``. The spec names the workload, seed,
generated graph and whether to trace. The sample sets the instance up
``SETUP_REPEATS`` times, runs the workload's job, reads its peak memory,
then checks every run's output and prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import ALGORITHM_LABELS, WORKLOADS, grid_config, grid_label

from ccsubmod import algorithms, graphs, harness, problem
from ccsubmod.algorithms import RunConfig
from ccsubmod.problem import Instance, SurrogateKind

# Set-up is timed several times per sample; its median is the sample's setup_s.
SETUP_REPEATS = 3


def _setup(workload, graph_path: Path) -> Instance:
    graph = graphs.load_graph(graph_path)
    weights = problem.build_weights(graph, "iid", a=workload.a, d=workload.d)
    return Instance(
        graph=graph,
        weights=weights,
        budget=float(workload.budget),
        alpha=workload.alpha,
        surrogate=SurrogateKind.parse(workload.surrogate),
        name=workload.name,
    )


def _run_job(workload, instance: Instance, seed: int) -> list[dict]:
    """Each run of a run workload, timed from outside the call. The repeats of
    a run use the same seed, so ``main`` requires them to agree."""
    outcomes = []
    for index, spec in enumerate(workload.runs):
        cfg = RunConfig(
            algorithm=spec.algorithm,
            t_max=spec.t_max,
            seed=(seed, index),
            population=spec.population,
            children=spec.children,
        )
        for repeat in range(spec.repeats):
            start = time.perf_counter()
            result = algorithms.run(instance, cfg)
            outcomes.append({
                "label": spec.label,
                "repeat": repeat,
                "seconds": time.perf_counter() - start,
                "best_g1": result.best_g1,
                "bits_hex": result.best_bits_hex,
                "evaluations": result.evaluations,
                "check": dict(
                    algorithm=spec.algorithm, t_max=spec.t_max, children=spec.children,
                    weights="iid", a=workload.a, d=workload.d, budget=workload.budget,
                    alpha=workload.alpha, surrogate=workload.surrogate,
                    final_objectives=[tuple(o) for o in result.final_objectives],
                    archive_size=result.archive_size,
                ),
            })
    return outcomes


def _grid_job(graph_path: Path, seed: int, workers: int, out: Path, rec) -> tuple[list[dict], dict]:
    """A fresh experiment pass, then a resume pass over the stored files."""
    cfg = grid_config(graph_path, seed)
    span = rec.span if rec is not None else (lambda name: nullcontext())
    start = time.perf_counter()
    with span("harness.run_experiment"):
        fresh = harness.run_experiment(cfg, workers=workers, out_dir=out)
    with span("harness.resume"):
        resumed = harness.run_experiment(cfg, workers=workers, out_dir=out, resume=True)
    job_s = time.perf_counter() - start

    failures = [f"{e.get('cell_id', '?')}: {e.get('error')}" for e in fresh.errors + resumed.errors]
    if resumed.executed_runs:
        failures.append(f"resume recomputed {resumed.executed_runs} runs")
    if [c["best_g1"] for c in resumed.cells] != [c["best_g1"] for c in fresh.cells]:
        failures.append("resume pass changed the aggregated results")
    files = sorted((out / "runs").glob("*.json"))
    if len(files) != len(fresh.cells) * cfg.repetitions:
        failures.append(f"{len(files)} run files, expected {len(fresh.cells) * cfg.repetitions}")

    outcomes = []
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"))
        config = record["config"]
        outcomes.append({
            "label": grid_label(config),
            "repeat": 0,
            "seconds": record["wall_time_s"],
            "best_g1": record["best_g1"],
            "bits_hex": record["best_individual_bits"],
            "evaluations": record["evaluations"],
            "check": dict(
                algorithm=config["algorithm"], t_max=config["t_max"],
                children=config.get("children", 1), weights=config["weights"],
                a=config.get("a", 1), d=config["d"], budget=config["B"],
                alpha=config["alpha"], surrogate=config["surrogate"],
            ),
        })
    return outcomes, {"job_s": job_s, "job_runs": fresh.executed_runs, "failures": failures}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    graph_path = Path(spec["graph"])
    rec = tracing.Recorder() if spec["trace"] else None
    if rec is not None:
        tracing.install(rec)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        instance = None  # frees the previous set-up first, so peak memory holds one
        start = time.perf_counter()
        instance = _setup(workload, graph_path)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)

    if rec is not None:
        rec.current_phase = tracing.JOB
    if workload.is_grid:
        out = Path(spec["work_dir"]) / "grid"
        shutil.rmtree(out, ignore_errors=True)
        outcomes, job = _grid_job(graph_path, seed, spec["workers"], out, rec)
    else:
        start = time.perf_counter()
        outcomes = _run_job(workload, instance, seed)
        job = {"job_s": time.perf_counter() - start, "job_runs": len(outcomes), "failures": []}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run after the peak-memory reading, so the oracle's lists do not count.
    oracle = checks.Oracle(workload.graph.n, np.load(spec["edges"]))
    runs = []
    for o in outcomes:
        problems = checks.check_run(
            oracle, best_g1=o["best_g1"], bits_hex=o["bits_hex"], evaluations=o["evaluations"], **o["check"]
        )
        digest = checks.run_digest(o["best_g1"], o["bits_hex"], o["evaluations"])
        if o["repeat"] and digest != runs[-1]["digest"]:
            problems.append("differs from the previous repeat with the same seed")
        runs.append({k: o[k] for k in ("label", "repeat", "seconds", "best_g1", "evaluations")} | {"digest": digest, "problems": problems})

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "runs": runs,
        "digest": checks.combined_digest([r["digest"] for r in runs]),
        **job,
    }
    if rec is not None:
        layers = tracing.layer_metrics(rec, ALGORITHM_LABELS)
        bits = getattr(instance.graph, "closed_bits", None)
        layers["graphs.bitset_mb"] = bits.nbytes / 2**20 if bits is not None else 0.0
        result["layers"] = layers
        result["self_time_ranking"] = tracing.self_time_ranking(rec)[:6]
        rec.save(Path(spec["spans_out"]))
    if workload.is_grid:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
