"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's graph from the seed,
then runs samples, each in a fresh ``python3 perfbench/sample.py`` process,
until ``--seconds`` have passed (at least ``MIN_SAMPLES``). With
``--trace 0`` it prints the end-to-end metrics as medians over the samples;
with ``--trace 1`` it alternates untraced and traced samples and prints the
per-layer metrics of the traced ones plus the tracing overhead. The last
line of standard output is one JSON object. Scratch files live under
``.perfbench/`` in the repository root; span dumps stay in
``.perfbench/spans/<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import graphgen
from workloads import ALGORITHM_LABELS, GRID_WORKERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MIN_SAMPLES = 3
# Keeps a whole invocation under three minutes even when a sample hangs.
SAMPLE_TIMEOUT_S = 90
MAX_OVERRUN_S = 30


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CCSUBMOD_WORKERS", None)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _check_program() -> None:
    """Fail before measuring unless ccsubmod imports from this checkout's src/."""
    probe = subprocess.run(
        [sys.executable, "-c", "import ccsubmod; print(ccsubmod.__file__)"],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    found = Path(probe.stdout.strip()).resolve() if probe.returncode == 0 else None
    if found is None or ROOT / "src" not in found.parents:
        sys.stderr.write(f"cannot import ccsubmod from {ROOT / 'src'}:\n{probe.stdout}{probe.stderr}")
        sys.exit(2)


def _run_sample(spec: dict, spec_path: Path) -> dict | None:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), str(spec_path)],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its own process group, so grid workers die with it
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"sample timed out after {SAMPLE_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"sample exited with {proc.returncode}:\n{err}")
        return None
    return json.loads(out.strip().splitlines()[-1])


def _evals_per_s(samples: list[dict], label: str, grid: bool) -> float:
    """Median rate over single runs; over each sample's whole column on the grid,
    whose runs are too short to time one by one."""
    if grid:
        rates = []
        for s in samples:
            runs = [r for r in s["runs"] if r["label"] == label]
            rates.append(sum(r["evaluations"] for r in runs) / sum(r["seconds"] for r in runs))
    else:
        rates = [r["evaluations"] / r["seconds"] for s in samples for r in s["runs"] if r["label"] == label]
    return statistics.median(rates)


def _end_to_end(samples: list[dict], grid: bool) -> dict[str, float]:
    median = statistics.median
    metrics = {
        "setup_s": median([s["setup_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "runs_per_s": median([s["job_runs"] / s["job_s"] for s in samples]),
        "mean_best_g1": statistics.fmean(r["best_g1"] for r in samples[0]["runs"] if r["repeat"] == 0),
    }
    for label in ALGORITHM_LABELS:
        metrics[f"evals_per_s.{label}"] = _evals_per_s(samples, label, grid)
    return metrics


def _per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    metrics = {name: statistics.median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
    job_s = [statistics.median(s["job_s"] for s in group) for group in (traced, untraced)]
    metrics["trace.overhead_share"] = job_s[0] / job_s[1] - 1
    return metrics


def _with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """The declared metrics, in declared order, each with its declared unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    _check_program()

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    (base / "spans").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=base))
    try:
        edges = graphgen.generate(workload.graph, args.seed)
        graph_path = work / f"{workload.graph.name}.mtx"
        graphgen.write_mtx(graph_path, workload.graph.n, edges)
        np.save(work / "edges.npy", edges)
        degree = np.bincount(edges.ravel(), minlength=workload.graph.n)
        print(
            f"graph {workload.graph.name}: n={workload.graph.n} m={len(edges)} "
            f"max_degree={int(degree.max())} seed={args.seed}"
        )

        untraced: list[dict] = []
        traced: list[dict] = []
        attempted = failed = 0
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            want_trace = bool(args.trace) and len(traced) < len(untraced)
            spec = {
                "workload": workload.name,
                "seed": args.seed,
                "graph": str(graph_path),
                "edges": str(work / "edges.npy"),
                "trace": want_trace,
                # Traced samples and their untraced counterparts share one worker.
                "workers": 1 if args.trace else GRID_WORKERS,
                "work_dir": str(work),
                "spans_out": str(base / "spans" / f"{workload.name}.npz"),
            }
            sample = _run_sample(spec, work / "spec.json")
            if sample is None:  # a crashed sample counts as one failed operation
                attempted += 1
                failed += 1
            else:
                attempted += len(sample["runs"]) + len(sample["failures"])
                failed += sum(1 for r in sample["runs"] if r["problems"]) + len(sample["failures"])
                for r in sample["runs"]:
                    for problem in r["problems"]:
                        sys.stderr.write(f"check failed: {r['label']}: {problem}\n")
                for problem in sample["failures"]:
                    sys.stderr.write(f"check failed: {problem}\n")
                (traced if want_trace else untraced).append(sample)
            done = len(untraced) + len(traced)
            now = time.perf_counter()
            enough = len(untraced) >= MIN_SAMPLES and (not args.trace or traced)
            if (enough and now + (now - start) / done > deadline) or now > deadline + MAX_OVERRUN_S:
                break

        samples = untraced + traced
        if not untraced or (args.trace and not traced):
            sys.stderr.write("no sample completed\n")
            return 1
        digests = {s["digest"] for s in samples}
        print(f"digest {workload.name} seed={args.seed} {' '.join(sorted(digests))}")
        if len(digests) > 1:
            sys.stderr.write(f"samples disagree on the run digests: {sorted(digests)}\n")
            mismatched = [s for s in samples if s["digest"] != samples[0]["digest"]]
            failed += sum(len(s["runs"]) for s in mismatched)
        if args.trace:
            for name, seconds in traced[-1]["self_time_ranking"]:
                print(f"self time {name}: {seconds:.4f} s")
            metrics = _with_units(_per_layer(traced, untraced), BENCH["per_layer"])
        else:
            metrics = _with_units(_end_to_end(untraced, workload.is_grid), BENCH["end_to_end"])
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
