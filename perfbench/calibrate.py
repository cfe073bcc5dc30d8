"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/calibrate.py [--seeds 1-10] [--out FILE]

Every workload runs once per seed at ``BENCHMARK.json``'s ``run_seconds``.
For every workload and end-to-end metric it prints the median of the
per-seed values and the spread, the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound. ``--out`` appends the pass (machine, seeds,
values and that summary) to FILE's ``passes``, creating FILE if needed. When
FILE already holds a pass, each median is also reported as the share by
which it moved against the first one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"run_seconds": seconds, "command": bench["command"], "passes": []}
    if args.out and args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
        if (record["run_seconds"], record["command"]) != (seconds, bench["command"]):
            sys.stderr.write(f"{args.out} was taken with another run_seconds or command\n")
            return 2
    first = record["passes"][0]["values"] if record["passes"] else None

    values: dict[str, dict[str, list[float]]] = {}
    summary: dict[str, dict[str, dict]] = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        per_metric = values.setdefault(workload, {})
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.stderr.write(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
                return 1
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n{workload}")
        for name, vals in per_metric.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            entry = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bounds[name]}
            line = f"  {name:24s} median {med:14.6g}  spread {entry['spread']:7.4f}  bound {bounds[name]}"
            if first is not None:
                before = statistics.median(first[workload][name])
                entry["moved"] = (med - before) / before
                line += f"  moved {entry['moved']:+.4f}"
            summary.setdefault(workload, {})[name] = entry
            print(line, flush=True)

    if args.out:
        record["passes"].append({"machine": machine(), "seeds": args.seeds, "summary": summary, "values": values})
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
