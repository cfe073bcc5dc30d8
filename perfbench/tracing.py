"""Spans and counts at the boundaries between ccsubmod's layers.

``install`` replaces the module and class attributes through which each
layer is called with timing wrappers; ``src/`` itself is not changed. Spans
are kept in flat in-memory arrays (name, parent, phase, start, end) and
written out once, at the end of the traced sample. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import builtins
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP, JOB = 0, 1


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_phase = SETUP
        self.counts: Counter = Counter()
        self.run_labels: dict[int, str] = {}
        self.written: list[str] = []

    def _begin(self, name: str) -> int:
        nid = self.name_id.setdefault(name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.phase.append(self.current_phase)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            sid = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(sid)
            if after is not None:
                after(sid, args, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        sid = self._begin(name)
        try:
            yield
        finally:
            self._finish(sid)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _run_label(cfg) -> str:
    return f"nsga2-{cfg.population}" if cfg.algorithm == "nsga2" else cfg.algorithm


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from ccsubmod import algorithms, chance, graphs, harness, problem

    c = rec.counts

    def patch(owner, attr: str, name: str, after=None) -> None:
        # A renamed or removed boundary must fail the traced run: its metrics
        # would otherwise read 0, which looks like a gain.
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__}.{attr} is gone; update the {name!r} boundary in tracing.py")
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(rec.wrap(name, original.__func__, after)))
        else:
            setattr(owner, attr, rec.wrap(name, original, after))

    def on_coverage(sid, args, out):
        k = len(args[1])
        c["coverage_nodes"] += k
        c["coverage_bytes"] += k * ((args[0].n + 63) // 64) * 8

    def on_evaluate(sid, args, out):
        c["infeasible"] += out[0] < 0

    def on_mutation(sid, args, out):
        c["flips"] += len(out)
        c["zero_flips"] += len(out) == 0

    def on_insert(sid, args, out):
        c["accepted"] += bool(out)
        c["archive_peak"] = max(c["archive_peak"], len(args[0]))

    def on_select(sid, args, out):
        c["window_hits"] += bool(out[1])

    def on_run(sid, args, out):
        rec.run_labels[sid] = _run_label(args[1])

    def counting_open(file, mode="r", *args, **kwargs):
        if "w" in mode or "a" in mode:
            rec.written.append(os.fspath(file))
        return builtins.open(file, mode, *args, **kwargs)

    patch(graphs, "load_graph", "graphs.load_graph")
    patch(harness, "load_graph", "graphs.load_graph")
    patch(graphs.Graph, "from_edges", "graphs.from_edges")
    patch(chance, "coverage_of_indices", "graphs.coverage", on_coverage)
    patch(chance.Evaluator, "evaluate_from_stats", "chance.evaluate", on_evaluate)
    patch(problem, "build_weights", "problem.build_weights")
    patch(harness, "build_weights", "problem.build_weights")
    patch(algorithms, "_mutation_positions", "algorithms.mutation", on_mutation)
    patch(algorithms, "_spawn_child", "algorithms.spawn")
    patch(algorithms.ParetoArchive, "insert", "algorithms.archive_insert", on_insert)
    patch(algorithms, "_sliding_select", "algorithms.window_select", on_select)
    patch(algorithms, "fast_nondominated_sort", "algorithms.nsga2_sort")
    patch(algorithms, "crowding_distance", "algorithms.nsga2_crowding")
    patch(algorithms, "run", "algorithms.run", on_run)
    patch(harness, "run", "harness.run", on_run)
    patch(harness, "emit_table", "harness.emit_table")
    patch(harness, "posthoc_marks", "stats.posthoc")
    harness.open = counting_open


def _durations(a: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each span's duration and self time."""
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - children


def layer_metrics(rec: Recorder, labels: tuple[str, ...]) -> dict[str, float]:
    """Per-layer totals over the job phase; graph loading as the median over
    the sample's set-ups."""
    a = rec.arrays()
    name, phase = a["name"], a["phase"]
    dur, self_time = _durations(a)
    ids = {n: i for i, n in enumerate(rec.names)}

    def mask(span: str, in_phase: int = JOB) -> np.ndarray:
        return (name == ids.get(span, -1)) & (phase == in_phase)

    def total(span: str, times=dur) -> float:
        return float(times[mask(span)].sum())

    def calls(span: str) -> int:
        return int(mask(span).sum())

    def share(part: float, whole: int) -> float:
        return part / whole if whole else 0.0

    c = rec.counts
    coverage_calls = calls("graphs.coverage")
    evaluate_calls = calls("chance.evaluate")
    mutation_calls = calls("algorithms.mutation")
    insert_calls = calls("algorithms.archive_insert")
    select_calls = calls("algorithms.window_select")
    run_spans = np.flatnonzero(mask("algorithms.run") | mask("harness.run"))
    loop_self = {label: 0.0 for label in labels}
    for sid in run_spans.tolist():
        loop_self[rec.run_labels[sid]] = loop_self.get(rec.run_labels[sid], 0.0) + float(self_time[sid])
    experiment = mask("harness.run_experiment") | mask("harness.resume")
    written = [p for p in rec.written if os.path.exists(p)]

    metrics = {
        "graphs.load_graph_s": float(np.median(dur[mask("graphs.load_graph", SETUP)])),
        "graphs.from_edges_s": float(np.median(dur[mask("graphs.from_edges", SETUP)])),
        "graphs.coverage_s": total("graphs.coverage"),
        "graphs.coverage_calls": coverage_calls,
        "graphs.coverage_us_per_call": 1e6 * share(total("graphs.coverage"), coverage_calls),
        "graphs.coverage_selected_nodes": c["coverage_nodes"],
        "graphs.coverage_bytes_computed": c["coverage_bytes"],
        "chance.evaluate_self_s": total("chance.evaluate", self_time),
        "chance.evaluate_calls": evaluate_calls,
        "chance.infeasible_share": share(c["infeasible"], evaluate_calls),
        "algorithms.mutation_s": total("algorithms.mutation"),
        "algorithms.mutation_calls": mutation_calls,
        "algorithms.zero_flip_share": share(c["zero_flips"], mutation_calls),
        "algorithms.flips_per_offspring": share(c["flips"], mutation_calls),
        "algorithms.spawn_s": total("algorithms.spawn"),
        "algorithms.archive_insert_s": total("algorithms.archive_insert"),
        "algorithms.archive_insert_calls": insert_calls,
        "algorithms.archive_accept_share": share(c["accepted"], insert_calls),
        "algorithms.archive_peak_size": c["archive_peak"],
        "algorithms.window_select_s": total("algorithms.window_select"),
        "algorithms.window_select_calls": select_calls,
        "algorithms.window_hit_share": share(c["window_hits"], select_calls),
        "algorithms.nsga2_sort_s": total("algorithms.nsga2_sort"),
        "algorithms.nsga2_crowding_s": total("algorithms.nsga2_crowding"),
        "problem.build_weights_s": total("problem.build_weights"),
        "harness.run_s": total("harness.run"),
        "harness.self_s": float(self_time[experiment].sum()),
        "harness.resume_s": total("harness.resume"),
        "harness.emit_table_s": total("harness.emit_table"),
        "harness.files_written": len(written),
        "harness.bytes_written": sum(os.path.getsize(p) for p in written),
        "stats.posthoc_s": total("stats.posthoc"),
        "trace.spans": len(dur),
    }
    for label, seconds in loop_self.items():
        metrics[f"algorithms.loop_self_s.{label}"] = seconds
    return metrics


def self_time_ranking(rec: Recorder) -> list[tuple[str, float]]:
    """Job-phase self time per span name, largest first."""
    a = rec.arrays()
    _, self_time = _durations(a)
    job = a["phase"] == JOB
    per_name = np.bincount(a["name"][job], weights=self_time[job], minlength=len(rec.names))
    ranking = [(rec.names[i], float(t)) for i, t in enumerate(per_name) if not rec.names[i].startswith("bench.")]
    return sorted(ranking, key=lambda item: -item[1])
