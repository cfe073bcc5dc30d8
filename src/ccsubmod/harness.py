"""Experiment grids: run, persist, aggregate, and tabulate benchmark results.

A grid config (JSON) names instances (graph file plus weight/budget/alpha/
surrogate lists), algorithm templates, iteration budgets, and a repetition
count. Every (cell, repetition) produces one result file under
``<output_dir>/runs/``, so interrupted experiments resume by recomputing only
the runs whose file is missing, unreadable, or was made by another run
configuration. Every JSON file is written to a temp file and then moved
into place. Aggregation writes ``results.json`` plus benchmark-style
comparison tables (``table.csv`` / ``table.md``) with Kruskal-Wallis gated,
Bonferroni-corrected pairwise marks.

Grids and :func:`run_repetitions` share one execution path: the caller
builds the instances and run configs, each pool worker receives the
instances once through its initializer, every run's exception (or a dead
worker) comes back as that run's error string, and outcomes arrive in task
order. Run files are written by the calling process as each outcome
arrives.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .algorithms import RunConfig, RunResult, _config_echo, run
from .chance import G2Regime
from .graphs import Graph, load_graph
from .problem import Instance, SurrogateKind, WeightModel, build_weights, default_budgets
from .stats import posthoc_marks

__all__ = [
    "ExperimentConfig",
    "ResultSet",
    "run_experiment",
    "run_repetitions",
    "emit_table",
    "emit_trace",
    "load_experiment_config",
]

DEFAULT_REPETITIONS = 30


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm column of the experiment grid."""

    algorithm: str
    regime: str = "surrogate-g2"
    population: int = 20
    children: int = 10
    label: str = ""

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        if self.algorithm == "nsga2":
            return f"NSGA-II-{self.population}"
        return self.algorithm.upper()


@dataclass(frozen=True)
class InstanceSpec:
    """One instance family: a graph with weight model and grid axes."""

    graph: str
    weights: str = "iid"
    a: int = 1
    d: float = 0.5
    budgets: tuple | str = "grid"
    alphas: tuple = (0.1, 0.001)
    surrogates: tuple = ("chebyshev", "chernoff")
    name: str = ""

    def resolved_name(self) -> str:
        return self.name or Path(self.graph).stem


@dataclass
class ExperimentConfig:
    instances: list[InstanceSpec]
    algorithms: list[AlgorithmSpec]
    t_max: list[int]
    repetitions: int = DEFAULT_REPETITIONS
    base_seed: int = 0
    output_dir: str = "results"
    name: str = "experiment"

    def validate(self) -> None:
        if not self.instances or not self.algorithms or not self.t_max:
            raise ValueError("experiment grid is empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON grid config; the dataclass defaults fill absent keys.

    Raises ValueError naming any key that is not a field of the entry it
    sits in, so a misspelt key cannot silently run its default.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    instances = []
    for i, entry in enumerate(doc.get("instances", [])):
        # The spec is frozen, so its list values (budgets, alphas,
        # surrogates) become tuples.
        lists = {k: tuple(v) for k, v in entry.items() if isinstance(v, list)}
        graph = str(_resolve_path(entry["graph"], path.parent))
        instances.append(_from_entry(InstanceSpec, entry, f"instances[{i}]", **lists, graph=graph))
    algorithms = [
        _from_entry(AlgorithmSpec, entry, f"algorithms[{i}]") for i, entry in enumerate(doc.get("algorithms", []))
    ]
    cfg = _from_entry(
        ExperimentConfig, doc, "the config",
        instances=instances, algorithms=algorithms, name=doc.get("name", path.stem),
    )
    cfg.validate()
    return cfg


def _from_entry(cls, entry: dict, where: str, **resolved):
    """``cls`` from a config entry, with ``resolved`` replacing raw values."""
    unknown = sorted(set(entry) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    try:
        return cls(**{**entry, **resolved})
    except TypeError as exc:  # a required key is missing
        raise ValueError(f"{where}: {exc}") from None


def _resolve_path(p: str, base: Path) -> Path:
    q = Path(p)
    return q if q.is_absolute() else base / q


# ---------------------------------------------------------------------------
# Grid expansion and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    index: int
    instance_name: str
    graph_path: str
    weights: str
    a: int
    d: float
    budget: float
    alpha: float
    surrogate: str
    t_max: int
    algo: AlgorithmSpec
    algo_index: int
    graph: Graph = field(compare=False, repr=False)

    def cell_id(self) -> str:
        return (
            f"{self.instance_name}_{self.weights}_{self.surrogate}"
            f"_B{self.budget:g}_t{self.t_max}_a{self.alpha:g}"
            f"_{self.algo.resolved_label()}"
        )

    def row_key(self) -> tuple:
        return (
            self.instance_name,
            self.weights,
            self.surrogate,
            self.budget,
            self.t_max,
            self.alpha,
        )


@dataclass
class ResultSet:
    cells: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    executed_runs: int = 0
    algorithm_labels: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _build_instance(cell: Cell, weight_models: dict[tuple, WeightModel]) -> Instance:
    """The cell's instance; cells that share a (graph, weights, a, d) share
    one weight model."""
    key = (cell.graph_path, cell.weights, cell.a, cell.d)
    weights = weight_models.get(key)
    if weights is None:
        weights = weight_models[key] = build_weights(cell.graph, cell.weights, a=cell.a, d=cell.d)
    return Instance(
        graph=cell.graph,
        weights=weights,
        budget=cell.budget,
        alpha=cell.alpha,
        surrogate=SurrogateKind.parse(cell.surrogate),
        name=cell.instance_name,
    )


def _run_config(cell: Cell, seed: tuple[int, ...]) -> RunConfig:
    return RunConfig(
        algorithm=cell.algo.algorithm,
        t_max=cell.t_max,
        seed=seed,
        regime=G2Regime.parse(cell.algo.regime),
        population=cell.algo.population,
        children=cell.algo.children,
    )


def expand_cells(cfg: ExperimentConfig) -> tuple[list[Cell], list[dict]]:
    """Expansion order fixes each cell's index, which seeds its repetitions.

    Each graph path is loaded once, and its cells share the graph. Raises
    ValueError when two cells share a ``cell_id``, which names their
    run files: the id leaves out the regime, ``a``, ``d`` and the graph path,
    so such cells need distinct algorithm labels or instance names.
    """
    cells: list[Cell] = []
    errors: list[dict] = []
    graphs: dict[str, Graph] = {}
    index = 0
    for spec in cfg.instances:
        if spec.graph not in graphs:
            try:
                graphs[spec.graph] = load_graph(spec.graph)
            except Exception as exc:
                errors.append({"instance": spec.resolved_name(), "error": str(exc)})
                continue
        graph = graphs[spec.graph]
        budgets = list(spec.budgets) if spec.budgets != "grid" else default_budgets(graph.n)
        for surrogate in spec.surrogates:
            for budget in budgets:
                for t_max in cfg.t_max:
                    for alpha in spec.alphas:
                        for algo_index, algo in enumerate(cfg.algorithms):
                            cells.append(
                                Cell(
                                    index=index,
                                    instance_name=spec.resolved_name(),
                                    graph_path=spec.graph,
                                    weights=spec.weights,
                                    a=spec.a,
                                    d=spec.d,
                                    budget=float(budget),
                                    alpha=float(alpha),
                                    surrogate=SurrogateKind.parse(surrogate).value,
                                    t_max=int(t_max),
                                    algo=algo,
                                    algo_index=algo_index,
                                    graph=graph,
                                )
                            )
                            index += 1
    seen: set[str] = set()
    for cell in cells:
        cell_id = cell.cell_id()
        if cell_id in seen:
            raise ValueError(
                f"two grid cells share the id {cell_id!r}; give their algorithms "
                "distinct labels or their instances distinct names"
            )
        seen.add(cell_id)
    return cells, errors


def run_experiment(
    cfg: ExperimentConfig,
    workers: int | None = None,
    resume: bool = False,
    out_dir: str | Path | None = None,
    progress: bool = False,
) -> ResultSet:
    """Execute every (cell, repetition) of the grid and aggregate results.

    With ``resume`` set, a stored run file is reused when it parses and its
    config echo equals that of the run it stands for (seed, regime, ``a``,
    ``d``, ``n``, population and children included); any other stored file
    is recomputed and overwritten, with a line on stderr. Failures are
    collected per run and never abort the rest of the grid.
    """
    cfg.validate()
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    cells, errors = expand_cells(cfg)
    result_set = ResultSet(errors=errors, algorithm_labels=[a.resolved_label() for a in cfg.algorithms])

    records: dict[tuple[int, int], dict] = {}
    weight_models: dict[tuple, WeightModel] = {}
    instances: list[Instance] = []
    tasks: list[tuple[int, RunConfig]] = []
    # Runs to compute, in grid order, each with the error that kept its cell
    # from being built (None when it was built).
    pending: list[tuple[Cell, int, str | None]] = []
    for cell in cells:
        try:
            instance = _build_instance(cell, weight_models)
            run_cfgs = [_run_config(cell, (cfg.base_seed, cell.index, rep)) for rep in range(cfg.repetitions)]
        except Exception as exc:
            pending += [(cell, rep, _error_text(exc)) for rep in range(cfg.repetitions)]
            continue
        reps = []
        for rep, run_cfg in enumerate(run_cfgs):
            run_file = runs_dir / f"{cell.cell_id()}__rep{rep}.json"
            if resume and run_file.exists():
                record = _stored_record(run_file, _config_echo(instance, run_cfg))
                if record is not None:
                    records[(cell.index, rep)] = record
                    continue
            reps.append(rep)
        if reps:
            instances.append(instance)
            tasks += [(len(instances) - 1, run_cfgs[rep]) for rep in reps]
            pending += [(cell, rep, None) for rep in reps]

    with closing(_run_tasks(instances, tasks, workers)) as outcomes:
        for cell, rep, error in pending:
            outcome = error if error is not None else next(outcomes)
            if isinstance(outcome, str):
                result_set.errors.append({"cell_id": cell.cell_id(), "repetition": rep, "error": outcome})
                continue
            record = outcome.to_json_dict()
            record["cell_id"] = cell.cell_id()
            record["repetition"] = rep
            records[(cell.index, rep)] = record
            _write_json(runs_dir / f"{cell.cell_id()}__rep{rep}.json", record)
            result_set.executed_runs += 1
            if progress:
                print(f"[{result_set.executed_runs}/{len(pending)}] {record['cell_id']} rep {rep}", file=sys.stderr)

    for cell in cells:
        best = [records[(cell.index, r)]["best_g1"] for r in range(cfg.repetitions) if (cell.index, r) in records]
        entry = {
            "cell_id": cell.cell_id(),
            "instance": cell.instance_name,
            "weights": cell.weights,
            "surrogate": cell.surrogate,
            "B": cell.budget,
            "t_max": cell.t_max,
            "alpha": cell.alpha,
            "algorithm": cell.algo.resolved_label(),
            "algo_index": cell.algo_index,
            "row_key": list(cell.row_key()),
            "best_g1": best,
            "mean": float(np.mean(best)) if best else None,
            "std": float(np.std(best)) if best else None,
            "archive_sizes": [
                records[(cell.index, r)]["archive_size"]
                for r in range(cfg.repetitions)
                if (cell.index, r) in records
            ],
            "peak_archive_sizes": [
                records[(cell.index, r)]["peak_archive_size"]
                for r in range(cfg.repetitions)
                if (cell.index, r) in records
            ],
        }
        result_set.cells.append(entry)

    _write_json(
        out / "results.json",
        {
            "name": cfg.name,
            "repetitions": cfg.repetitions,
            "base_seed": cfg.base_seed,
            "algorithms": result_set.algorithm_labels,
            "cells": result_set.cells,
            "errors": result_set.errors,
        },
    )
    emit_table(result_set, out)
    return result_set


def _stored_record(path: Path, echo: dict) -> dict | None:
    """The record stored at ``path`` if it parses and its config is ``echo``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        reason = f"is unreadable ({exc})"
    else:
        if isinstance(record, dict) and record.get("config") == echo:
            return record
        reason = "was made by another run configuration"
    print(f"recomputing {path}: the stored run file {reason}", file=sys.stderr)
    return None


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` to a temp file beside ``path``, then move it into place,
    so ``path`` never holds a partly written document."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Execution: one driver for experiment grids and repetition batches
# ---------------------------------------------------------------------------

def _worker_count(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get("CCSUBMOD_WORKERS") or os.cpu_count() or 1)
    return max(1, workers)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _attempt(instance: Instance, cfg: RunConfig) -> RunResult | str:
    """One run; an exception comes back as the run's error string."""
    try:
        return run(instance, cfg)
    except Exception as exc:
        return _error_text(exc)


# Set in each pool worker by its initializer, never in the calling process.
_WORKER_INSTANCES: list[Instance] = []


def _init_worker(instances: list[Instance]) -> None:
    global _WORKER_INSTANCES
    _WORKER_INSTANCES = instances


def _worker_task(task: tuple[int, RunConfig]) -> RunResult | str:
    index, cfg = task
    return _attempt(_WORKER_INSTANCES[index], cfg)


def _run_tasks(
    instances: list[Instance], tasks: list[tuple[int, RunConfig]], workers: int | None
) -> Iterator[RunResult | str]:
    """Run each ``(instance index, config)`` task; yield outcomes in task order.

    A task carries only its index and config, because every worker receives
    the instance list once. One worker or one task runs in this process. A
    worker that dies breaks the pool; the first task whose result had not
    come back and every later one then yield the ``BrokenProcessPool``
    error as their outcome.
    """
    nworkers = _worker_count(workers)
    if nworkers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=nworkers, initializer=_init_worker, initargs=(instances,)
        ) as pool:
            done = 0
            try:
                for outcome in pool.map(_worker_task, tasks):
                    yield outcome
                    done += 1
            except BrokenProcessPool as exc:
                yield from [_error_text(exc)] * (len(tasks) - done)
    else:
        for index, cfg in tasks:
            yield _attempt(instances[index], cfg)


def run_repetitions(
    instance: Instance,
    template: RunConfig,
    repetitions: int,
    base_seed: int,
    cell_index: int = 0,
    workers: int | None = None,
) -> list[RunResult]:
    """Repeat one configuration with seeds (base_seed, cell_index, rep).

    A failed run raises RuntimeError with that run's error.
    """
    tasks = [(0, replace(template, seed=(base_seed, cell_index, rep))) for rep in range(repetitions)]
    results = list(_run_tasks([instance], tasks, workers))
    for outcome in results:
        if isinstance(outcome, str):
            raise RuntimeError(outcome)
    return results


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3f}"


def emit_table(results: ResultSet, out_dir: str | Path) -> tuple[Path, Path]:
    """Write table.csv / table.md: one row per (instance, surrogate, B,
    t_max, alpha), one mean/std/stat column triple per algorithm.

    Stat marks are Kruskal-Wallis gated Bonferroni pairwise comparisons,
    rendered as "2(+),3(=)" strings against the 1-based algorithm indices.
    Missing cells render blank and produce a stderr warning.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = results.algorithm_labels
    k = len(labels)

    rows: dict[tuple, dict[int, dict]] = {}
    row_order: list[tuple] = []
    for cell in results.cells:
        key = tuple(cell["row_key"])
        if key not in rows:
            rows[key] = {}
            row_order.append(key)
        rows[key][cell["algo_index"]] = cell

    header = ["graph", "weights", "surrogate", "B", "t_max", "alpha"]
    for label in labels:
        header += [f"{label} mean", f"{label} std", f"{label} stat"]

    table_rows: list[list[str]] = []
    for key in row_order:
        by_algo = rows[key]
        missing = [i for i in range(k) if i not in by_algo or not by_algo[i]["best_g1"]]
        if missing:
            print(
                f"warning: row {key} missing algorithms {[labels[i] for i in missing]}",
                file=sys.stderr,
            )
        groups = [by_algo[i]["best_g1"] if i in by_algo else [] for i in range(k)]
        if all(groups) and k >= 2:
            marks = posthoc_marks(groups)
        else:
            marks = [["" for _ in range(k)] for _ in range(k)]
        row = [str(key[0]), str(key[1]), str(key[2]), _fmt(key[3]), str(key[4]), f"{key[5]:g}"]
        for i in range(k):
            if i in by_algo and by_algo[i]["best_g1"]:
                stat = ",".join(f"{j + 1}({marks[i][j]})" for j in range(k) if j != i and marks[i][j])
                row += [_fmt(by_algo[i]["mean"]), _fmt(by_algo[i]["std"]), stat]
            else:
                row += ["", "", ""]
        table_rows.append(row)

    csv_path = out_dir / "table.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table_rows)

    md_path = out_dir / "table.md"
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write("| " + " | ".join(header) + " |\n")
        fh.write("|" + "---|" * len(header) + "\n")
        for row in table_rows:
            fh.write("| " + " | ".join(row) + " |\n")
    return csv_path, md_path


def emit_trace(result: RunResult, path: str | Path) -> Path:
    """Write a run's per-iteration trace as CSV.

    Columns: t, parent_g2, g1, g2, accepted, in_window, window_count. One
    row per iteration is enough to reconstruct both the accepted-offspring
    scatter and the window occupancy over time.
    """
    trace = result.trace
    if trace is None:
        raise ValueError("run has no trace; enable trace in the run config")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "parent_g2", "g1", "g2", "accepted", "in_window", "window_count"])
        for i in range(len(trace)):
            writer.writerow(
                [
                    i + 1,
                    repr(float(trace.parent_g2[i])),
                    repr(float(trace.g1[i])),
                    repr(float(trace.g2[i])),
                    int(trace.accepted[i]),
                    int(trace.in_window[i]),
                    int(trace.window_count[i]),
                ]
            )
    return path
