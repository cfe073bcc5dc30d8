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

:func:`expand_cells` builds each grid cell's instance and seedless run
config once, so a config fault anywhere in the grid raises ValueError naming
its entry before anything runs or is written. Grids and
:func:`run_repetitions` share one execution path: each pool worker receives
the instances once through its initializer, every run's exception (or a
dead worker) comes back as that run's error string, and outcomes arrive in
task order. Run files are written by the calling process as each outcome
arrives.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from itertools import product
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .algorithms import RunConfig, RunResult, _config_echo, run
from .chance import G2Regime
from .graphs import Graph, load_graph
from .problem import Instance, SurrogateKind, build_weights, default_budgets
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
IN_FLIGHT_PER_WORKER = 4


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
    budgets: tuple[float, ...] | str = "grid"
    alphas: tuple[float, ...] = (0.1, 0.001)
    surrogates: tuple[str, ...] = ("chebyshev", "chernoff")
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
        """Raise ValueError when the config fails the check a JSON config
        gets (see :func:`_check_entry`), so one built in Python is held to
        the same schema, when ``repetitions`` is below 1, or when
        ``base_seed`` is negative."""
        _check_entry(ExperimentConfig, asdict(self), "the config")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.base_seed < 0:
            # Every run's seed (base_seed, cell index, rep) must be non-negative.
            raise ValueError("base_seed must be >= 0")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON grid config; the dataclass defaults fill absent keys.

    Raises ValueError naming the entry at fault when the document fails
    :func:`_check_entry` against :class:`ExperimentConfig` or
    :meth:`ExperimentConfig.validate`. A relative ``graph`` path is read
    from the config file's directory.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_entry(ExperimentConfig, doc, "the config")
    # The spec is frozen, so its lists (budgets, alphas, surrogates) become tuples.
    instances = [
        InstanceSpec(**{
            **{k: tuple(v) if isinstance(v, list) else v for k, v in entry.items()},
            "graph": str(path.parent / entry["graph"]),  # an absolute path stays as it is
        })
        for entry in doc["instances"]
    ]
    algorithms = [AlgorithmSpec(**entry) for entry in doc["algorithms"]]
    name = doc.get("name", path.stem)
    cfg = ExperimentConfig(**{**doc, "instances": instances, "algorithms": algorithms, "name": name})
    cfg.validate()
    return cfg


# The scalar annotations whose values a config entry must give as JSON
# scalars of these types; a bool is never taken for a number.
_SCALAR_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _check_entry(cls, entry, where: str) -> None:
    """Raise ValueError unless ``entry`` is a JSON object that can build a
    ``cls``, with the field annotations as the only schema.

    The object must hold every required key and no unknown one (so a
    misspelt key cannot silently run its default). An ``int``, ``float`` or
    ``str`` field holds a JSON scalar of that type. A ``list[...]`` or
    ``tuple[..., ...]`` field holds a non-empty list whose items are scalars
    of the item type, named as ``t_max[0] in the config``, or entries
    checked the same way, named as ``instances[1]``. A field annotated
    ``... | str`` also takes its default string (``"budgets": "grid"``).
    """
    if not isinstance(entry, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(entry), "a number")
        raise ValueError(f"{where} must be a JSON object, got {kind}")
    names = {f.name: f for f in fields(cls)}
    unknown = sorted(set(entry) - set(names))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    hints = get_type_hints(cls)
    for name, f in names.items():
        if name not in entry:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{where} has no {name!r} key")
            continue
        value, hint = entry[name], hints[name]
        if get_origin(hint) is UnionType:  # a list that also takes its default string
            if value == f.default:
                continue
            hint = get_args(hint)[0]
        if get_origin(hint) in (list, tuple):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name!r} in {where} must be a list, got {value!r}")
            if not value:
                raise ValueError(f"{name!r} in {where} must not be empty")
            hint, items = get_args(hint)[0], [(f"{name}[{j}]", item) for j, item in enumerate(value)]
        else:
            items = [(repr(name), value)]
        for key, item in items:
            if is_dataclass(hint):
                _check_entry(hint, item, key)
            elif hint in _SCALAR_TYPES and (isinstance(item, bool) or not isinstance(item, _SCALAR_TYPES[hint])):
                raise ValueError(f"{key} in {where} must be of type {hint.__name__}, got {item!r}")


def _check_file_name(name: str, key: str) -> None:
    """Raise ValueError when ``name``, part of every run file's name, holds
    a path separator, which would put the file outside ``runs/``."""
    for sep in ("/", os.sep, os.altsep):
        if sep and sep in name:
            raise ValueError(f"{key} {name!r} holds {sep!r}, but it names run files")


# ---------------------------------------------------------------------------
# Grid expansion and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One grid cell: an instance and a seedless run config.

    Repetition r runs ``replace(template, seed=(base_seed, index, r))``.
    ``row_key`` is ``(instance name, weights, surrogate, B, t_max, alpha)``,
    the cell's table row; ``algo_index`` and ``label`` give its column.
    """

    index: int
    cell_id: str
    row_key: tuple
    algo_index: int
    label: str
    instance: Instance = field(repr=False)
    template: RunConfig


@dataclass
class ResultSet:
    cells: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    executed_runs: int = 0
    algorithm_labels: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@contextmanager
def _entry(where: str) -> Iterator[None]:
    """Re-raise a ValueError from the block with ``where`` in front."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def expand_cells(cfg: ExperimentConfig) -> tuple[list[Cell], list[dict]]:
    """Build every cell's instance and run config; expansion order fixes
    each cell's index, which seeds its repetitions.

    The config is validated first. Each graph path is loaded once and each
    instance spec builds one weight model. A graph that fails to load is an
    entry of the returned error list. Any other fault raises ValueError
    naming ``algorithms[j]``, ``t_max[k]`` or ``instances[i] (<name>)``,
    including ``"budgets": "grid"`` on a graph of fewer than 20 nodes, whose
    ``n // 20`` budget would be 0. A ``cell_id`` names its cell's run
    files, so an algorithm label or instance name that holds a path
    separator raises, and so do two cells that share an id: the id leaves
    out the regime, ``a``, ``d`` and the graph path, so such cells need
    distinct algorithm labels or instance names.
    """
    cfg.validate()
    columns: list[RunConfig] = []
    labels = [algo.resolved_label() for algo in cfg.algorithms]
    for j, algo in enumerate(cfg.algorithms):
        with _entry(f"algorithms[{j}]"):
            _check_file_name(labels[j], "label")
            regime = G2Regime.parse(algo.regime)
            columns.append(
                RunConfig(algo.algorithm, 0, regime=regime, population=algo.population, children=algo.children)
            )
    templates: list[list[RunConfig]] = []  # templates[k][j]: t_max[k], algorithms[j]
    for k, t_max in enumerate(cfg.t_max):
        with _entry(f"t_max[{k}]"):
            templates.append([replace(column, t_max=t_max) for column in columns])

    cells: list[Cell] = []
    errors: list[dict] = []
    graphs: dict[str, Graph] = {}
    for i, spec in enumerate(cfg.instances):
        name = spec.resolved_name()
        with _entry(f"instances[{i}] ({name})"):
            _check_file_name(name, "name")
            if spec.graph not in graphs:
                try:
                    graphs[spec.graph] = load_graph(spec.graph)
                except Exception as exc:
                    errors.append({"instance": name, "error": str(exc)})
                    continue
            graph = graphs[spec.graph]
            weights = build_weights(graph, spec.weights, a=spec.a, d=spec.d)
            if spec.budgets != "grid":
                budgets = spec.budgets
            elif graph.n < 20:
                raise ValueError(
                    f'"budgets": "grid" needs n >= 20 for a positive n // 20 budget, '
                    f"but the graph has n = {graph.n}; list the budgets instead"
                )
            else:
                budgets = default_budgets(graph.n)
            surrogates = [SurrogateKind.parse(s) for s in spec.surrogates]
            for surrogate, budget, (t_max, row), alpha in product(
                surrogates, budgets, zip(cfg.t_max, templates), spec.alphas
            ):
                instance = Instance(graph, weights, float(budget), float(alpha), surrogate, name)
                row_key = (name, spec.weights, surrogate.value, instance.budget, t_max, instance.alpha)
                for j, template in enumerate(row):
                    cell_id = (
                        f"{name}_{spec.weights}_{surrogate.value}_B{instance.budget:g}"
                        f"_t{t_max}_a{instance.alpha:g}_{labels[j]}"
                    )
                    cells.append(Cell(len(cells), cell_id, row_key, j, labels[j], instance, template))
    seen: set[str] = set()
    for cell in cells:
        if cell.cell_id in seen:
            raise ValueError(
                f"two grid cells share the id {cell.cell_id!r}; give their algorithms "
                "distinct labels or their instances distinct names"
            )
        seen.add(cell.cell_id)
    return cells, errors


def run_experiment(
    cfg: ExperimentConfig,
    workers: int | None = None,
    resume: bool = False,
    out_dir: str | Path | None = None,
) -> ResultSet:
    """Execute every (cell, repetition) of the grid and aggregate results.

    A config fault (see :func:`expand_cells`) or a ``CCSUBMOD_WORKERS``
    that is not an integer raises ValueError before the output directory
    is created. With ``resume`` set, a stored run file is reused when it
    parses, its config echo equals that of the run it stands for (seed,
    regime, ``a``, ``d``, ``n``, population and children included) and its
    result fields are finite numbers; any other stored file is recomputed
    and overwritten, with a line on stderr. A graph that fails to load, a
    run that raises and a dead worker are recorded in ``errors`` and never
    abort the rest of the grid. Each run not taken from a stored file writes
    one progress line ``[i/N]`` to stderr, ending in ``failed`` when the run
    records an error.
    """
    cells, errors = expand_cells(cfg)
    workers = _worker_count(workers)
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    result_set = ResultSet(errors=errors, algorithm_labels=[a.resolved_label() for a in cfg.algorithms])

    records: dict[tuple[int, int], dict] = {}
    # Cells that differ only in algorithm share an instance; workers get each once.
    instances = list({id(cell.instance): cell.instance for cell in cells}.values())
    slots = {id(instance): k for k, instance in enumerate(instances)}
    tasks: list[tuple[int, RunConfig]] = []
    pending: list[tuple[Cell, int]] = []  # the (cell, rep) of each task
    for cell in cells:
        for rep in range(cfg.repetitions):
            run_cfg = replace(cell.template, seed=(cfg.base_seed, cell.index, rep))
            run_file = runs_dir / f"{cell.cell_id}__rep{rep}.json"
            if resume and run_file.exists():
                record = _stored_record(run_file, _config_echo(cell.instance, run_cfg))
                if record is not None:
                    records[(cell.index, rep)] = record
                    continue
            tasks.append((slots[id(cell.instance)], run_cfg))
            pending.append((cell, rep))

    with closing(_run_tasks(instances, tasks, workers)) as outcomes:
        for done, ((cell, rep), outcome) in enumerate(zip(pending, outcomes), start=1):
            progress = f"[{done}/{len(pending)}] {cell.cell_id} rep {rep}"
            if isinstance(outcome, str):
                result_set.errors.append({"cell_id": cell.cell_id, "repetition": rep, "error": outcome})
                print(f"{progress} failed", file=sys.stderr)
                continue
            record = outcome.to_json_dict()
            record["cell_id"] = cell.cell_id
            record["repetition"] = rep
            records[(cell.index, rep)] = record
            _write_json(runs_dir / f"{cell.cell_id}__rep{rep}.json", record)
            result_set.executed_runs += 1
            print(progress, file=sys.stderr)

    for cell in cells:
        stored = [records[(cell.index, r)] for r in range(cfg.repetitions) if (cell.index, r) in records]
        best = [record["best_g1"] for record in stored]
        entry = {
            **dict(zip(("instance", "weights", "surrogate", "B", "t_max", "alpha"), cell.row_key)),
            "cell_id": cell.cell_id,
            "algorithm": cell.label,
            "algo_index": cell.algo_index,
            "row_key": list(cell.row_key),
            "best_g1": best,
            "mean": float(np.mean(best)) if best else None,
            "std": float(np.std(best)) if best else None,
            "archive_sizes": [record["archive_size"] for record in stored],
            "peak_archive_sizes": [record["peak_archive_size"] for record in stored],
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
    """The record stored at ``path`` if it parses, its config is ``echo``
    and it holds a finite number (not a bool) under ``best_g1``,
    ``archive_size`` and ``peak_archive_size``; otherwise None, with a
    stderr line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        reason = f"is unreadable ({exc})"
    else:
        if not isinstance(record, dict) or record.get("config") != echo:
            reason = "was made by another run configuration"
        else:
            keys = ("best_g1", "archive_size", "peak_archive_size")
            broken = [
                key for key in keys if type(record.get(key)) not in (int, float) or not math.isfinite(record[key])
            ]
            if not broken:
                return record
            reason = f"is unreadable (no finite number under {broken[0]!r})"
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
    """``workers``, else ``CCSUBMOD_WORKERS``, else the CPU count; at least 1."""
    if workers is None:
        env = os.environ.get("CCSUBMOD_WORKERS")
        try:
            workers = int(env or os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"CCSUBMOD_WORKERS must be an integer, got {env!r}") from None
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
    the instance list once. One worker or one task runs in this process.
    At most ``IN_FLIGHT_PER_WORKER`` tasks per worker are submitted ahead of
    the outcome being yielded, so finished results do not pile up here. A
    worker that dies breaks the pool; the first task whose result had not
    come back and every later one then yield the ``BrokenProcessPool``
    error as their outcome.
    """
    nworkers = _worker_count(workers)
    if nworkers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=nworkers, initializer=_init_worker, initargs=(instances,)
        ) as pool:
            in_flight = deque()
            done = 0
            try:
                for task in tasks:
                    if len(in_flight) == IN_FLIGHT_PER_WORKER * nworkers:
                        yield in_flight.popleft().result()
                        done += 1
                    in_flight.append(pool.submit(_worker_task, task))
                while in_flight:
                    yield in_flight.popleft().result()
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
        groups = [by_algo[i]["best_g1"] if i in by_algo else [] for i in range(k)]
        missing = [labels[i] for i in range(k) if not groups[i]]
        if missing:
            print(f"warning: row {key} missing algorithms {missing}", file=sys.stderr)
        if not missing and k >= 2:
            marks = posthoc_marks(groups)
        else:
            marks = [["" for _ in range(k)] for _ in range(k)]
        row = [str(key[0]), str(key[1]), str(key[2]), _fmt(key[3]), str(key[4]), f"{key[5]:g}"]
        for i in range(k):
            if groups[i]:
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
    """Write a run's per-iteration trace as CSV: ``t``, then one column per
    :data:`~ccsubmod.algorithms.TRACE_DTYPE` field, with flags as 0/1. One
    row per iteration is enough to reconstruct both the accepted-offspring
    scatter and the window occupancy over time.
    """
    trace = result.trace
    if trace is None:
        raise ValueError("run has no trace; enable trace in the run config")
    dtype = trace.dtype
    flags_as_ints = trace.astype([(name, np.uint8 if dtype[name] == bool else dtype[name]) for name in dtype.names])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *dtype.names])
        # Row by row: as Python objects, a long trace takes several times its array's memory.
        writer.writerows((t, *row.item()) for t, row in enumerate(flags_as_ints, start=1))
    return path
