import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from ccsubmod import (
    G2Regime,
    Instance,
    RunConfig,
    SurrogateKind,
    emit_trace,
    load_experiment_config,
    make_degree_weights,
    make_iid_weights,
    run,
    run_experiment,
    run_repetitions,
)
from ccsubmod import harness
from ccsubmod.harness import AlgorithmSpec, ExperimentConfig, InstanceSpec, expand_cells
from conftest import random_sparse_graph


@pytest.fixture
def graph_file(tmp_path):
    from ccsubmod import save_edge_list

    g = random_sparse_graph(30, 60, seed=21)
    p = tmp_path / "synth30.txt"
    save_edge_list(g, p)
    return p


def small_config(graph_file, out_dir, reps=3, algorithms=None):
    algorithms = algorithms or [
        AlgorithmSpec(algorithm="gsemo"),
        AlgorithmSpec(algorithm="sw-gsemo"),
    ]
    return ExperimentConfig(
        instances=[
            InstanceSpec(
                graph=str(graph_file), weights="iid", a=1, d=0.5,
                budgets=(6.0,), alphas=(0.1,), surrogates=("chebyshev",),
            )
        ],
        algorithms=algorithms,
        t_max=[2000],
        repetitions=reps,
        base_seed=7,
        output_dir=str(out_dir),
        name="unit",
    )


class TestGridExpansion:
    def test_cardinality(self, graph_file, tmp_path):
        cfg = ExperimentConfig(
            instances=[
                InstanceSpec(
                    graph=str(graph_file), budgets=(5, 8, 11),
                    alphas=(0.1, 0.001), surrogates=("chebyshev", "chernoff"),
                )
            ],
            algorithms=[
                AlgorithmSpec(algorithm="gsemo"),
                AlgorithmSpec(algorithm="sw-gsemo"),
                AlgorithmSpec(algorithm="nsga2", population=20, children=10),
                AlgorithmSpec(algorithm="nsga2", population=100, children=50),
            ],
            t_max=[1000],
            repetitions=1,
            output_dir=str(tmp_path / "out"),
        )
        cells, errors = expand_cells(cfg)
        assert not errors
        assert len(cells) == 3 * 2 * 2 * 4  # budgets x alphas x surrogates x algorithms

    def test_budget_grid_resolved_from_graph(self, graph_file, tmp_path):
        cfg = small_config(graph_file, tmp_path / "out")
        cfg.instances = [InstanceSpec(graph=str(graph_file), budgets="grid")]
        cells, _ = expand_cells(cfg)
        budgets = sorted({c.instance.budget for c in cells})
        assert budgets == [1.0, 3.0, 5.0]  # n = 30 -> isqrt 5, 30//20, 30//10

    def test_duplicate_cell_ids_rejected(self, graph_file, tmp_path):
        # Unlabelled columns that differ only in regime share a cell_id, so
        # their runs would overwrite one another's files.
        algorithms = [AlgorithmSpec("sw-gsemo"), AlgorithmSpec("sw-gsemo", regime="expected-g2")]
        cfg = small_config(graph_file, tmp_path / "out", algorithms=algorithms)
        with pytest.raises(ValueError, match="synth30_iid_chebyshev_B6_t2000_a0.1_SW-GSEMO"):
            expand_cells(cfg)
        with pytest.raises(ValueError):
            run_experiment(cfg, workers=1)
        assert not list((tmp_path / "out" / "runs").glob("*.json"))

    def test_unreadable_graph_recorded_not_raised(self, tmp_path):
        cfg = ExperimentConfig(
            instances=[InstanceSpec(graph=str(tmp_path / "missing.txt"), budgets=(3.0,))],
            algorithms=[AlgorithmSpec(algorithm="gsemo")],
            t_max=[100],
            output_dir=str(tmp_path / "out"),
        )
        cells, errors = expand_cells(cfg)
        assert cells == []
        assert len(errors) == 1


class TestRunExperiment:
    def test_run_counts_and_outputs(self, graph_file, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(graph_file, out)
        results = run_experiment(cfg, workers=1)
        assert results.ok
        assert results.executed_runs == 2 * 3  # cells x repetitions
        assert (out / "results.json").exists()
        assert (out / "table.csv").exists()
        assert (out / "table.md").exists()
        run_files = list((out / "runs").glob("*.json"))
        assert len(run_files) == 6

    def test_determinism_across_invocations(self, graph_file, tmp_path):
        cfg1 = small_config(graph_file, tmp_path / "a")
        cfg2 = small_config(graph_file, tmp_path / "b")
        r1 = run_experiment(cfg1, workers=1)
        r2 = run_experiment(cfg2, workers=1)
        m1 = [(c["cell_id"], c["mean"], c["std"]) for c in r1.cells]
        m2 = [(c["cell_id"], c["mean"], c["std"]) for c in r2.cells]
        assert m1 == m2
        assert (tmp_path / "a" / "table.csv").read_bytes() == (tmp_path / "b" / "table.csv").read_bytes()

    def test_resume_recomputes_only_missing(self, graph_file, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(graph_file, out)
        run_experiment(cfg, workers=1)
        victim = sorted((out / "runs").glob("*.json"))[0]
        victim.unlink()
        results = run_experiment(cfg, workers=1, resume=True)
        assert results.executed_runs == 1
        assert results.ok

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: replace(cfg, base_seed=cfg.base_seed + 1),
            lambda cfg: replace(cfg, instances=[replace(cfg.instances[0], d=0.25)]),
        ],
        ids=["base_seed", "d"],
    )
    def test_resume_after_config_edit_recomputes_every_run(self, graph_file, tmp_path, capsys, edit):
        # Neither the seed nor d is part of a run file's name.
        out = tmp_path / "out"
        run_experiment(small_config(graph_file, out), workers=1)
        capsys.readouterr()
        resumed = run_experiment(edit(small_config(graph_file, out)), workers=1, resume=True)
        assert resumed.executed_runs == 6
        assert capsys.readouterr().err.count("recomputing") == 6
        fresh = run_experiment(edit(small_config(graph_file, tmp_path / "fresh")), workers=1)
        assert resumed.cells == fresh.cells
        for name in ("results.json", "table.csv"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda record: record.pop("best_g1"),
            lambda record: record.update(best_g1="x"),
            lambda record: record.update(best_g1=float("nan")),
            lambda record: record.update(archive_size=None),
            lambda record: record.update(peak_archive_size=True),
        ],
        ids=["best_g1-missing", "best_g1-string", "best_g1-nan", "archive_size-null", "peak_archive_size-bool"],
    )
    def test_resume_recomputes_run_file_with_broken_result(self, graph_file, tmp_path, capsys, edit):
        # The stored config still matches; only a result field is broken.
        out = tmp_path / "out"
        fresh = run_experiment(small_config(graph_file, out), workers=1)
        victim = sorted((out / "runs").glob("*.json"))[0]
        record = json.loads(victim.read_text())
        edit(record)
        victim.write_text(json.dumps(record))
        capsys.readouterr()
        resumed = run_experiment(small_config(graph_file, out), workers=1, resume=True)
        assert resumed.executed_runs == 1
        assert f"recomputing {victim}" in capsys.readouterr().err
        assert resumed.cells == fresh.cells

    def test_graph_file_edited_between_calls_is_reloaded(self, tmp_path):
        from ccsubmod import Graph, save_edge_list

        path = tmp_path / "edited.txt"
        save_edge_list(Graph.from_edges(3, np.array([[0, 1], [1, 2]])), path)
        cfg = small_config(path, tmp_path / "a", reps=1, algorithms=[AlgorithmSpec("gsemo")])
        cfg.instances = [replace(cfg.instances[0], budgets=(2.0,))]
        run_experiment(cfg, workers=1)
        save_edge_list(Graph.from_edges(7, np.array([[i, i + 1] for i in range(6)])), path)
        run_experiment(replace(cfg, output_dir=str(tmp_path / "b")), workers=1)
        (run_file,) = (tmp_path / "b" / "runs").glob("*.json")
        assert json.loads(run_file.read_text())["config"]["n"] == 7

    @pytest.mark.parametrize("edit_seed", [False, True], ids=["results.json", "run-file"])
    def test_failed_write_keeps_previous_file(self, graph_file, tmp_path, monkeypatch, edit_seed):
        # A resume over valid files writes only results.json; one after a seed
        # edit first overwrites a run file.
        out = tmp_path / "out"
        cfg = small_config(graph_file, out)
        run_experiment(cfg, workers=1)

        def files():
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        before = files()

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"best_g1": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(replace(cfg, base_seed=cfg.base_seed + edit_seed), workers=1, resume=True)
        assert files() == before

    def test_parallel_matches_serial(self, graph_file, tmp_path):
        serial = run_experiment(small_config(graph_file, tmp_path / "s"), workers=1)
        parallel = run_experiment(small_config(graph_file, tmp_path / "p"), workers=2)
        assert [c["best_g1"] for c in serial.cells] == [c["best_g1"] for c in parallel.cells]
        for name in ("results.json", "table.csv"):
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "alphas,algorithms,error",
        [
            ((0.1, 1.5), [AlgorithmSpec("gsemo")], "instances[0] (synth30): alpha must lie in (0, 1)"),
            (
                (0.1,),
                [AlgorithmSpec("gsemo"), AlgorithmSpec("nsga2", population=5, children=10)],
                "algorithms[1]: children must not exceed population size",
            ),
        ],
        ids=["alpha", "nsga2-children"],
    )
    def test_unbuildable_cell_fails_per_repetition(self, graph_file, tmp_path, workers, alphas, algorithms, error):
        # One unbuildable cell fails the whole grid at expansion: no repetition
        # of any cell runs and the output directory is never made.
        out = tmp_path / "out"
        cfg = small_config(graph_file, out, algorithms=algorithms)
        cfg.instances = [replace(cfg.instances[0], alphas=alphas)]
        with pytest.raises(ValueError) as excinfo:
            run_experiment(cfg, workers=workers)
        assert str(excinfo.value) == error
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cfg: replace(cfg, t_max=[1.5]), "t_max[0] in the config must be of type int, got 1.5"),
            (
                lambda cfg: replace(cfg, instances=[cfg.instances[0], replace(cfg.instances[0], alphas=("x",))]),
                "alphas[0] in instances[1] must be of type float, got 'x'",
            ),
            (lambda cfg: replace(cfg, instances=[]), "'instances' in the config must not be empty"),
        ],
        ids=["t_max-float", "alphas-string", "instances-empty"],
    )
    def test_python_built_config_fault_matches_json(self, graph_file, tmp_path, edit, message):
        # A config built in Python gets the check a JSON config gets.
        out = tmp_path / "out"
        cfg = edit(small_config(graph_file, out))
        with pytest.raises(ValueError) as built:
            run_experiment(cfg, workers=1)
        path = tmp_path / "fault.json"
        path.write_text(json.dumps(asdict(cfg)))
        with pytest.raises(ValueError) as loaded:
            load_experiment_config(path)
        assert str(built.value) == str(loaded.value) == message
        assert not out.exists()

    def test_config_file_loading(self, graph_file, tmp_path):
        doc = {
            "name": "from-file",
            "t_max": [500],
            "repetitions": 2,
            "base_seed": 3,
            "output_dir": str(tmp_path / "out"),
            "instances": [
                {"graph": graph_file.name, "weights": "iid", "a": 1, "d": 0.5,
                 "budgets": [5], "alphas": [0.1], "surrogates": ["chebyshev"]}
            ],
            "algorithms": [{"algorithm": "gsemo"}, {"algorithm": "nsga2", "population": 20, "children": 10}],
        }
        cfg_path = graph_file.parent / "exp.json"
        cfg_path.write_text(json.dumps(doc))
        cfg = load_experiment_config(cfg_path)
        assert cfg.name == "from-file"
        assert cfg.repetitions == 2
        cells, errors = expand_cells(cfg)
        assert not errors and len(cells) == 2

    @pytest.mark.parametrize(
        "where,key",
        [("instance", "alpha"), ("algorithm", "populaton"), ("top", "repetition")],
    )
    def test_config_file_unknown_key_rejected(self, graph_file, tmp_path, where, key):
        doc = {
            "t_max": [500],
            "instances": [{"graph": graph_file.name, "budgets": [5]}],
            "algorithms": [{"algorithm": "nsga2"}],
        }
        entry = {"instance": doc["instances"][0], "algorithm": doc["algorithms"][0], "top": doc}[where]
        entry[key] = [0.5]
        cfg_path = graph_file.parent / "typo.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=repr(key)):
            load_experiment_config(cfg_path)

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.name
    )
    def test_shipped_config_loads(self, path):
        # The graphs they name are not shipped, so the configs are not expanded.
        cfg = load_experiment_config(path)
        assert cfg.name == path.stem

    def test_empty_grid_rejected(self, tmp_path):
        cfg = ExperimentConfig(instances=[], algorithms=[], t_max=[], output_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_experiment(cfg, workers=1)


class TestTable:
    def test_layout_and_marks_format(self, graph_file, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(graph_file, out, reps=4)
        run_experiment(cfg, workers=1)
        with open(out / "table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[:6] == ["graph", "weights", "surrogate", "B", "t_max", "alpha"]
        assert header[6:] == [
            "GSEMO mean", "GSEMO std", "GSEMO stat",
            "SW-GSEMO mean", "SW-GSEMO std", "SW-GSEMO stat",
        ]
        assert len(data) == 1
        stat = data[0][8]
        assert stat.startswith("2(") and stat[2] in "+-=" and stat.endswith(")")

    def test_missing_cells_render_blank_with_warning(self, graph_file, tmp_path, capsys):
        from ccsubmod.harness import ResultSet, emit_table

        results = ResultSet(algorithm_labels=["GSEMO", "SW-GSEMO"])
        results.cells.append({
            "row_key": ["g", "iid", "chebyshev", 5.0, 100, 0.1],
            "algo_index": 0, "best_g1": [3.0, 4.0], "mean": 3.5, "std": 0.5,
        })
        csv_path, _ = emit_table(results, tmp_path / "out")
        err = capsys.readouterr().err
        assert "missing algorithms" in err and "SW-GSEMO" in err
        row = csv_path.read_text().splitlines()[1].split(",")
        assert row[6] == "3.500" and row[9] == "" and row[10] == ""


class TestTrace:
    def test_trace_csv_shape_and_columns(self, tmp_path):
        graph = random_sparse_graph(20, 40, seed=5)
        inst = Instance(graph=graph, weights=make_iid_weights(20, 1, 0.5),
                        budget=5.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        result = run(inst, RunConfig(algorithm="sw-gsemo", t_max=10, seed=1, trace=True))
        path = emit_trace(result, tmp_path / "trace.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "parent_g2", "g1", "g2", "accepted", "in_window", "window_count"]
        assert len(rows) - 1 == 10
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 11)]

    def test_trace_requires_flag(self, tmp_path):
        graph = random_sparse_graph(20, 40, seed=5)
        inst = Instance(graph=graph, weights=make_iid_weights(20, 1, 0.5),
                        budget=5.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        result = run(inst, RunConfig(algorithm="sw-gsemo", t_max=10, seed=1))
        with pytest.raises(ValueError):
            emit_trace(result, tmp_path / "trace.csv")

    def test_trace_byte_identical_across_runs(self, tmp_path):
        graph = random_sparse_graph(25, 50, seed=6)
        inst = Instance(graph=graph, weights=make_iid_weights(25, 1, 0.5),
                        budget=6.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        cfg = RunConfig(algorithm="sw-gsemo", t_max=500, seed=9, trace=True)
        p1 = emit_trace(run(inst, cfg), tmp_path / "t1.csv")
        p2 = emit_trace(run(inst, cfg), tmp_path / "t2.csv")
        assert p1.read_bytes() == p2.read_bytes()

    # sha256 of the CSV of three seeded 3000-iteration runs on one 40-node
    # graph, iid weights under the surrogate and degree weights under the
    # expected weight. The runs hold infeasible, rejected and accepted
    # offspring, and empty, single and double windows, so a change to any
    # column or to how it is written shows up here.
    PINNED_TRACES = {
        ("sw-gsemo", "iid"): "547a221bb5062c191ecdff709c00cf9806c2cf0bbd70384727f0140acbc1e730",
        ("gsemo", "degree"): "133b9198768ce1b0e5e49048d1025ed08355741bd6cd3a7947a2698993b4ce4e",
        ("sw-gsemo", "degree"): "6bb451c597fc057f018f1f5d753c6fc59548635655e673cad62e7acc78919030",
    }

    @pytest.mark.parametrize("algorithm, weights", sorted(PINNED_TRACES))
    def test_trace_bytes_pinned(self, tmp_path, algorithm, weights):
        graph = random_sparse_graph(40, 90, seed=13)
        if weights == "iid":
            model, regime, budget = make_iid_weights(40, 1, 0.5), G2Regime.SURROGATE, 10.0
        else:
            model, regime, budget = make_degree_weights(graph, 1.0), G2Regime.EXPECTED, 40.0
        inst = Instance(graph=graph, weights=model, budget=budget, alpha=0.1,
                        surrogate=SurrogateKind.CHEBYSHEV)
        cfg = RunConfig(algorithm=algorithm, t_max=3000, seed=(7, 1), regime=regime, trace=True)
        path = emit_trace(run(inst, cfg), tmp_path / "trace.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_TRACES[(algorithm, weights)]

    def test_accepted_g2_tracks_window_envelope(self):
        # On a well-behaved run nearly all accepted offspring sit within one
        # unit of the current window; measured on a frozen reference run.
        graph = random_sparse_graph(60, 150, seed=8)
        inst = Instance(graph=graph, weights=make_iid_weights(60, 1, 0.5),
                        budget=15.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        t_max = 50_000
        result = run(inst, RunConfig(algorithm="sw-gsemo", t_max=t_max, seed=12, trace=True))
        tr = result.trace
        accepted = tr.accepted
        t = np.arange(1, t_max + 1)[accepted]
        c_hat = t / t_max * inst.budget
        g2 = tr.g2[accepted]
        near = (g2 >= np.floor(c_hat) - 1.0) & (g2 <= np.ceil(c_hat) + 1.0)
        assert near.mean() >= 0.95


class TestRunRepetitions:
    def test_seeding_is_stable(self):
        graph = random_sparse_graph(20, 40, seed=30)
        inst = Instance(graph=graph, weights=make_iid_weights(20, 1, 0.5),
                        budget=5.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        template = RunConfig(algorithm="gsemo", t_max=1000, seed=0)
        a = run_repetitions(inst, template, repetitions=3, base_seed=5, workers=1)
        b = run_repetitions(inst, template, repetitions=3, base_seed=5, workers=1)
        assert [r.best_g1 for r in a] == [r.best_g1 for r in b]
        assert [r.config["seed"] for r in a] == [[5, 0, 0], [5, 0, 1], [5, 0, 2]]

    def test_pool_matches_serial(self):
        graph = random_sparse_graph(40, 90, seed=31)
        inst = Instance(graph=graph, weights=make_iid_weights(40, 1, 0.5),
                        budget=8.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        template = RunConfig(algorithm="sw-gsemo", t_max=2000, seed=0)
        serial = run_repetitions(inst, template, repetitions=3, base_seed=5, cell_index=2, workers=1)
        pooled = run_repetitions(inst, template, repetitions=3, base_seed=5, cell_index=2, workers=2)

        def outcome(results):
            return [(r.best_g1, r.best_bits_hex, r.config["seed"]) for r in results]

        assert outcome(pooled) == outcome(serial)
        assert [r.config["seed"] for r in serial] == [[5, 2, 0], [5, 2, 1], [5, 2, 2]]

    def test_pool_keeps_a_bounded_window_in_flight(self, monkeypatch):
        graph = random_sparse_graph(20, 40, seed=32)
        inst = Instance(graph=graph, weights=make_iid_weights(20, 1, 0.5),
                        budget=5.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
        tasks = [(0, RunConfig(algorithm="gsemo", t_max=50, seed=(5, 0, rep))) for rep in range(30)]
        submitted = []

        class CountingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        workers = 2
        pooled, in_flight = [], []
        for outcome in harness._run_tasks([inst], tasks, workers):
            # Submitted and not yet yielded, the outcome at hand included.
            in_flight.append(len(submitted) - len(pooled))
            pooled.append(outcome)
        serial = list(harness._run_tasks([inst], tasks, 1))

        def outcome(results):
            return [(r.best_g1, r.best_bits_hex, r.config["seed"]) for r in results]

        assert len(submitted) == len(tasks)
        assert max(in_flight) == harness.IN_FLIGHT_PER_WORKER * workers
        assert outcome(pooled) == outcome(serial)
