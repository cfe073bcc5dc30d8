import json
import math
import resource
import subprocess
import sys

import pytest

from conftest import random_sparse_graph
from oracles import save_edge_list


def cli(*args, address_space=None):
    """Exit code, stdout and stderr of one CLI call; ``address_space``, in
    bytes, caps the child's virtual memory, so that a call that tries a huge
    allocation fails with ``MemoryError`` instead of taking the memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    proc = subprocess.run(
        [sys.executable, "-m", "ccsubmod.cli", *args],
        capture_output=True,
        text=True,
        preexec_fn=cap if address_space else None,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    g = random_sparse_graph(40, 90, seed=50)
    p = tmp_path_factory.mktemp("cli") / "synth40.txt"
    save_edge_list(g, p)
    return p


RUN_FLAGS = [
    "--weights", "iid", "--a", "1", "--d", "0.5", "--B", "8",
    "--alpha", "0.1", "--surrogate", "cheb", "--algo", "sw-gsemo",
    "--tmax", "2000", "--seed", "7",
]


class TestRun:
    def test_json_payload_and_determinism(self, graph_file):
        code1, out1, err1 = cli("run", "--graph", str(graph_file), *RUN_FLAGS)
        code2, out2, _ = cli("run", "--graph", str(graph_file), *RUN_FLAGS)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["best_g1"] >= 0
        assert doc["evaluations"] == 2001
        assert doc["config"]["algorithm"] == "sw-gsemo"
        assert doc["config"]["B"] == 8.0

    def test_tmax_zero(self, graph_file):
        code, out, _ = cli(
            "run", "--graph", str(graph_file), "--weights", "iid", "--B", "8",
            "--alpha", "0.1", "--algo", "gsemo", "--tmax", "0",
        )
        assert code == 0
        assert json.loads(out)["best_g1"] == 0.0

    def test_stdout_is_pure_json(self, graph_file):
        code, out, _ = cli("run", "--graph", str(graph_file), *RUN_FLAGS)
        assert code == 0
        json.loads(out)  # no leading/trailing noise

    def test_invalid_dispersion_is_config_error(self, graph_file):
        code, out, err = cli(
            "run", "--graph", str(graph_file), "--weights", "iid", "--a", "1",
            "--d", "1.5", "--B", "8", "--alpha", "0.1", "--algo", "gsemo", "--tmax", "10",
        )
        assert code == 2
        assert out == ""
        assert "error" in err.lower()

    def test_missing_graph_is_config_error(self, tmp_path):
        code, _, _ = cli(
            "run", "--graph", str(tmp_path / "none.txt"), "--weights", "iid",
            "--B", "8", "--alpha", "0.1", "--algo", "gsemo", "--tmax", "10",
        )
        assert code == 2

    def test_id_beyond_int64_is_config_error(self, tmp_path):
        graph = tmp_path / "huge.txt"
        graph.write_text("1 2\n2 99999999999999999999\n")
        code, out, err = cli("run", "--graph", str(graph), *RUN_FLAGS)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error:")
        assert f"{graph}:2: id or size beyond int64" in err

    # Files that ask for 2**32 nodes or more, which no run can index.
    # Without the loader's limit the first would exit 1 with an
    # OverflowError and the others would ask for 32 GiB or more, so the CLI
    # runs under a 4 GiB cap.
    @pytest.mark.parametrize("name, text, where", [
        ("zero-based.txt", "0 9223372036854775807\n", ":1: node id 9223372036854775807 needs"),
        ("zero-based.txt", "1 2\n0 4294967296\n", ":2: node id 4294967296 needs 4294967297 nodes"),
        ("header.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n4294967296 4294967296 1\n1 2\n",
         ":2: size header declares 4294967296 nodes"),
    ])
    def test_node_count_of_2_to_the_32_is_config_error(self, tmp_path, name, text, where):
        graph = tmp_path / name
        graph.write_text(text)
        code, out, err = cli("run", "--graph", str(graph), *RUN_FLAGS, address_space=4 << 30)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error:")
        assert f"{graph}{where}" in err
        assert "the limit is 2**32 - 1" in err

    # Files under that limit whose graph still cannot be built. At
    # n = 2**32 - 1 the edge keys src * n + dst would overflow int64, and a
    # header that declares three billion isolated nodes asks for 24 GiB per
    # int64 array. The 4 GiB cap makes a regression fail instead of
    # allocating.
    @pytest.mark.parametrize("name, text, message", [
        ("zero-based.txt", "0 4294967294\n",
         ": 4294967295 nodes overflow the int64 edge keys; the limit is 3037000499"),
        ("header.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3000000000 3000000000 1\n1 2\n",
         ": a graph of 3000000000 nodes does not fit in memory"),
    ], ids=["key-overflow", "huge-header"])
    def test_unbuildable_graph_is_config_error(self, tmp_path, name, text, message):
        graph = tmp_path / name
        graph.write_text(text)
        code, out, err = cli("run", "--graph", str(graph), *RUN_FLAGS, address_space=4 << 30)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error:")
        assert f"{graph}{message}" in err

    # A repeated flag overrides the earlier one in RUN_FLAGS.
    @pytest.mark.parametrize("flag", ["--weights", "--surrogate", "--regime"])
    def test_unknown_name_is_config_error(self, graph_file, flag):
        code, out, err = cli("run", "--graph", str(graph_file), *RUN_FLAGS, flag, "bogus-name")
        assert code == 2
        assert out == ""
        assert "'bogus-name'" in err

    # A later flag overrides the one in RUN_FLAGS. An infinite budget, or a
    # Chebyshev tail coefficient that overflows, would otherwise make every
    # selection feasible or none.
    @pytest.mark.parametrize("algo", ["gsemo", "sw-gsemo", "nsga2"])
    @pytest.mark.parametrize("flags, message", [
        (["--B", "inf"], "budget B must be positive and finite, got inf"),
        (["--B", "1e309"], "budget B must be positive and finite, got inf"),
        (["--alpha", "1e-320", "--surrogate", "chebyshev"],
         "alpha=1e-320 is too small: the chebyshev surrogate weight overflows"),
    ], ids=["B-inf", "B-1e309", "alpha-1e-320"])
    def test_unusable_budget_or_alpha_is_config_error(self, graph_file, algo, flags, message):
        code, out, err = cli("run", "--graph", str(graph_file), *RUN_FLAGS, "--algo", algo, *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_unknown_algorithm_fails_before_the_graph_is_read(self, tmp_path):
        code, out, err = cli("run", "--graph", str(tmp_path / "none.txt"), *RUN_FLAGS, "--algo", "bogus-name")
        assert code == 2
        assert out == ""
        assert "unknown algorithm 'bogus-name'" in err
        assert "none.txt" not in err

    def test_unknown_flag_rejected(self, graph_file):
        code, _, _ = cli("run", "--graph", str(graph_file), "--bogus", "1")
        assert code == 2

    @pytest.mark.parametrize("weights", ["iid", "degree"])
    def test_embedded_config_regenerates_run(self, graph_file, weights):
        base = [
            "run", "--graph", str(graph_file), "--weights", weights, "--d", "0.5",
            "--B", "8", "--alpha", "0.1", "--surrogate", "cheb",
            "--algo", "sw-gsemo", "--tmax", "2000", "--seed", "7",
        ]
        code, out, _ = cli(*base)
        assert code == 0
        cfg = json.loads(out)["config"]
        replay = [
            "run", "--graph", cfg["graph"], "--weights", cfg["weights"],
            "--d", str(cfg["d"]), "--B", str(cfg["B"]),
            "--alpha", str(cfg["alpha"]), "--surrogate", cfg["surrogate"],
            "--algo", cfg["algorithm"], "--tmax", str(cfg["t_max"]),
            "--seed", str(cfg["seed"][0]), "--regime", cfg["regime"],
        ]
        if "a" in cfg:
            replay += ["--a", str(cfg["a"])]
        code2, out2, _ = cli(*replay)
        assert code2 == 0
        assert out2 == out

    def test_trace_written(self, graph_file, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = cli(
            "run", "--graph", str(graph_file), *RUN_FLAGS, "--trace", str(trace_path)
        )
        assert code == 0
        assert json.loads(out)["trace_path"] == str(trace_path)
        header = trace_path.read_text().splitlines()[0]
        assert header == "t,parent_g2,g1,g2,accepted,in_window,window_count"


class TestBudgets:
    def test_synthetic_budget_triple(self, graph_file):
        code, out, _ = cli("budgets", "--graph", str(graph_file))
        assert code == 0
        assert out.strip() == "6 2 4"  # n = 40

    def test_load_failure(self, tmp_path):
        code, _, _ = cli("budgets", "--graph", str(tmp_path / "no.txt"))
        assert code == 2


class TestInspect:
    def test_summary_fields(self, graph_file):
        code, out, _ = cli("inspect-graph", "--graph", str(graph_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 40
        assert doc["edges"] > 0
        assert set(doc) >= {"degree_min", "degree_max", "degree_mean", "isolated"}


class TestExperiment:
    def write_config(self, graph_file, tmp_path, out_name="out"):
        doc = {
            "t_max": [500],
            "repetitions": 2,
            "base_seed": 1,
            "output_dir": str(tmp_path / out_name),
            "instances": [
                {"graph": str(graph_file), "weights": "iid", "budgets": [8],
                 "alphas": [0.1], "surrogates": ["chebyshev"]}
            ],
            "algorithms": [{"algorithm": "gsemo"}, {"algorithm": "sw-gsemo"}],
        }
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(doc))
        return p

    def test_grid_runs_and_writes_outputs(self, graph_file, tmp_path):
        cfg = self.write_config(graph_file, tmp_path)
        code, _, _ = cli("experiment", "--config", str(cfg), "--workers", "1")
        assert code == 0
        assert (tmp_path / "out" / "table.csv").exists()
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert len(results["cells"]) == 2

    def test_progress_line_per_executed_run(self, graph_file, tmp_path):
        cfg = self.write_config(graph_file, tmp_path, "out10")
        code, out, err = cli("experiment", "--config", str(cfg), "--workers", "2")
        assert code == 0
        assert out == ""
        progress = [line.split("] ") for line in err.splitlines() if line.startswith("[")]
        assert [count for count, _ in progress] == ["[1/4", "[2/4", "[3/4", "[4/4"]
        runs = (tmp_path / "out10" / "runs").glob("*.json")
        assert {run for _, run in progress} == {p.stem.replace("__rep", " rep ") for p in runs}
        code, out, err = cli("experiment", "--config", str(cfg), "--workers", "2", "--resume")
        assert code == 0
        assert out == ""
        assert not [line for line in err.splitlines() if line.startswith("[")]

    def test_empty_grid_is_config_error(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"t_max": [], "instances": [], "algorithms": []}))
        code, _, _ = cli("experiment", "--config", str(p))
        assert code == 2

    def test_duplicate_cell_id_is_config_error(self, graph_file, tmp_path):
        doc = json.loads(self.write_config(graph_file, tmp_path, "out6").read_text())
        doc["algorithms"] = [{"algorithm": "sw-gsemo"}, {"algorithm": "sw-gsemo", "regime": "expected-g2"}]
        p = tmp_path / "duplicate.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "1")
        assert code == 2
        assert "SW-GSEMO" in err

    def test_partial_failure_exit_code(self, graph_file, tmp_path):
        doc = json.loads(self.write_config(graph_file, tmp_path, "out3").read_text())
        doc["instances"].append({"graph": str(tmp_path / "missing.txt"), "budgets": [3]})
        p = tmp_path / "partial.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "1")
        assert code == 3
        assert "missing.txt" in err

    def test_unbuildable_cell_exit_code(self, graph_file, tmp_path):
        # A cell whose algorithm cannot be built is a config fault: exit 2
        # before any run starts, with no progress line and no output.
        doc = json.loads(self.write_config(graph_file, tmp_path, "out5").read_text())
        doc["algorithms"].append({"algorithm": "nsga2", "population": 5, "children": 10})
        p = tmp_path / "unbuildable.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "2")
        assert code == 2
        assert "algorithms[2]: children must not exceed population size" in err
        assert not [line for line in err.splitlines() if line.startswith("[")]
        assert not (tmp_path / "out5").exists()

    def test_malformed_worker_count_is_config_error(self, graph_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CCSUBMOD_WORKERS", "abc")
        cfg = self.write_config(graph_file, tmp_path, "out13")
        code, _, err = cli("experiment", "--config", str(cfg))
        assert code == 2
        assert "CCSUBMOD_WORKERS must be an integer, got 'abc'" in err
        assert not (tmp_path / "out13").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"budgets": [0]}, "instances[0] (synth40): budget B must be positive"),
            ({"budgets": [math.inf]}, "instances[0] (synth40): budget B must be positive and finite, got inf"),
            ({"alphas": [1e-320]},
             "instances[0] (synth40): alpha=1e-320 is too small: the chebyshev surrogate weight overflows"),
            ({"alphas": [1.5]}, "instances[0] (synth40): alpha must lie in (0, 1)"),
            ({"alphas": ["x"]}, "alphas[0] in instances[0] must be of type float, got 'x'"),
            ({"t_max": [1.5]}, "t_max[0] in the config must be of type int, got 1.5"),
            ({"t_max": [True]}, "t_max[0] in the config must be of type int, got True"),
            ({"t_max": [-1]}, "t_max[0]: t_max must be non-negative"),
            ({"base_seed": -1}, "base_seed must be >= 0"),
            ({"weights": "bogus"}, "instances[0] (synth40): unknown weight kind 'bogus'"),
            ({"a": 1, "d": 5}, "instances[0] (synth40): dispersion d=5.0 outside (0, 1]"),
            ({"surrogates": ["bogus"]}, "instances[0] (synth40): unknown surrogate kind 'bogus'"),
            ({"algorithm": "bogus"}, "algorithms[2]: unknown algorithm 'bogus'"),
            ({"algorithm": "sw-gsemo", "regime": "bogus"}, "algorithms[2]: unknown g2 regime 'bogus'"),
            ({"alphas": []}, "'alphas' in instances[0] must not be empty"),
            ({"surrogates": []}, "'surrogates' in instances[0] must not be empty"),
            ({"budgets": []}, "'budgets' in instances[0] must not be empty"),
            ({"name": "../x"}, "instances[0] (../x): name '../x' holds '/'"),
            ({"algorithm": "gsemo", "label": "a/b"}, "algorithms[2]: label 'a/b' holds '/'"),
        ],
        ids=["budgets-0", "budgets-inf", "alphas-1e-320", "alphas-1.5", "alphas-string", "t_max-float",
             "t_max-bool", "t_max-negative", "base_seed-negative", "weights", "d", "surrogates", "algorithm", "regime",
             "alphas-empty", "surrogates-empty", "budgets-empty", "name-path", "label-path"],
    )
    def test_config_fault_is_config_error(self, graph_file, tmp_path, edit, message):
        # Faults found while building the grid's cells exit 2 as well, before
        # any run starts or the output directory is made.
        doc = json.loads(self.write_config(graph_file, tmp_path, "out5").read_text())
        if "algorithm" in edit:
            doc["algorithms"].append(edit)
        elif set(edit) <= {"t_max", "base_seed"}:
            doc.update(edit)
        else:
            doc["instances"][0].update(edit)
        p = tmp_path / "fault.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "2")
        assert code == 2
        assert message in err
        assert not (tmp_path / "out5").exists()

    def test_unknown_config_key_is_config_error(self, graph_file, tmp_path):
        doc = json.loads(self.write_config(graph_file, tmp_path, "out7").read_text())
        doc["instances"][0]["alpha"] = [0.5]
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "1")
        assert code == 2
        assert "'alpha'" in err
        assert not (tmp_path / "out7").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("t_max", 50), ("instances", {}), ("algorithms", {"algorithm": "gsemo"}),
         ("alphas", 0.1), ("surrogates", "chebyshev"), ("budgets", 3), ("budgets", "all")],
    )
    def test_scalar_for_list_key_is_config_error(self, graph_file, tmp_path, key, value):
        doc = json.loads(self.write_config(graph_file, tmp_path, "out11").read_text())
        (doc["instances"][0] if key in ("alphas", "surrogates", "budgets") else doc)[key] = value
        p = tmp_path / "scalar.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "1")
        assert code == 2
        assert f"{key!r}" in err
        assert not (tmp_path / "out11").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {**doc, "instances": [5]}, "instances[0] must be a JSON object, got a number"),
            (lambda doc: {**doc, "algorithms": [5]}, "algorithms[0] must be a JSON object, got a number"),
            (lambda doc: [doc], "the config must be a JSON object, got an array"),
            (lambda doc: {**doc, "repetitions": "3"}, "'repetitions' in the config must be of type int, got '3'"),
            (lambda doc: {**doc, "base_seed": "x"}, "'base_seed' in the config must be of type int, got 'x'"),
            (lambda doc: {**doc, "instances": [{k: v for k, v in doc["instances"][0].items() if k != "graph"}]},
             "instances[0] has no 'graph' key"),
        ],
        ids=["instance-not-object", "algorithm-not-object", "top-level-array", "repetitions-string",
             "base-seed-string", "missing-graph"],
    )
    def test_malformed_entry_is_config_error(self, graph_file, tmp_path, edit, message):
        doc = edit(json.loads(self.write_config(graph_file, tmp_path, "out12").read_text()))
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "1")
        assert code == 2
        assert message in err
        assert not (tmp_path / "out12").exists()

    @pytest.mark.parametrize("n", [8, 15])
    def test_budget_grid_on_small_graph_is_config_error(self, tmp_path, n):
        # n // 20 is 0 below n = 20; below n = 10 n // 10 is 0 as well.
        graph_path = tmp_path / f"tiny{n}.txt"
        save_edge_list(random_sparse_graph(n, n, seed=n), graph_path)
        doc = {
            "t_max": [50],
            "repetitions": 1,
            "output_dir": str(tmp_path / "out"),
            "instances": [{"graph": str(graph_path), "budgets": [3]},
                          {"graph": str(graph_path), "budgets": "grid", "name": "grid-cells"}],
            "algorithms": [{"algorithm": "gsemo"}],
        }
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(doc))
        code, _, err = cli("experiment", "--config", str(p), "--workers", "1")
        assert code == 2
        assert "instances[1] (grid-cells)" in err
        assert f"n = {n}" in err
        assert not (tmp_path / "out").exists()

    def test_resume_recomputes_truncated_run_file(self, graph_file, tmp_path):
        cfg = self.write_config(graph_file, tmp_path, "out8")
        assert cli("experiment", "--config", str(cfg), "--workers", "1")[0] == 0
        victim = sorted((tmp_path / "out8" / "runs").glob("*.json"))[0]
        whole = victim.read_text()
        victim.write_text(whole[: len(whole) // 2])
        code, _, err = cli("experiment", "--config", str(cfg), "--workers", "1", "--resume")
        assert code == 0
        assert str(victim) in err
        recomputed, original = json.loads(victim.read_text()), json.loads(whole)
        del recomputed["wall_time_s"], original["wall_time_s"]
        assert recomputed == original

    def test_resume_completes_missing_cells(self, graph_file, tmp_path):
        cfg = self.write_config(graph_file, tmp_path, "out4")
        assert cli("experiment", "--config", str(cfg), "--workers", "1")[0] == 0
        runs = sorted((tmp_path / "out4" / "runs").glob("*.json"))
        runs[0].unlink()
        code, _, _ = cli("experiment", "--config", str(cfg), "--workers", "1", "--resume")
        assert code == 0
        assert len(list((tmp_path / "out4" / "runs").glob("*.json"))) == len(runs)

    def test_dying_worker_fails_its_runs_and_resume_finishes(self, graph_file, tmp_path):
        # The patched run kills the worker process of every repetition 1; pool
        # workers are forked, so they inherit the patch.
        kill_rep1 = (
            "import os, sys\n"
            "from ccsubmod import cli, harness\n"
            "run = harness.run\n"
            "harness.run = lambda inst, cfg: os._exit(1) if cfg.seed[2] == 1 else run(inst, cfg)\n"
            "raise SystemExit(cli.main(sys.argv[1:]))\n"
        )
        cfg = self.write_config(graph_file, tmp_path, "out9")
        proc = subprocess.run(
            [sys.executable, "-c", kill_rep1, "experiment", "--config", str(cfg), "--workers", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        results = json.loads((tmp_path / "out9" / "results.json").read_text())
        assert results["errors"] and all("BrokenProcessPool" in e["error"] for e in results["errors"])
        failed = {(e["cell_id"], e["repetition"]) for e in results["errors"]}
        assert {(c["cell_id"], 1) for c in results["cells"]} <= failed
        assert sum(len(c["best_g1"]) for c in results["cells"]) + len(failed) == 4
        code, _, _ = cli("experiment", "--config", str(cfg), "--workers", "2", "--resume")
        assert code == 0
        (tmp_path / "fresh").mkdir()
        fresh = self.write_config(graph_file, tmp_path / "fresh", "out9")
        assert cli("experiment", "--config", str(fresh), "--workers", "2")[0] == 0
        for name in ("results.json", "table.csv"):
            assert (tmp_path / "out9" / name).read_bytes() == (tmp_path / "fresh" / "out9" / name).read_bytes()
