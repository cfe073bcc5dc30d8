"""Acceptance gate.

One test per release criterion, each enforced at its stated tolerance and
reporting one ``[ACCEPTANCE]`` line (run with ``pytest -s`` to see them).

Criteria 1-5 reproduce reference results on the standard benchmark graphs
(ca-CSphd, ca-GrQc, ca-CondMat from the network data repository). Those
files are not bundled; place them under ``data/`` (or ``$CCSUBMOD_DATA``)
as described in the README to enable the checks; without them they skip.
Expect roughly 30-60 minutes for the full data-backed gate; the synthetic
criteria run in a few minutes.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccsubmod import (
    G2Regime,
    Instance,
    RunConfig,
    SurrogateKind,
    kruskal_wallis,
    load_experiment_config,
    load_graph,
    make_degree_weights,
    make_iid_weights,
    posthoc_marks,
    run,
)
from ccsubmod.chance import Evaluator
from ccsubmod.harness import AlgorithmSpec, ExperimentConfig, InstanceSpec, run_experiment
from conftest import DATA_DIR, random_sparse_graph
from oracles import exhaustive_optimum, filter_nondominated, full_state, monte_carlo_violation, save_edge_list

REPETITIONS = 10
BASE_SEED = 20260808
REPO_ROOT = Path(__file__).resolve().parents[1]

# Expected node counts guard against picking up a different file under the
# same dataset name.
DATASETS = {
    "csphd": (("ca-CSphd.mtx", "ca-CSphd.edges"), 1882),
    "grqc": (("ca-GrQc.mtx", "ca-GrQc.edges"), 4158),
    "condmat": (("ca-CondMat.mtx", "ca-CondMat.edges"), 21363),
}

_GRAPHS: dict = {}
_RUNS: dict = {}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def skip_missing(criterion: str, dataset: str):
    names, expected_n = DATASETS[dataset]
    for name in names:
        path = DATA_DIR / name
        if path.exists():
            if dataset not in _GRAPHS:
                graph = load_graph(path)
                assert graph.n == expected_n, (
                    f"{path} has {graph.n} nodes, expected {expected_n}; wrong file version?"
                )
                _GRAPHS[dataset] = graph
            return _GRAPHS[dataset]
    print(f"[ACCEPTANCE] {criterion}: SKIPPED ({names[0]} not in {DATA_DIR}; see README: Datasets)", flush=True)
    pytest.skip(f"{names[0]} not present under {DATA_DIR}")


def benchmark_runs(criterion, dataset, weights, surrogate, alpha, budget, t_max,
                   algorithm, regime=G2Regime.SURROGATE, repetitions=REPETITIONS,
                   cell_index=0, trace=False):
    """Cached repeated runs for one benchmark configuration; repetition r
    runs with the seed (BASE_SEED, cell_index, r), as grid cell
    ``cell_index`` of an experiment would."""
    key = (dataset, weights, surrogate.value, alpha, budget, t_max, algorithm, regime.value, trace)
    if key not in _RUNS:
        graph = skip_missing(criterion, dataset)
        model = make_iid_weights(graph.n, 1, 0.5) if weights == "iid" else make_degree_weights(graph, 1.0)
        instance = Instance(graph=graph, weights=model, budget=float(budget),
                            alpha=alpha, surrogate=surrogate, name=dataset)
        template = RunConfig(algorithm=algorithm, t_max=t_max, regime=regime, trace=trace)
        configs = [replace(template, seed=(BASE_SEED, cell_index, rep)) for rep in range(repetitions)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            _RUNS[key] = list(pool.map(run, [instance] * repetitions, configs))
    return _RUNS[key]


def exact_hits(results, target):
    return sum(r.best_g1 == target for r in results)


# ---------------------------------------------------------------------------
# Criteria 1-4: benchmark table reproduction (dataset-gated)
# ---------------------------------------------------------------------------

def test_criterion_1_csphd_iid_chebyshev_reproduction():
    criterion = "C1 ca-CSphd iid chebyshev B=43 alpha=0.1 -> 546"
    hits = {}
    for i, algorithm in enumerate(("gsemo", "sw-gsemo")):
        results = benchmark_runs(criterion, "csphd", "iid", SurrogateKind.CHEBYSHEV,
                                 0.1, 43, 1_500_000, algorithm, cell_index=10 + i)
        hits[algorithm] = exact_hits(results, 546.0)
    ok = all(h >= 9 for h in hits.values())
    report(criterion, ok, f"exact hits/10: {hits}")
    assert ok, hits


def test_criterion_2_csphd_iid_chernoff_reproduction():
    criterion = "C2 ca-CSphd iid chernoff B=43 -> 478 / 413"
    hits = {}
    for i, (alpha, target) in enumerate(((0.1, 478.0), (0.001, 413.0))):
        for j, algorithm in enumerate(("gsemo", "sw-gsemo")):
            results = benchmark_runs(criterion, "csphd", "iid", SurrogateKind.CHERNOFF,
                                     alpha, 43, 1_500_000, algorithm, cell_index=20 + 2 * i + j)
            hits[(algorithm, alpha)] = exact_hits(results, target)
    ok = all(h >= 9 for h in hits.values())
    report(criterion, ok, f"exact hits/10: {hits}")
    assert ok, hits


def test_criterion_3_csphd_degree_weights_reproduction():
    criterion = "C3 ca-CSphd degree weights B=43 -> 38/22/36/33"
    targets = {
        (SurrogateKind.CHEBYSHEV, 0.1): 38.0,
        (SurrogateKind.CHEBYSHEV, 0.001): 22.0,
        (SurrogateKind.CHERNOFF, 0.1): 36.0,
        (SurrogateKind.CHERNOFF, 0.001): 33.0,
    }
    hits = {}
    for i, ((surrogate, alpha), target) in enumerate(targets.items()):
        results = benchmark_runs(criterion, "csphd", "degree", surrogate, alpha, 43,
                                 1_500_000, "sw-gsemo", regime=G2Regime.EXPECTED,
                                 cell_index=30 + i)
        hits[(surrogate.value, alpha)] = exact_hits(results, target)
    ok = all(h >= 9 for h in hits.values())
    report(criterion, ok, f"exact hits/10: {hits}")
    assert ok, hits


def test_criterion_4_grqc_ordering_with_margin():
    criterion = "C4 ca-GrQc B=207 t=5e5: sw-gsemo beats gsemo by >= 200"
    means = {}
    for i, algorithm in enumerate(("gsemo", "sw-gsemo")):
        results = benchmark_runs(criterion, "grqc", "iid", SurrogateKind.CHEBYSHEV,
                                 0.1, 207, 500_000, algorithm, cell_index=40 + i)
        means[algorithm] = float(np.mean([r.best_g1 for r in results]))
    gap = means["sw-gsemo"] - means["gsemo"]
    ok = gap >= 200.0
    report(criterion, ok, f"means {means}, gap {gap:.1f}")
    assert ok, means


# ---------------------------------------------------------------------------
# Criterion 5: archive population bounds
# ---------------------------------------------------------------------------

def test_criterion_5_population_bounds():
    criterion = "C5 peak archive <= min(n+1, B+1); ca-CondMat trade-offs in [120,147]"
    iid_keys = [key for key in _RUNS if key[1] == "iid"]
    if not iid_keys:
        print(f"[ACCEPTANCE] {criterion}: SKIPPED (no benchmark runs executed; datasets missing)", flush=True)
        pytest.skip("benchmark runs unavailable")
    violations = []
    for key in iid_keys:
        dataset, _, _, _, budget, _, algorithm, _, _ = key
        graph = _GRAPHS[dataset]
        bound = min(graph.n + 1, math.floor(budget / 1) + 1)
        for result in _RUNS[key]:
            if result.peak_archive_size > bound:
                violations.append((key, result.peak_archive_size, bound))
    condmat = benchmark_runs(criterion, "condmat", "iid", SurrogateKind.CHEBYSHEV,
                             0.1, 146, 500_000, "sw-gsemo", repetitions=1, cell_index=50)
    tradeoffs = condmat[0].archive_size
    ok = not violations and 120 <= tradeoffs <= 147
    report(criterion, ok, f"iid runs checked {sum(len(_RUNS[k]) for k in iid_keys)}, "
                          f"violations {violations}, condmat trade-offs {tradeoffs}")
    assert ok, (violations, tradeoffs)


# ---------------------------------------------------------------------------
# Criterion 6: sliding-window invariants (synthetic always; dataset extra)
# ---------------------------------------------------------------------------

def _window_checks(result, budget, t_max, max_occupancy):
    tr = result.trace
    t = np.arange(1, t_max + 1)
    c_hat = t / t_max * budget
    in_w = tr.in_window
    bad_low = np.flatnonzero(np.floor(c_hat[in_w]) > tr.parent_g2[in_w])
    bad_high = np.flatnonzero(tr.parent_g2[in_w] > np.ceil(c_hat[in_w]))
    occ_bad = int((tr.window_count > max_occupancy).sum())
    return len(bad_low) + len(bad_high), occ_bad


def test_criterion_6_window_invariants():
    criterion = "C6 window invariants (parent in window; occupancy 1 iid / 2 expected)"
    graph = random_sparse_graph(300, 900, seed=61)
    t_max = 200_000
    problems = []

    inst_iid = Instance(graph=graph, weights=make_iid_weights(300, 1, 0.5),
                        budget=30.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
    res = run(inst_iid, RunConfig(algorithm="sw-gsemo", t_max=t_max,
                                  seed=(BASE_SEED, 60), trace=True))
    bounds_bad, occ_bad = _window_checks(res, 30.0, t_max, max_occupancy=1)
    problems += [("iid bounds", bounds_bad), ("iid occupancy", occ_bad)]

    inst_deg = Instance(graph=graph, weights=make_degree_weights(graph, 1.0),
                        budget=60.0, alpha=0.1, surrogate=SurrogateKind.CHEBYSHEV)
    res = run(inst_deg, RunConfig(algorithm="sw-gsemo", t_max=t_max,
                                  seed=(BASE_SEED, 61), regime=G2Regime.EXPECTED,
                                  trace=True))
    bounds_bad, occ_bad = _window_checks(res, 60.0, t_max, max_occupancy=2)
    problems += [("expected bounds", bounds_bad), ("expected occupancy", occ_bad)]

    # Same checks on a real traced benchmark run when the dataset is present.
    if (DATA_DIR / DATASETS["csphd"][0][0]).exists():
        results = benchmark_runs(criterion, "csphd", "iid", SurrogateKind.CHEBYSHEV,
                                 0.1, 43, 500_000, "sw-gsemo", repetitions=1,
                                 cell_index=60, trace=True)
        bounds_bad, occ_bad = _window_checks(results[0], 43.0, 500_000, max_occupancy=1)
        problems += [("csphd bounds", bounds_bad), ("csphd occupancy", occ_bad)]

    ok = all(count == 0 for _, count in problems)
    report(criterion, ok, f"violations: {problems}")
    assert ok, problems


# ---------------------------------------------------------------------------
# Criterion 7: Monte-Carlo soundness of the surrogate feasibility test
# ---------------------------------------------------------------------------

def test_criterion_7_surrogate_soundness():
    criterion = "C7 surrogate-feasible solutions violate the budget with rate <= alpha + 3se"
    samples = 100_000
    budget = 25.0
    graph = random_sparse_graph(500, 1500, seed=62)
    models = {
        "iid": make_iid_weights(500, 1, 0.5),
        "degree": make_degree_weights(graph, 1.0),
    }
    rng = np.random.default_rng(BASE_SEED)
    violations = []
    checked = 0
    for model_name, model in models.items():
        # 100 random surrogate-feasible solutions per model, split across
        # both tail bounds and both alpha endpoints.
        for kind in SurrogateKind:
            for alpha in (0.1, 0.001):
                instance = Instance(graph=graph, weights=model, budget=budget,
                                    alpha=alpha, surrogate=kind)
                evaluator = Evaluator(instance)
                threshold = alpha + 3 * math.sqrt(alpha * (1 - alpha) / samples)
                kept = 0
                while kept < 25:
                    k = int(rng.integers(1, 40))
                    idx = rng.choice(500, size=k, replace=False)
                    expected = float(model.expected[idx].sum())
                    if evaluator.surrogate_from(expected, k) > budget:
                        continue
                    kept += 1
                    checked += 1
                    rate = monte_carlo_violation(
                        model.expected[idx].astype(float), model.dispersion,
                        budget, rng, samples,
                    )
                    if rate > threshold:
                        violations.append((model_name, kind.value, alpha, rate))
    ok = not violations and checked == 200
    report(criterion, ok, f"{checked} solutions checked, violations: {violations}")
    assert ok, violations


# ---------------------------------------------------------------------------
# Criterion 8: desk-scale oracle equivalence
# ---------------------------------------------------------------------------

def _small_instance_case(i: int):
    rng = np.random.default_rng(1000 + i)
    n = int(rng.integers(10, 16))
    graph = random_sparse_graph(n, 2 * n, seed=2000 + i)
    surrogate = SurrogateKind.CHEBYSHEV if i % 2 == 0 else SurrogateKind.CHERNOFF
    alpha = 0.1 if i % 3 else 0.001
    budget = float(rng.integers(3, 9))
    model = make_iid_weights(n, 1, 0.5)
    instance = Instance(graph=graph, weights=model, budget=budget, alpha=alpha,
                        surrogate=surrogate, name=f"desk{i}")
    if not Evaluator(instance).constraint(1, 1.0)[1]:
        # No single node fits the budget, so the optimum would be the empty
        # selection's 0, which every optimizer keeps. Six cases (alpha =
        # 0.001, B <= 6) draw such a budget; raised, it admits exactly one
        # node under Chebyshev and two under Chernoff.
        extra = 8.0 if surrogate is SurrogateKind.CHEBYSHEV else 4.0
        instance = replace(instance, budget=budget + extra)
    return instance


def _desk_case_outcome(i: int) -> dict:
    instance = _small_instance_case(i)
    optimum, _ = exhaustive_optimum(instance)
    outcome = {"optimum": optimum, "hits": {}}

    # archive insertions replay against the brute-force filter
    from ccsubmod import ParetoArchive
    from ccsubmod.algorithms import Individual

    rng = np.random.default_rng(4000 + i)
    evaluator = Evaluator(instance)
    archive = ParetoArchive()
    pairs = []
    for _ in range(300):
        bits = (rng.random(instance.graph.n) < rng.uniform(0, 0.6)).astype(np.uint8)
        obj = evaluator.evaluate_bits(bits)
        pairs.append((obj.g1, obj.g2))
        state = full_state(instance.graph, bits)[0] if obj.g1 >= 0 else None
        archive.insert(Individual(state=state, size=int(bits.sum()), expected=0.0, g1=obj.g1, g2=obj.g2))
    outcome["archive_matches"] = (
        sorted((m.g1, m.g2) for m in archive.members) == filter_nondominated(pairs)
    )

    for algorithm in ("gsemo", "sw-gsemo", "nsga2"):
        cfg = RunConfig(algorithm=algorithm, t_max=100_000, seed=(3000, i),
                        population=20, children=10)
        outcome["hits"][algorithm] = run(instance, cfg).best_g1 == optimum
    return outcome


def test_criterion_8_desk_scale_oracles():
    criterion = "C8 archives match brute-force filter; optimizers hit exhaustive optimum >= 19/20"
    with ProcessPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(_desk_case_outcome, range(20)))
    archive_ok = all(o["archive_matches"] for o in outcomes)
    # A case whose optimum is the empty selection would be a free hit.
    assert all(o["optimum"] > 0 for o in outcomes)
    hits = {a: sum(o["hits"][a] for o in outcomes) for a in ("gsemo", "sw-gsemo", "nsga2")}
    ok = archive_ok and all(h >= 19 for h in hits.values())
    report(criterion, ok, f"archive filter matches: {archive_ok}, optimum hits/20: {hits}")
    assert ok, (archive_ok, hits)


# ---------------------------------------------------------------------------
# Criterion 9: statistics calibration
# ---------------------------------------------------------------------------

def test_criterion_9_statistics_calibration():
    criterion = "C9 rank statistics match reference values; marks gate and antisymmetry"
    with open(Path(__file__).parent / "data" / "kruskal_wallis_reference.json") as fh:
        fixtures = json.load(fh)
    assert len(fixtures) == 50
    worst_h = worst_p = 0.0
    for fixture in fixtures:
        h, p = kruskal_wallis(fixture["groups"])
        worst_h = max(worst_h, abs(h - fixture["h"]))
        worst_p = max(worst_p, abs(p - fixture["p"]))
    fixtures_ok = worst_h <= 1e-9 and worst_p <= 1e-9

    identical = posthoc_marks([[5.0, 6.0, 7.0]] * 4)
    identical_ok = all(m == "=" for row in identical for m in row)

    separated = posthoc_marks([list(range(30)), [x + 100.0 for x in range(30)]])
    separated_ok = separated[1][0] == "+" and separated[0][1] == "-"

    ok = fixtures_ok and identical_ok and separated_ok
    report(criterion, ok, f"max|dH|={worst_h:.2e}, max|dp|={worst_p:.2e}, "
                          f"identical '=' {identical_ok}, separated antisymmetric {separated_ok}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: full-grid capability, verified structurally at small scale
# ---------------------------------------------------------------------------

def test_criterion_10_full_grid_layout_capability(tmp_path):
    criterion = "C10 full ca-CondMat grid excluded from gating; layout capability verified structurally"
    # The shipped full-grid config parses and spans the complete benchmark
    # grid (not executed here: that is multi-day compute).
    cfg_path = REPO_ROOT / "configs" / "condmat-full.json"
    full = load_experiment_config(cfg_path)
    axes = (
        3  # budget grid for ca-CondMat
        * len(full.instances[0].alphas)
        * len(full.instances[0].surrogates)
        * len(full.t_max)
        * len(full.algorithms)
    )
    layout_ok = axes == 144 and full.repetitions == 30 and len(full.algorithms) == 4

    # Same table layout exercised end-to-end on a small synthetic grid.
    graph = random_sparse_graph(40, 90, seed=63)
    graph_path = tmp_path / "synth40.txt"
    save_edge_list(graph, graph_path)
    small = ExperimentConfig(
        instances=[InstanceSpec(graph=str(graph_path), weights="iid",
                                budgets=(6.0,), alphas=(0.1, 0.001),
                                surrogates=("chebyshev", "chernoff"))],
        algorithms=[
            AlgorithmSpec(algorithm="gsemo"),
            AlgorithmSpec(algorithm="sw-gsemo"),
            AlgorithmSpec(algorithm="nsga2", population=20, children=10),
            AlgorithmSpec(algorithm="nsga2", population=100, children=50),
        ],
        t_max=[2000],
        repetitions=3,
        base_seed=BASE_SEED,
        output_dir=str(tmp_path / "out"),
    )
    result_set = run_experiment(small, workers=2)
    table = (tmp_path / "out" / "table.csv").read_text().splitlines()
    header = table[0].split(",")
    rows = table[1:]
    small_ok = (
        result_set.ok
        and len(rows) == 4  # surrogates x alphas
        and header[:6] == ["graph", "weights", "surrogate", "B", "t_max", "alpha"]
        and len(header) == 6 + 3 * 4
        and all("(" in row.split(",")[8] for row in rows)  # stat marks rendered
    )
    ok = layout_ok and small_ok
    report(criterion, ok, f"full grid cells {axes} x {full.repetitions} reps declared; "
                          f"small-grid table rows {len(rows)}")
    assert ok
