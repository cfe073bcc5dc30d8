"""The benchmark's workloads: what each one builds and runs.

``csphd-runs`` and ``condmat-sweep`` call :func:`ccsubmod.algorithms.run`
``repeats`` times per entry of ``runs``; ``grid-short`` drives
:func:`ccsubmod.harness.run_experiment` over ``grid_config``. Every run seed
derives from the workload seed, so one seed fixes every input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from graphgen import CONDMAT, CSPHD, GraphSpec

# The grid runs on two workers, the size of the box the baseline was taken on;
# the traced run uses one so that every span lands in one process.
GRID_WORKERS = 2


@dataclass(frozen=True)
class RunSpec:
    label: str
    algorithm: str
    t_max: int
    population: int = 20
    children: int = 10
    # Runs of under a second are repeated, so that each sample times more
    # than one of them and the median rides out short bursts of host load.
    repeats: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    graph: GraphSpec
    budget: int
    runs: tuple[RunSpec, ...] = field(default_factory=tuple)
    alpha: float = 0.1
    surrogate: str = "chebyshev"
    a: int = 1
    d: float = 0.5

    @property
    def is_grid(self) -> bool:
        return not self.runs


ALGORITHM_LABELS = ("gsemo", "sw-gsemo", "nsga2-20", "nsga2-100")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "csphd-runs",
            CSPHD,
            budget=CSPHD.n // 20,
            runs=(
                RunSpec("gsemo", "gsemo", 10000),
                RunSpec("sw-gsemo", "sw-gsemo", 10000),
                RunSpec("nsga2-20", "nsga2", 5000, 20, 10),
                RunSpec("nsga2-100", "nsga2", 5000, 100, 50),
            ),
        ),
        Workload(
            "condmat-sweep",
            CONDMAT,
            budget=CONDMAT.n // 10,
            runs=(
                RunSpec("sw-gsemo", "sw-gsemo", 6000),
                RunSpec("gsemo", "gsemo", 5000, repeats=2),
                RunSpec("nsga2-20", "nsga2", 5000, 20, 10, repeats=2),
                RunSpec("nsga2-100", "nsga2", 5000, 100, 50, repeats=2),
            ),
        ),
        Workload("grid-short", CSPHD, budget=CSPHD.n // 20),
    )
}

GRID_T_MAX = 100
GRID_REPETITIONS = 4


def grid_config(graph_path: Path, seed: int):
    """Two instance families on one graph, five algorithm columns."""
    from ccsubmod.harness import AlgorithmSpec, ExperimentConfig, InstanceSpec

    return ExperimentConfig(
        instances=[
            InstanceSpec(
                graph=str(graph_path), weights="iid", a=1, d=0.5, budgets="grid",
                alphas=(0.1, 0.001), surrogates=("chebyshev", "chernoff"), name="iid",
            ),
            InstanceSpec(
                graph=str(graph_path), weights="degree", d=1.0, budgets="grid",
                alphas=(0.1,), surrogates=("chebyshev",), name="degree",
            ),
        ],
        algorithms=[
            AlgorithmSpec("gsemo", label="gsemo"),
            AlgorithmSpec("sw-gsemo", label="sw-gsemo"),
            AlgorithmSpec("sw-gsemo", regime="expected-g2", label="sw-gsemo-expected"),
            AlgorithmSpec("nsga2", population=20, children=10, label="nsga2-20"),
            AlgorithmSpec("nsga2", population=100, children=50, label="nsga2-100"),
        ],
        t_max=[GRID_T_MAX],
        repetitions=GRID_REPETITIONS,
        base_seed=seed,
        name="grid-short",
    )


def grid_label(config: dict) -> str:
    """Algorithm label of a stored run record, in the ``ALGORITHM_LABELS`` set."""
    if config["algorithm"] == "nsga2":
        return f"nsga2-{config['population']}"
    return config["algorithm"]
