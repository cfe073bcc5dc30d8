"""Chance-constrained monotone submodular optimization with Pareto-based
evolutionary algorithms, plus a max-coverage benchmark harness."""

from .algorithms import (
    Individual,
    ParetoArchive,
    RunConfig,
    RunResult,
    make_rng,
    run,
)
from .chance import Evaluator, G2Regime, Objectives, dominates
from .graphs import Graph, GraphFormatError, load_graph, save_edge_list
from .harness import (
    ExperimentConfig,
    emit_table,
    emit_trace,
    load_experiment_config,
    run_experiment,
    run_repetitions,
)
from .problem import (
    Instance,
    SurrogateKind,
    WeightModel,
    default_budgets,
    make_degree_weights,
    make_iid_weights,
)
from .stats import kruskal_wallis, posthoc_marks

__version__ = "0.1.0"

__all__ = [
    "Individual",
    "ParetoArchive",
    "RunConfig",
    "RunResult",
    "make_rng",
    "run",
    "Evaluator",
    "G2Regime",
    "Objectives",
    "dominates",
    "Graph",
    "GraphFormatError",
    "load_graph",
    "save_edge_list",
    "ExperimentConfig",
    "emit_table",
    "emit_trace",
    "load_experiment_config",
    "run_experiment",
    "run_repetitions",
    "Instance",
    "SurrogateKind",
    "WeightModel",
    "default_budgets",
    "make_degree_weights",
    "make_iid_weights",
    "kruskal_wallis",
    "posthoc_marks",
    "__version__",
]
