"""The decision of the random-stream gate (tests/data/stream_equivalence.py)
at desk scale: two samples of one stream pass, and mutation at rate 2/n is
flagged."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "data"))

from conftest import random_sparse_graph  # noqa: E402
from stream_equivalence import Cell, collect, compare, doubled_mutation_rate  # noqa: E402

GRAPH = random_sparse_graph(300, 600, seed=18)
# A budget far above what 600 evaluations reach, so that growth, which
# the mutation rate drives, decides best_g1.
BUDGET = 60.0
CELLS = [
    Cell("gsemo/iid/chebyshev", "gsemo", 600, "iid", "chebyshev"),
    Cell("sw-gsemo/degree/chernoff", "sw-gsemo", 600, "degree", "chernoff"),
    Cell("nsga2-20/iid/chernoff", "nsga2", 600, "iid", "chernoff"),
]
SEEDS = 30


def test_identical_samples_pass():
    sample = collect(GRAPH, BUDGET, CELLS, SEEDS)
    outcome = compare(sample, sample)
    assert outcome["tests"] == 3 * len(CELLS) and outcome["threshold"] == 0.05 / outcome["tests"]
    assert outcome["significant"] == 0 and all(row["p"] == 1.0 for row in outcome["rows"])


def test_mutation_at_rate_two_over_n_is_flagged():
    baseline = collect(GRAPH, BUDGET, CELLS, SEEDS)
    with doubled_mutation_rate():
        doubled = collect(GRAPH, BUDGET, CELLS, SEEDS)
    outcome = compare(baseline, doubled)
    flagged = {(row["cell"], row["metric"]) for row in outcome["rows"] if row["significant"]}
    assert {("gsemo/iid/chebyshev", "best_g1"), ("nsga2-20/iid/chernoff", "best_g1")} <= flagged
    # A sample of the same stream under other seeds is not flagged.
    other = collect(GRAPH, BUDGET, CELLS, SEEDS, base_seed=19)
    assert other != baseline
    assert compare(baseline, other)["significant"] == 0
