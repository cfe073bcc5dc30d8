import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ccsubmod import Graph, Instance, SurrogateKind, make_iid_weights

# Real benchmark graphs are not bundled (see README "Datasets"); tests that
# reproduce published numbers locate them in data/ or $CCSUBMOD_DATA.
DATA_DIR = Path(os.environ.get("CCSUBMOD_DATA", Path(__file__).resolve().parents[1] / "data"))


def dataset_path(*names: str) -> Path:
    """First existing candidate file for a dataset, else skip the test."""
    for name in names:
        p = DATA_DIR / name
        if p.exists():
            return p
    pytest.skip(
        f"dataset {names[0]} not present; download it into {DATA_DIR} "
        "(see README: Datasets) to run this check"
    )


def random_sparse_graph(n: int, m: int, seed: int) -> Graph:
    """Deterministic random graph used by synthetic tests."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return Graph.from_edges(n, edges)


# Graphs with the shapes that coverage computations must get right: isolated
# trailing nodes (rows of length one), a hub whose row spans the graph, and
# input edges that are duplicated or self loops.
GRAPHS = {
    "isolated-tail": Graph.from_edges(12, np.array([[0, 1], [1, 2], [2, 3], [3, 0], [4, 5]])),
    "star": Graph.from_edges(10, np.array([[0, v] for v in range(1, 10)])),
    "duplicates-and-loops": Graph.from_edges(
        8, np.array([[0, 1], [1, 0], [0, 1], [2, 2], [3, 4], [4, 3], [5, 5], [6, 7], [7, 6], [1, 6]])
    ),
    "random": random_sparse_graph(30, 60, seed=11),
}


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


@pytest.fixture
def path3() -> Graph:
    """Path 0-1-2."""
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]))


@pytest.fixture
def toy_instance(path3) -> Instance:
    """5-node instance small enough for exhaustive enumeration."""
    graph = Graph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]))
    return Instance(
        graph=graph,
        weights=make_iid_weights(5, 1, 0.5),
        budget=3.0,
        alpha=0.1,
        surrogate=SurrogateKind.CHEBYSHEV,
        name="toy5",
    )
