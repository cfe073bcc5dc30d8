"""Seeded runs must reproduce the frozen golden fixture exactly.

``tests/data/golden_runs.json`` holds gsemo, sw-gsemo and nsga2 runs over
both surrogates, both g2 regimes and both weight models on three random
graphs, plus labelled NSGA-II cases with other population sizes, budgets
and tail bounds, every algorithm under both surrogates on two graphs
with n = 10 and n = 12, and two 20k-evaluation NSGA-II runs on the n = 2000
graph whose selections grow wide. Regenerate it with ``tests/data/make_golden_runs.py`` only when a
change is meant to alter results.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "data"))

from make_golden_runs import run_case  # noqa: E402

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_runs.json").read_text(encoding="utf-8"))


def _case_id(entry: dict) -> str:
    c = entry["case"]
    base = f"n{c['n']}-{c['algorithm']}-{c['surrogate']}-{c['regime']}-{c['weights']}"
    return f"{base}-{c['label']}" if "label" in c else base


@pytest.mark.parametrize("entry", GOLDEN, ids=[_case_id(e) for e in GOLDEN])
def test_run_matches_golden(entry):
    assert run_case(entry["case"]) == entry["result"]
