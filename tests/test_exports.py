import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ccsubmod

MODULES = ["ccsubmod"] + sorted(f"ccsubmod.{m.name}" for m in pkgutil.iter_modules(ccsubmod.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_numpy_random():
    # numpy imports numpy.random lazily. Importing the package loads it, so
    # that a process's first run does not pay for it inside its wall time.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ccsubmod; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_benchmark_tracer_finds_every_boundary():
    # perfbench/tracing.py wraps module and class attributes of the package
    # and fails a traced benchmark run when one of them is gone.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Recorder())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
