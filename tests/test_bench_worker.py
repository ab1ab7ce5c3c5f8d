"""The benchmark's workloads still run on ``src/`` and pass their own checks.

``bench/worker.py`` reads the solved state (``state.u.coeffs``,
``state.v.coeffs``), an interpolant's ``coeffs`` and the CLI's files;
a change to any of them would otherwise only show when the benchmark
runs.  Each workload runs here once, in-process and untraced.
"""

import importlib.util
from pathlib import Path

import pytest

from vkmorley.problems import get_problem

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the workloads import checks
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lshape-adaptive", "trig-oneshot", "trig-uniform-cli"])
def test_workload_passes_its_checks(worker, name, tmp_path):
    problem = get_problem(worker.PROBLEM[name])
    _, _, rows, levels, whole = worker.WORKLOADS[name](problem, None, tmp_path)
    assert rows and len(levels) == len(rows) and whole
    failed = [f"level {k}: {c.name}: {c.detail}" for k, level in levels for c in level if not c.ok]
    failed += [f"{c.name}: {c.detail}" for c in whole if not c.ok]
    assert not failed, failed
