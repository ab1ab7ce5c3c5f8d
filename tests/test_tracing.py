"""The benchmark's tracer still finds every function it wraps in ``src/``.

``bench/tracing.py`` looks functions up by name in the modules that call
them; a rename there would otherwise only show when ``--trace 1`` runs.
"""

import importlib.util
from pathlib import Path

import pytest

import vkmorley.adaptivity as adaptivity
from vkmorley import cli
from vkmorley.adaptivity import AmfemConfig
from vkmorley.mesh import refine
from vkmorley.problems import get_problem


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_a_two_level_adaptive_run():
    tracing = _load_tracing()
    with tracing.Tracer("two-level").installed() as tracer:
        result = adaptivity.amfem_run(get_problem("square-poly"), AmfemConfig(max_levels=2))
    assert len(result.report.rows) == 2
    metrics = tracer.layer_metrics()
    for key in ("mesh.refine_calls", "morley.prolongate_calls", "solver.lu_factorizations"):
        assert metrics[key] > 0, key
    assert adaptivity.refine is refine


def test_tracer_around_the_cli_nests_writes_in_the_run(tmp_path):
    tracing = _load_tracing()
    argv = ["--problem", "square-poly", "--mode", "axiom-check", "--levels", "3",
            "--delta", "0.75", "--dump-estimator", "--out", str(tmp_path)]
    with tracing.Tracer("cli").installed() as tracer:
        with tracer.span("cli.main"):
            assert cli.main(argv) == 0
    metrics = tracer.layer_metrics()
    accounted = sum(v for key, v in metrics.items() if key.endswith("_s"))
    assert accounted == pytest.approx(tracer.root_duration(), abs=1e-9)
    assert metrics["cli.write_s"] > 0.0
    assert metrics["adaptivity.axiom_check_s"] > 0.0
    # Each level's files are written while the run is still going.
    run = [i for i, span in enumerate(tracer.spans) if span[0] == "adaptivity.run"]
    assert len(run) == 1
    writes = [span for span in tracer.spans
              if span[0] in ("cli.write_mesh", "cli.estimator_csv", "adaptivity.axiom_check")]
    assert len(writes) == 3 + 3 + 2
    assert all(span[3] == run[0] for span in writes)
