"""The benchmark's tracer still finds every function it wraps in ``src/``.

``bench/tracing.py`` looks functions up by name in the modules that call
them; a rename there would otherwise only show when ``--trace 1`` runs.
"""

import importlib.util
from pathlib import Path

import vkmorley.adaptivity as adaptivity
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
