"""Spans and counters around the solver's public functions.

The tracer replaces each function under the name its callers look it
up by (``vkmorley.adaptivity.prolongate``, ``vkmorley.solver.linear_solve``,
``scipy.sparse.linalg.splu``, ...), records one span per call (name,
start, end, parent) and restores everything on exit.  Nothing inside
``src/`` changes.  A layer's self time is the duration of its spans
minus the time their child spans cover, so the self times of all spans
add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

# Span name -> per-layer time metric that receives its self time.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "adaptivity.run": "adaptivity.loop_self_s",
    "mesh.refine": "mesh.refine_s",
    "mesh.uniform_refine": "mesh.refine_s",
    "morley.build_space": "morley.build_space_s",
    "morley.prolongate": "morley.prolongate_s",
    "forms.assemble_bilaplacian": "forms.assemble_bilaplacian_s",
    "forms.assemble_load": "forms.assemble_load_s",
    "forms.assemble_linearized_bracket": "forms.assemble_bracket_s",
    "forms.apply_residual": "forms.apply_residual_s",
    "forms.energy_norms": "forms.energy_norms_s",
    "solver.newton_solve": "solver.newton_s",
    "solver.biharmonic_guess": "solver.newton_s",
    "solver.linear_solve": "solver.linear_solve_self_s",
    "solver.splu": "solver.lu_factor_s",
    "solver.lu_solve": "solver.lu_solve_s",
    "estimator.estimate": "estimator.estimate_s",
    "adaptivity.doerfler_mark": "adaptivity.mark_s",
    "adaptivity.axiom_check": "adaptivity.axiom_check_s",
    "cli.write_mesh": "cli.write_s",
    "cli.write_svg": "cli.write_s",
    "cli.report_csv": "cli.write_s",
    "cli.estimator_csv": "cli.write_s",
    # Reading L and U to count fill is the tracer's own work.
    "trace.count": "trace.count_s",
}

COUNTS = (
    "mesh.refine_calls", "mesh.triangles_built",
    "morley.prolongate_calls", "morley.prolongated_dofs",
    "forms.apply_residual_calls",
    "solver.newton_iters", "solver.damping_events", "solver.linear_solves",
    "solver.lu_factorizations", "solver.lu_unknowns", "solver.lu_fill_nnz",
)


class _Factor:
    """Stands in for a SuperLU object so that its triangular solves are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.factored_nnz = 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = t0, t1

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- counters, run after the span has closed ----------------------------

    def _refined(self, args, mesh):
        self.counts["mesh.refine_calls"] += 1
        self.counts["mesh.triangles_built"] += mesh.n_triangles

    def _prolongated(self, args, field):
        self.counts["morley.prolongate_calls"] += 1
        self.counts["morley.prolongated_dofs"] += field.space.n_dofs

    def _newton(self, args, result):
        report = result[1]
        self.counts["solver.newton_iters"] += report.iterations
        self.counts["solver.damping_events"] += report.damping_events

    def _factored(self, args, lu):
        A = args[0]
        self.counts["solver.lu_factorizations"] += 1
        self.counts["solver.lu_unknowns"] += A.shape[0]
        self.factored_nnz += A.nnz
        with self.span("trace.count"):
            self.counts["solver.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz

    def _splu(self, splu):
        traced = self.wrap("solver.splu", splu, self._factored)

        def factor(*args, **kwargs):
            lu = traced(*args, **kwargs)
            return _Factor(lu, self.wrap("solver.lu_solve", lu.solve))
        return factor

    @contextlib.contextmanager
    def installed(self):
        """Wrap the solver's public functions where their callers find them."""
        import scipy.sparse.linalg as spla
        import vkmorley.adaptivity as adaptivity
        import vkmorley.cli as cli
        import vkmorley.solver as solver
        from vkmorley.adaptivity import ConvergenceReport
        from vkmorley.estimator import EstimatorReport

        def bump(key):
            return lambda args, result: self.counts.update({key: 1})

        plan = [
            (adaptivity, "uniform_refine", "mesh.uniform_refine", self._refined),
            (adaptivity, "refine", "mesh.refine", self._refined),
            (adaptivity, "build_space", "morley.build_space", None),
            (adaptivity, "prolongate", "morley.prolongate", self._prolongated),
            (adaptivity, "newton_solve", "solver.newton_solve", self._newton),
            (adaptivity, "estimate", "estimator.estimate", None),
            (adaptivity, "energy_norms", "forms.energy_norms", None),
            (adaptivity, "doerfler_mark", "adaptivity.doerfler_mark", None),
            (solver, "assemble_bilaplacian", "forms.assemble_bilaplacian", None),
            (solver, "assemble_load", "forms.assemble_load", None),
            (solver, "assemble_linearized_bracket", "forms.assemble_linearized_bracket", None),
            (solver, "apply_residual", "forms.apply_residual", bump("forms.apply_residual_calls")),
            (solver, "biharmonic_guess", "solver.biharmonic_guess", None),
            (solver, "linear_solve", "solver.linear_solve", bump("solver.linear_solves")),
            (cli, "amfem_run", "adaptivity.run", None),
            (cli, "uniform_run", "adaptivity.run", None),
            (cli, "axiom_check", "adaptivity.axiom_check", None),
            (cli, "write_mesh", "cli.write_mesh", None),
            (cli, "write_svg", "cli.write_svg", None),
            (ConvergenceReport, "to_csv", "cli.report_csv", None),
            (EstimatorReport, "to_csv", "cli.estimator_csv", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in plan]
        saved.append((spla, "splu", spla.splu))
        try:
            for owner, attr, name, after in plan:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))
            spla.splu = self._splu(spla.splu)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[SELF_TIME[name]] += (t1 - t0) - child[i]
        return out

    def root_duration(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def layer_metrics(self) -> dict[str, float]:
        metrics = {name: 0.0 for name in sorted(set(SELF_TIME.values()))}
        metrics.update(self.self_times())
        metrics.update({key: self.counts[key] for key in COUNTS})
        fill = self.counts["solver.lu_fill_nnz"]
        metrics["solver.lu_fill_ratio"] = fill / self.factored_nnz if self.factored_nnz else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
