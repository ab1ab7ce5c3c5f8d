"""Adaptive solve/estimate/mark/refine driver.

One run pre-refines the initial mesh uniformly until every triangle
satisfies sqrt(|K|) <= delta, then loops: solve the nonlinear system
(seeded by the prolongated previous solution) until the residual's
dual norm is small against the estimator, keep the indicator of the
solved state, mark a minimal bulk set, bisect.  Uniform runs mark
everything.  The axiom diagnostics compare two consecutive solved
levels and report the empirical stability and reduction quotients of
the indicator under refinement, using the exact piecewise
representation of the coarse solution on the fine mesh for the
distance term.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field as dfield, fields
from itertools import count
from pathlib import Path

import numpy as np

from .estimator import EstimatorReport, estimate
from .forms import ProblemData, energy_norms, frobenius_weighted
from .mesh import Mesh, ancestor_map, build_initial_mesh, refine, uniform_refine
from .morley import MorleyField, MorleySpace, build_space, prolongate
from .solver import SolveReport, check_tolerance, newton_solve

__all__ = [
    "AmfemConfig",
    "LevelRow",
    "ConvergenceReport",
    "LevelArtifacts",
    "AxiomLevel",
    "RunResult",
    "AxiomDiagnostics",
    "doerfler_mark",
    "amfem_run",
    "uniform_run",
    "axiom_check",
]

logger = logging.getLogger(__name__)

def doerfler_mark(eta_sq: np.ndarray, theta: float) -> np.ndarray:
    """Minimal bulk-chasing marking.

    Returns the shortest prefix of triangles sorted by decreasing
    indicator (ties by id) whose indicator mass reaches theta times the
    total.  The returned set has minimal cardinality among all sets
    satisfying the criterion.

    The criterion is evaluated in floating point on the sorted prefix:
    the cumulative sums of the sorted indicators are compared with the
    rounded product ``theta * total``.  At least one triangle is marked
    whenever the total is positive, even if that product underflows to
    zero (e.g. a single subnormal indicator), so the empty set is never
    returned.  A zero total raises ``ValueError``.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"marking fraction must be in (0, 1], got {theta}")
    eta_sq = np.asarray(eta_sq, dtype=float)
    if np.any(eta_sq < 0.0) or not np.all(np.isfinite(eta_sq)):
        raise ValueError("indicators must be finite and nonnegative")
    order = np.argsort(-eta_sq, kind="stable")
    sorted_vals = eta_sq[order]
    total = float(sorted_vals.sum())
    if total <= 0.0:
        raise ValueError("all indicators vanish; nothing to mark")
    k = int(np.searchsorted(np.cumsum(sorted_vals), theta * total)) + 1
    # Never mark zero-indicator triangles (possible when theta = 1); zeros sort
    # last, and a positive total leaves at least one nonzero.
    return order[:min(k, np.count_nonzero(sorted_vals))]


@dataclass
class AmfemConfig:
    theta: float = 0.3
    delta: float = 0.3
    max_levels: int = 10
    max_ndofs: int = 200_000
    osc_order: int = 0
    newton_tol: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"bulk fraction must be in (0, 1], got {self.theta}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(
                f"pre-refinement threshold must be in (0, 1), got {self.delta}"
            )
        if self.max_levels < 1:
            raise ValueError("need at least one level")
        if self.max_ndofs < 1:
            raise ValueError(f"dof cap must be at least 1, got {self.max_ndofs}")
        if self.osc_order not in (0, 1, 2):
            raise ValueError(f"oscillation order must be 0, 1 or 2, got {self.osc_order}")
        check_tolerance(self.newton_tol)


@dataclass
class LevelRow:
    level: int
    ntri: int
    ndofs: int
    eta: float
    mu: float
    osc: float
    err_energy: float | None
    err_h1pw: float | None
    newton_iters: int
    marked: int
    rate_eta: float | None


# The columns of report.csv: LevelRow's fields, in order.
CSV_HEADER = [f.name for f in fields(LevelRow)]


def _cell(value):
    """A report.csv cell: floats as %.17g, None empty, ints as they are."""
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else value


@dataclass
class LevelArtifacts:
    """Solved objects for one level, as the drivers pass them to on_level."""

    mesh: Mesh
    space: MorleySpace
    state: MorleyField
    report: EstimatorReport
    solve: SolveReport


@dataclass
class AxiomLevel:
    """What ``axiom_check`` reads of a level, without its space and state."""

    mesh: Mesh
    hessians: np.ndarray
    report: EstimatorReport


@dataclass
class ConvergenceReport:
    rows: list[LevelRow] = dfield(default_factory=list)

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows([_cell(getattr(r, c)) for c in CSV_HEADER] for r in self.rows)


@dataclass
class RunResult:
    report: ConvergenceReport
    final: LevelArtifacts


def _prerefine(mesh: Mesh, delta: float, max_ndofs: int) -> Mesh:
    """Refine uniformly until sqrt(|K|) <= delta, but to no mesh over the dof cap.

    A refined mesh's Morley dofs are its interior vertices and edges.
    """
    while float(mesh.h.max()) > delta:
        mesh = uniform_refine(mesh)
        ndofs = int(np.count_nonzero(~mesh.vertex_is_boundary)
                    + np.count_nonzero(~mesh.edge_is_boundary))
        if ndofs > max_ndofs:
            raise RuntimeError(f"pre-refinement to mesh size {delta} exceeds the dof cap "
                               f"{max_ndofs} at {ndofs} dofs")
    return mesh


def _rate(prev: LevelRow | None, eta: float, ndofs: int) -> float | None:
    if prev is None or prev.eta <= 0.0 or eta <= 0.0 or ndofs == prev.ndofs:
        return None
    return -float(np.log(eta / prev.eta) / np.log(ndofs / prev.ndofs))


def _run(problem, cfg: AmfemConfig, mode: str, on_level) -> RunResult:
    """Shared driver; mode is "adaptive" or "uniform".  on_level(row, arts), if
    given, sees each level once its row is final; a level dies once prolongated."""
    data: ProblemData = problem.data
    mesh = _prerefine(build_initial_mesh(problem.domain), cfg.delta, cfg.max_ndofs)
    report = ConvergenceReport()
    arts: LevelArtifacts | None = None

    for level in count():
        space = build_space(mesh)
        initial = None if arts is None else prolongate(arts.state, space)
        arts = state = est = None  # the previous level is dead before this level's solve

        def eta_at(iterate: MorleyField) -> float:
            # Newton's last call is at the state it returns.
            nonlocal est
            est = estimate(iterate, data, cfg.osc_order)
            return est.eta

        state, solve = newton_solve(space, data, initial, residual_tol=cfg.newton_tol,
                                    estimator=eta_at)
        if not solve.converged:
            tail = ", ".join(f"{r:.3e}" for r in solve.residuals[-3:])
            raise RuntimeError(
                f"Newton failed on level {level} "
                f"({space.n_dofs} dofs, residual {solve.residuals[-1]:.3e}, "
                f"{solve.rule} tolerance {solve.tolerance:.3e}, last residuals {tail})"
            )
        if est is None:
            est = estimate(state, data, cfg.osc_order)

        if problem.exact is not None:
            err_energy, err_h1 = energy_norms(state, problem.exact)
        else:
            err_energy = err_h1 = None
        space.release_quadrature()

        arts = LevelArtifacts(mesh, space, state, est, solve)
        row = LevelRow(
            level=level,
            ntri=mesh.n_triangles,
            ndofs=space.n_dofs,
            eta=est.eta,
            mu=est.mu,
            osc=est.osc,
            err_energy=err_energy,
            err_h1pw=err_h1,
            newton_iters=solve.iterations,
            marked=0,
            rate_eta=_rate(report.rows[-1] if report.rows else None, est.eta, space.n_dofs),
        )
        report.rows.append(row)
        logger.info(
            "level %d: %d triangles, %d dofs, eta %.4e, %d Newton iterations",
            level, mesh.n_triangles, space.n_dofs, est.eta, solve.iterations,
        )

        last = level + 1 >= cfg.max_levels or space.n_dofs >= cfg.max_ndofs
        if not last and est.eta <= 0.0:
            logger.info("estimator vanished on level %d; stopping", level)
            last = True
        if not last:
            marked = (np.arange(mesh.n_triangles) if mode == "uniform"
                      else doerfler_mark(est.eta_sq, cfg.theta))
            row.marked = len(marked)
        if on_level is not None:
            on_level(row, arts)
        if last:
            return RunResult(report, arts)
        mesh = refine(mesh, marked)


def amfem_run(problem, cfg: AmfemConfig | None = None, on_level=None) -> RunResult:
    """Adaptive run with bulk marking; on_level(row, arts) sees each solved level."""
    return _run(problem, cfg or AmfemConfig(), "adaptive", on_level)


def uniform_run(problem, cfg: AmfemConfig | None = None, on_level=None) -> RunResult:
    """Reference run marking every triangle on every level; on_level as in amfem_run."""
    return _run(problem, cfg or AmfemConfig(), "uniform", on_level)


# -- refinement axiom diagnostics -------------------------------------------


@dataclass
class AxiomDiagnostics:
    """Empirical stability/reduction quotients for one mesh pair; the fields,
    in order, are the columns of axioms.csv after the pair's level."""

    delta: float
    lambda1_star: float
    lambda2_star: float
    lambda1_mu_star: float
    lambda2_mu_star: float
    eta_refined_coarse: float
    eta_refined_fine: float


def _ratio(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return float("inf")
    return num / den


def axiom_check(coarse: AxiomLevel, fine: AxiomLevel) -> AxiomDiagnostics:
    """Compare indicator restrictions across one refinement step.

    Both states must be discrete solutions on their own meshes; the
    drivers solve each level up to ||r||_{A^-1} <= 1e-3 eta, an algebraic
    error far below the discretisation error that these quotients see.
    The distance is the piecewise H2 seminorm of their difference,
    evaluated exactly: the coarse polynomials restrict to each fine
    triangle through its ancestor.
    """
    anc = ancestor_map(coarse.mesh, fine.mesh)
    d = fine.hessians - coarse.hessians[:, anc]
    delta = float(np.sqrt(np.vdot(frobenius_weighted(d, fine.mesh.areas), d)))
    # A fine triangle with its ancestor's generation is that triangle, kept;
    # a coarse triangle with no kept child was bisected.
    kept = fine.mesh.tri_generation == coarse.mesh.tri_generation[anc]
    refined = np.bincount(anc[kept], minlength=coarse.mesh.n_triangles) == 0

    def norms(level: AxiomLevel, mask) -> tuple[float, float]:
        """(eta, mu) of the level's indicators summed over the triangles in mask."""
        rep = level.report
        return float(np.sqrt(rep.eta_sq[mask].sum())), float(np.sqrt(rep.mu_sq[mask].sum()))

    ec, mc = norms(coarse, ~refined)
    ef, mf = norms(fine, kept)
    ero_c, mro_c = norms(coarse, refined)
    ero_f, mro_f = norms(fine, ~kept)

    q_eta, q_mu = 2.0 ** (-0.25), 2.0 ** (-0.5)
    return AxiomDiagnostics(
        delta=delta,
        lambda1_star=_ratio(abs(ef - ec), delta),
        lambda2_star=_ratio(max(0.0, ero_f - q_eta * ero_c), delta),
        lambda1_mu_star=_ratio(abs(mf - mc), delta),
        lambda2_mu_star=_ratio(max(0.0, mro_f - q_mu * mro_c), delta),
        eta_refined_coarse=ero_c,
        eta_refined_fine=ero_f,
    )
