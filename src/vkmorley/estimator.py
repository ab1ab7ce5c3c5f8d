"""Residual a posteriori error estimator for the plate system.

Per triangle K with area |K| and edges E the indicator is

    eta^2(K) = |K|^2 ( ||[u,v] + f||_K^2 + ||[u,u] - 2g||_K^2 )
             + |K|^(1/2) sum_E ( ||jump(D^2 u) tau||_E^2
                               + ||jump(D^2 v) tau||_E^2 ),

where tau is the unit edge tangent and boundary edges use the one-sided
trace.  The volume part alone is mu^2(K).  An interior edge contributes
its full jump norm to both adjacent triangles, each weighted by that
triangle's own |K|^(1/2).  Data oscillation uses h^4 = |K|^2 against an
elementwise L2 projection of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forms import ProblemData, vk_bracket
from .morley import MorleySpace, StatePair, monomials
from .quadrature import triangle_rule

__all__ = ["EstimatorReport", "estimate", "oscillation", "restrict_estimator"]


@dataclass
class EstimatorReport:
    """Per-triangle indicator pieces and their totals."""

    eta_sq: np.ndarray
    mu_sq: np.ndarray
    osc_sq: np.ndarray
    areas: np.ndarray

    @property
    def total_eta_sq(self) -> float:
        return float(self.eta_sq.sum())

    @property
    def eta(self) -> float:
        return float(np.sqrt(self.eta_sq.sum()))

    @property
    def mu(self) -> float:
        return float(np.sqrt(self.mu_sq.sum()))

    @property
    def osc(self) -> float:
        return float(np.sqrt(self.osc_sq.sum()))

    def to_csv(self, path) -> None:
        """One row per triangle, floats as %.17g, CSV line ends (\\r\\n)."""
        cols = (self.areas, self.eta_sq, self.mu_sq, self.osc_sq)
        rows = zip(range(len(self.eta_sq)), *(c.tolist() for c in cols))
        with Path(path).open("w", newline="") as fh:
            fh.write("triangle_id,area,eta_sq,mu_sq,osc_sq\r\n")
            fh.writelines("%d,%.17g,%.17g,%.17g,%.17g\r\n" % r for r in rows)


def _volume_terms(space, H: np.ndarray, data: ProblemData) -> np.ndarray:
    """|K|^2 weighted L2 norms of both strong volume residuals; H is the
    (2, nt, 3) Hessian block of (u, v)."""
    mesh = space.mesh
    Hu, Hv = H
    br_uv = vk_bracket(Hu, Hv)
    br_uu = vk_bracket(Hu, Hu)

    rule = triangle_rule(data.quad_degree)
    wts = rule.weights[None, :]

    fv = space.values_at(data.f, rule)
    res1 = np.einsum("tq,tq->t", wts * (br_uv[:, None] + fv), br_uv[:, None] + fv)
    res1 = res1 * mesh.areas
    if data.g is None:
        res2 = br_uu**2 * mesh.areas
    else:
        gv = space.values_at(data.g, rule)
        r2 = br_uu[:, None] - 2.0 * gv
        res2 = np.einsum("tq,tq->t", wts * r2, r2) * mesh.areas
    return mesh.areas**2 * (res1 + res2)


def _edge_terms(mesh, H: np.ndarray) -> np.ndarray:
    """|K|^(1/2) weighted tangential Hessian jump norms per triangle; H is
    the (2, nt, 3) Hessian block of (u, v)."""
    tau = mesh.edge_tangent
    t0, t1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    inner = t1 >= 0
    # Hessian times tangent, one value per edge side: (2, ne) each.
    H0, H1 = H[:, t0], H[:, np.where(inner, t1, 0)]
    jx0 = H0[..., 0] * tau[:, 0] + H0[..., 1] * tau[:, 1]
    jy0 = H0[..., 1] * tau[:, 0] + H0[..., 2] * tau[:, 1]
    jx1 = np.where(inner, H1[..., 0] * tau[:, 0] + H1[..., 1] * tau[:, 1], 0.0)
    jy1 = np.where(inner, H1[..., 1] * tau[:, 0] + H1[..., 2] * tau[:, 1], 0.0)
    jump_sq = ((jx0 - jx1) ** 2 + (jy0 - jy1) ** 2).sum(axis=0)

    # ||jump||^2 over each edge, summed over the triangle's three edges.
    out = (mesh.edge_length * jump_sq)[mesh.tri_edges].sum(axis=1)
    return np.sqrt(mesh.areas) * out


def oscillation(space: MorleySpace, func, order: int, quad_degree: int = 4) -> np.ndarray:
    """Per-triangle squared data oscillation h^4 ||f - P_m f||^2.

    P_m is the elementwise L2 projection onto polynomials of total
    degree at most order (0, 1 or 2), computed with a quadrature rule
    exact for the projection system.
    """
    mesh = space.mesh
    if order not in (0, 1, 2):
        raise ValueError(f"oscillation order must be 0, 1 or 2, got {order}")

    rule = triangle_rule(max(quad_degree, 2 * order))
    fv = space.values_at(func, rule)

    xi = space.local_coords(np.arange(mesh.n_triangles)[:, None], space.quadrature_points(rule))
    nb = {0: 1, 1: 3, 2: 6}[order]
    basis = monomials(xi)[..., :nb]  # (nt, q, nb)

    M = (basis.mT * rule.weights) @ basis
    rhs = ((fv * rule.weights)[:, None, :] @ basis)[:, 0]
    coef = np.linalg.solve(M, rhs[..., None])[..., 0]
    ff = (fv * fv) @ rule.weights
    resid = ff - np.einsum("ti,ti->t", coef, rhs)
    np.clip(resid, 0.0, None, out=resid)
    # h^4 = |K|^2; the quadrature carries one |K| factor for the L2 norm.
    return mesh.areas**2 * mesh.areas * resid


def estimate(
    space: MorleySpace, state: StatePair, data: ProblemData, osc_order: int = 0
) -> EstimatorReport:
    """Assemble the full indicator report for a solved state."""
    mesh = space.mesh
    H = space.element_hessians(state.coeffs)
    mu_sq = _volume_terms(space, H, data)
    eta_sq = mu_sq + _edge_terms(mesh, H)
    # The oscillation does not depend on the state: once per level.
    osc_sq = space.cached((data.f, osc_order, data.quad_degree),
                          lambda: oscillation(space, data.f, osc_order, data.quad_degree))
    return EstimatorReport(
        eta_sq=eta_sq,
        mu_sq=mu_sq,
        osc_sq=osc_sq,
        areas=mesh.areas.copy(),
    )


def restrict_estimator(report: EstimatorReport, subset) -> dict:
    """Partial sums over an array of triangle ids; repeated ids count once."""
    ids = np.unique(np.asarray(subset, dtype=np.int64))
    if len(ids) and (ids[0] < 0 or ids[-1] >= len(report.eta_sq)):
        raise ValueError("triangle id outside the report's mesh")
    return {
        "eta_sq": float(report.eta_sq[ids].sum()),
        "mu_sq": float(report.mu_sq[ids].sum()),
        "osc_sq": float(report.osc_sq[ids].sum()),
    }
