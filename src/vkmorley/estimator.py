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

The bracket b of two Morley functions is constant on K, so under a rule
with weights w (integral over K ~ |K| sum_q w_q) each volume norm splits
exactly into a mean part and the order-0 oscillation of the data:

    sum_q w_q (b + f_q)^2 = W (b + fbar)^2 + s_f,
    fbar = sum_q w_q f_q / W,   s_f = sum_q w_q (f_q - fbar)^2,

because sum_q w_q (f_q - fbar) = 0.  W = sum_q w_q is carried rather
than taken as 1: the tabulated weights are renormalised, but their sum
is 1 only to rounding (1 - 2e-16 at degree 6).  Likewise
||[u,u] - 2g||^2 is W (b - 2 gbar)^2 + 4 s_g.  f and g are read only as
the space's moments (``ProblemData.moments``), which hold sum_q w_q f_q
and s_f; the order-0 oscillation is |K|^3 s_f.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .forms import ProblemData, vk_bracket
from .morley import MorleyField, MorleySpace, monomial_terms, reduce_moments
from .quadrature import triangle_rule

__all__ = ["EstimatorReport", "estimate", "oscillation", "restrict_estimator"]


@dataclass
class EstimatorReport:
    """Per-triangle indicator pieces and their totals; areas is the mesh's read-only array."""

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


def _volume_terms(space, H, data: ProblemData) -> np.ndarray:
    """|K|^2 weighted L2 norms of both strong volume residuals; H holds the
    (nt, 3) Hessians of u and of v.  Each norm is its mean part plus
    the data's spread, from the space's moments (see the module note)."""
    mesh = space.mesh
    Hu, Hv = H
    br_uv = vk_bracket(Hu, Hv)
    br_uu = vk_bracket(Hu, Hu)

    W = triangle_rule(data.quad_degree).weights.sum()

    mf, mg = data.moments(space)
    res1 = (W * (br_uv + mf[:, 0] / W) ** 2 + mf[:, 6]) * mesh.areas
    if mg is None:
        res2 = br_uu**2 * mesh.areas
    else:
        res2 = (W * (br_uu - 2.0 * (mg[:, 0] / W)) ** 2 + 4.0 * mg[:, 6]) * mesh.areas
    return mesh.areas**2 * (res1 + res2)


def _edge_terms(mesh, H) -> np.ndarray:
    """|K|^(1/2) weighted tangential Hessian jump norms per triangle; H holds
    the (nt, 3) Hessians of u and of v, which are read one at a time."""
    tau = mesh.edge_tangent
    t0, t1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]

    def side(Hk, t, a):  # row a of the Hessian of triangle t[e] times edge e's tangent
        out, work = Hk[t, a] * tau[:, 0], Hk[t, a + 1]
        work *= tau[:, 1]
        return np.add(out, work, out=out)

    def jump_sq(Hk, a):  # a boundary edge reads triangle -1 across it, then takes 0.0
        across = side(Hk, t1, a)
        across[t1 < 0] = 0.0
        return np.square(np.subtract(side(Hk, t0, a), across, out=across), out=across)

    # ||jump||^2 over each edge, summed over the triangle's three edges.
    total = sum(jump_sq(Hk, 0) + jump_sq(Hk, 1) for Hk in H)
    out = (mesh.edge_length * total)[mesh.tri_edges].sum(axis=1)
    return np.sqrt(mesh.areas) * out


def oscillation(space: MorleySpace, data: ProblemData, order: int) -> np.ndarray:
    """Per-triangle squared data oscillation h^4 ||f - P_m f||^2 of data's f.

    P_m is the elementwise L2 projection onto polynomials of total
    degree at most order (0, 1 or 2), computed with a quadrature rule
    exact for the projection system, from f's moments in the cache entry
    of data.loads (``MorleySpace.moments``).  Order 0 is their spread.
    Higher orders subtract the share of P_m f beyond the mean,
    rhs . coef - M_0^2 / W, from it; the right-hand side is the moments
    and the Gram matrix the moments of each monomial in turn, reduced
    chunk by chunk over ``rule_points``.
    """
    mesh = space.mesh
    if order not in (0, 1, 2):
        raise ValueError(f"oscillation order must be 0, 1 or 2, got {order}")

    rule = triangle_rule(max(data.quad_degree, 2 * order))
    mom = space.moments(data.loads, rule)[0]
    resid = mom[:, 6]
    if order > 0:
        nb = 3 * order
        M = np.empty((mesh.n_triangles, nb, nb))
        for t, _, xi in space.rule_points(rule):
            x, y = xi[..., 0], xi[..., 1]
            M[t] = np.stack([reduce_moments(term, x, y, rule.weights)[:, :nb]
                             for term in islice(monomial_terms(x, y), nb)], axis=1)
        rhs = mom[:, :nb]
        coef = np.linalg.solve(M, rhs[..., None])[..., 0]
        beyond_mean = np.einsum("ti,ti->t", coef, rhs) - mom[:, 0] ** 2 / rule.weights.sum()
        resid = np.clip(resid - beyond_mean, 0.0, None)
    # h^4 = |K|^2; the quadrature carries one |K| factor for the L2 norm.
    return mesh.areas**2 * mesh.areas * resid


def estimate(state: MorleyField, data: ProblemData, osc_order: int = 0) -> EstimatorReport:
    """Assemble the full indicator report for a solved state, on the state's space."""
    space = state.space
    H = [space.element_hessians(c) for c in state.coeffs]
    mu_sq = _volume_terms(space, H, data)
    eta_sq = mu_sq + _edge_terms(space.mesh, H)
    # The oscillation does not depend on the state: once per level.
    osc_sq = space.cached(("oscillation", data.loads, osc_order, data.quad_degree),
                          lambda: oscillation(space, data, osc_order))
    return EstimatorReport(eta_sq=eta_sq, mu_sq=mu_sq, osc_sq=osc_sq, areas=space.mesh.areas)


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
