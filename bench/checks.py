"""Correctness checks of the benchmark, made apart from the solver.

Every check is a pure function of arrays or table rows and returns a
``Check``.  None compares against stored output: each tests a property
the method must have (a convergence rate, a conforming mesh, a graded
mesh near the corner, an estimator that sums to its total) or recomputes
a reported number with its own quadrature and the closed-form solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _doubled_areas(p: np.ndarray) -> np.ndarray:
    """Signed doubled areas of triangles given as (nt, 3, 2) vertex arrays."""
    return ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))


def fitted_slope(ndofs, values) -> float:
    """Least-squares slope of log(values) against log(ndofs)."""
    return float(np.polyfit(np.log(np.asarray(ndofs, dtype=float)),
                            np.log(np.asarray(values, dtype=float)), 1)[0])


def check_rate(name: str, ndofs, values, lo: float, hi: float) -> Check:
    """Decay rate -slope must lie in [lo, hi]."""
    rate = -fitted_slope(ndofs, values)
    return Check(name, lo <= rate <= hi, f"rate {rate:.4f} in [{lo}, {hi}]")


def check_slope_at_most(name: str, ndofs, values, limit: float) -> Check:
    slope = fitted_slope(ndofs, values)
    return Check(name, slope <= limit, f"slope {slope:.4f} <= {limit}")


def check_conforming(name: str, coords, tris, area: float, perimeter: float) -> Check:
    """A conforming triangulation of a polygon of given area and perimeter.

    No edge may be shared by more than two triangles, the triangles must
    cover the area once, and the edges used by one triangle only must
    make up exactly the domain's boundary.  A hanging vertex leaves the
    long edge and both half edges on its two sides used once, so their
    length adds to the boundary's.
    """
    coords = np.asarray(coords, dtype=float)
    tris = np.asarray(tris, dtype=np.int64)
    cross = _doubled_areas(coords[tris])
    if np.any(cross <= 0.0):
        return Check(name, False, "inverted or degenerate triangle")
    edges = np.sort(np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    if counts.max() > 2:
        return Check(name, False, "edge shared by more than two triangles")
    once = uniq[counts == 1]
    d = coords[once[:, 1]] - coords[once[:, 0]]
    boundary = float(np.hypot(d[:, 0], d[:, 1]).sum())
    covered = 0.5 * float(cross.sum())
    ok = math.isclose(boundary, perimeter, rel_tol=1e-12) and math.isclose(
        covered, area, rel_tol=1e-12)
    return Check(name, ok, f"boundary length {boundary:.15g} (want {perimeter}), "
                           f"area {covered:.15g} (want {area})")


def check_corner_grading(name: str, coords, tris, corner=(0.0, 0.0)) -> Check:
    """Triangles touching the corner attain the mesh's minimal size h,
    strictly below the minimal h at centroid distance > 0.5."""
    coords = np.asarray(coords, dtype=float)
    tris = np.asarray(tris, dtype=np.int64)
    p = coords[tris]
    h = np.sqrt(0.5 * _doubled_areas(p))
    at = np.flatnonzero((coords == np.asarray(corner)).all(axis=1))
    if len(at) != 1:
        return Check(name, False, "corner is not a mesh vertex")
    touching = (tris == at[0]).any(axis=1)
    dist = np.hypot(*(p.mean(axis=1) - np.asarray(corner)).T)
    h_corner, h_min, h_far = h[touching].min(), h.min(), h[dist > 0.5].min()
    return Check(name, h_corner == h_min < h_far,
                 f"min h at corner {h_corner:.3e}, mesh {h_min:.3e}, r > 0.5 {h_far:.3e}")


def check_sum(name: str, parts, total: float, rtol: float = 1e-10) -> Check:
    """Per-triangle indicators sum to the level's total."""
    s = float(np.sum(np.asarray(parts, dtype=float)))
    return Check(name, math.isclose(s, total, rel_tol=rtol),
                 f"sum {s:.15g} vs total {total:.15g}")


def check_close(name: str, own: float, reported: float, rtol: float) -> Check:
    return Check(name, math.isclose(own, reported, rel_tol=rtol),
                 f"recomputed {own:.12g} vs reported {reported:.12g} (rtol {rtol})")


def check_ratio_at_most(name: str, num: float, den: float, limit: float) -> Check:
    ratio = num / den
    return Check(name, ratio <= limit, f"ratio {ratio:.4f} <= {limit}")


def check_finite_nonnegative(name: str, values) -> Check:
    v = np.asarray(values, dtype=float)
    ok = v.size > 0 and bool(np.all(np.isfinite(v))) and bool(np.all(v >= 0.0))
    return Check(name, ok, f"{v.size} values finite and >= 0")


# -- closed-form solution and quadrature for error recomputation ------------

# Strang-Fix seven-point rule, exact for degree 5: barycentric points and
# weights relative to the triangle area.
_S15 = math.sqrt(15.0)
_A1, _B1 = (6.0 - _S15) / 21.0, (9.0 + 2.0 * _S15) / 21.0
_A2, _B2 = (6.0 + _S15) / 21.0, (9.0 - 2.0 * _S15) / 21.0
QUAD_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_A1, _A1, _B1], [_A1, _B1, _A1], [_B1, _A1, _A1],
    [_A2, _A2, _B2], [_A2, _B2, _A2], [_B2, _A2, _A2],
])
QUAD_WEIGHTS = np.array([9 / 40] + [(155 - _S15) / 1200] * 3 + [(155 + _S15) / 1200] * 3)


def trig_value(x, y):
    """sin^2(pi x) sin^2(pi y), the deflection and the stress of the
    square-trig problem."""
    return (np.sin(np.pi * x) * np.sin(np.pi * y)) ** 2


def trig_grad(x, y):
    """Gradient of ``trig_value``."""
    sx, sy = np.sin(np.pi * x) ** 2, np.sin(np.pi * y) ** 2
    return np.pi * np.sin(2 * np.pi * x) * sy, np.pi * sx * np.sin(2 * np.pi * y)


def trig_hessian(x, y):
    """Hessian (hxx, hxy, hyy) of ``trig_value``."""
    sx, sy = np.sin(np.pi * x) ** 2, np.sin(np.pi * y) ** 2
    c = 2 * np.pi ** 2
    return (c * np.cos(2 * np.pi * x) * sy,
            np.pi ** 2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
            c * sx * np.cos(2 * np.pi * y))


def broken_errors(tri_pts, centers, scales, polys, grad, hessian) -> tuple[float, float]:
    """Piecewise H2 and H1 seminorm errors of per-element quadratics.

    ``polys`` is a list of (nt, 6) coefficient arrays in the monomials
    1, x, y, x^2, xy, y^2 of the centred coordinates (X - centre) / scale;
    every one is compared against the same exact gradient and Hessian.
    """
    tri_pts = np.asarray(tri_pts, dtype=float)
    area = 0.5 * _doubled_areas(tri_pts)
    q = np.einsum("qk,tkd->tqd", QUAD_BARY, tri_pts)
    w = QUAD_WEIGHTS[None, :] * area[:, None]
    X, Y = q[..., 0], q[..., 1]
    xi = (q - centers[:, None, :]) / scales[:, None, None]
    x, y = xi[..., 0], xi[..., 1]
    ex_g = trig_grad(X, Y)
    ex_h = trig_hessian(X, Y)
    s = scales[:, None]
    h2 = h1 = 0.0
    for c in polys:
        c = c[:, None, :]
        gx = (c[..., 1] + 2 * c[..., 3] * x + c[..., 4] * y) / s
        gy = (c[..., 2] + c[..., 4] * x + 2 * c[..., 5] * y) / s
        hxx, hxy, hyy = 2 * c[..., 3] / s**2, c[..., 4] / s**2, 2 * c[..., 5] / s**2
        h2 += float(np.sum(w * ((ex_h[0] - hxx) ** 2 + 2 * (ex_h[1] - hxy) ** 2
                                + (ex_h[2] - hyy) ** 2)))
        h1 += float(np.sum(w * ((ex_g[0] - gx) ** 2 + (ex_g[1] - gy) ** 2)))
    return math.sqrt(h2), math.sqrt(h1)
