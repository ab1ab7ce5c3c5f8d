"""Discrete forms for the von Karman plate system.

The unknown is a pair (u, v) of Morley functions: u is the transverse
deflection, v the Airy stress function.  With the piecewise quadratic
bracket  [a, b] = a_xx b_yy + a_yy b_xx - 2 a_xy b_xy  (constant per
element), the residual of the clamped system reads

    N(u, v; p, q) =  a(u, p) + a(v, q)
                   + b(u, v, p) + b(v, u, p) - b(u, u, q)
                   - (f, p) - (g, q),

where a is the piecewise Hessian inner product and
b(a, bb, c) = -1/2 sum_K int_K [a, bb] c dx.  The derivative of the
nonlinear part at a state is twice the state-frozen trilinear form,
which assemble_linearized_bracket applies, element by element, for
Newton's method.

All element loops are batched: per-element contractions are stacked
``matmul`` calls, which numpy hands to BLAS one small matrix at a time,
and every area-weighted Hessian Frobenius product goes through
``frobenius_weighted``.  The bilaplacian is assembled from triplets in a
fixed element order, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .morley import MorleyField, MorleySpace, gradients, hessians, joint_evaluator
from .quadrature import triangle_rule

__all__ = [
    "ProblemData",
    "vk_bracket",
    "assemble_bilaplacian",
    "assemble_load",
    "assemble_linearized_bracket",
    "apply_residual",
    "energy_norms",
]

# Frobenius weights for Hessians stored as (hxx, hxy, hyy).
_FROB = np.array([1.0, 2.0, 1.0])
# Quadrature degree of the error norms against an exact solution.
_ERROR_DEGREE = 6


@dataclass
class ProblemData:
    """Right-hand sides and assembly options for one plate problem.

    f and g take numpy coordinate arrays and return arrays; g may be
    None for a zero load on the stress equation.  joint(x, y), if given,
    returns the values of f and g at once (set it with them); one that
    records them as its ``funcs`` attribute is not used once f or g is
    replaced.  include_bracket turns the nonlinear coupling off, reducing
    the system to two decoupled bilaplacian problems (a linear debugging
    mode).
    """

    f: Callable
    g: Callable | None = None
    include_bracket: bool = True
    quad_degree: int = 4
    joint: Callable | None = None

    def moments(self, space: MorleySpace) -> tuple:
        """Read-only moments (nt, 7) of f and of g (None for an unset g) under
        the data's rule, from one ``MorleySpace.moments`` walk."""
        funcs = (self.f,) if self.g is None else (self.f, self.g)
        out = space.moments(funcs, triangle_rule(self.quad_degree), _joint_for(self.joint, funcs))
        return (out[0], None) if self.g is None else tuple(out)


def _joint_for(joint: Callable | None, funcs: tuple) -> Callable | None:
    """joint, unless it records the callables it evaluates as ``funcs`` and
    those are not funcs: a joint evaluator stands only for its own fields."""
    return joint if getattr(joint, "funcs", funcs) == funcs else None


def vk_bracket(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Bracket of Hessians given as (..., 3) rows (hxx, hxy, hyy)."""
    return (
        h1[..., 0] * h2[..., 2]
        + h1[..., 2] * h2[..., 0]
        - 2.0 * h1[..., 1] * h2[..., 1]
    )


def frobenius_weighted(H: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Hessian rows H (..., 3) times the Frobenius weights and weights (...).

    The left factor of every area-weighted Hessian Frobenius product:
    ``frobenius_weighted(H, w) @ G.mT`` per element, or
    ``np.vdot(frobenius_weighted(H, w), G)`` summed over all rows.
    """
    out = H * _FROB  # exact: the weights are 1 and 2
    out *= weights[..., None]
    return out


def assemble_bilaplacian(space: MorleySpace) -> sp.csr_matrix:
    """Scalar piecewise Hessian stiffness matrix (n_dofs square)."""
    H = space.shape_hess  # (nt, 6, 3)
    return space.scatter_matrix(frobenius_weighted(H, space.mesh.areas[:, None]) @ H.mT)


def assemble_load(space: MorleySpace, data: ProblemData) -> np.ndarray:
    """Load vector of both equations, length 2 n_dofs.

    The load of shape function i on K is |K| sum_k M_k C_ki, with M the
    quadratic moments of the data (``ProblemData.moments``) and C the
    element's monomial coefficients.
    """
    return np.concatenate([
        np.zeros(space.n_dofs) if m is None else
        space.scatter(space.mesh.areas[:, None] * (m[:, None, :6] @ space.coeffs)[:, 0])
        for m in data.moments(space)])


def assemble_linearized_bracket(state: MorleyField) -> spla.LinearOperator:
    """Derivative of the quadratic bracket terms at a state (2n square operator).

    Row blocks are test functions (p, q), column blocks the direction
    (du, dv); the (q, dv) block is zero.  Element K adds the rank-1
    blocks SI_K (x) br_K, with SI_K its shape integrals and br_K the
    brackets [w, shape_j] of a frozen field w: -br_v to (p, du), -br_u
    to (p, dv) and br_u to (q, du).  The operator gathers the direction
    and scatters the result through the state's space; it is never assembled.
    """
    space = state.space
    n = space.n_dofs
    SI = space.shape_integral  # (nt, 6)
    # [w, shape_j] for the frozen fields, shape (2, nt, 6).
    br_u, br_v = vk_bracket(space.element_hessians(state.coeffs)[..., None, :], space.shape_hess)

    def matvec(x):
        du, dv = space.gather(np.reshape(x, (2, n)))
        p = -np.einsum("tj,tj->t", br_v, du) - np.einsum("tj,tj->t", br_u, dv)
        q = np.einsum("tj,tj->t", br_u, du)
        return space.scatter(np.stack([p, q])[..., None] * SI).ravel()

    return spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=float)


def apply_residual(
    state: MorleyField,
    data: ProblemData,
    A: sp.csr_matrix,
    load: np.ndarray,
) -> np.ndarray:
    """Residual vector of the discrete system at a state, on its space (length 2n).

    A is the bilaplacian and load the stacked load vector (length 2n).
    """
    space, C = state.space, state.coeffs
    # A @ C.T applies A to the (n, 2) block; it rounds like two mat-vecs.
    r = (A @ C.T).T.ravel() - load
    if data.include_bracket:
        Hu, Hv = space.element_hessians(C)
        # Test block p, then test block q.
        br = np.stack([-vk_bracket(Hu, Hv), 0.5 * vk_bracket(Hu, Hu)])
        r += space.scatter(br[..., None] * space.shape_integral).ravel()
    return r


def energy_norms(state: MorleyField, exact):
    """Error norms of a state against a smooth exact pair, on the state's space.

    Returns (piecewise H2 seminorm error, piecewise H1 seminorm error,
    piecewise H2 seminorm of the discrete state).  exact provides
    vectorized du, d2u, dv, d2v callables, Hessians as (hxx, hxy, hyy),
    and may provide joint(x, y) returning all four at once (default
    ``joint_evaluator``, also when ``_joint_for`` drops it).  The rule's
    points are walked in ``rule_points``' chunks, so no whole-mesh array
    with a quadrature axis is built.
    """
    space = state.space
    rule = triangle_rule(_ERROR_DEGREE)
    funcs = (exact.du, exact.d2u, exact.dv, exact.d2v)
    evaluate = _joint_for(getattr(exact, "joint", None), funcs) or joint_evaluator(funcs)
    polys = space.element_polys(state.coeffs)
    H = hessians(polys, space.scales)  # (2, nt, 3)

    err2 = errh1 = 0.0
    for t, pts, xi in space.rule_points(rule):
        warea = rule.weights[None, :] * space.mesh.areas[t, None]
        G = gradients(polys[:, t, None, :], xi[..., 0], xi[..., 1]) / space.scales[t, None, None]
        du, d2u, dv, d2v = evaluate(pts[..., 0], pts[..., 1])
        for Hk, Gk, d1, d2 in zip(H[:, t], G, (du, dv), (d2u, d2v)):
            diff = np.stack(d2, axis=-1) - Hk[:, None, :]
            err2 += np.vdot(frobenius_weighted(diff, warea), diff)
            gdiff = np.stack(d1, axis=-1) - Gk
            errh1 += np.vdot(gdiff * warea[..., None], gdiff)

    energy = np.vdot(frobenius_weighted(H, space.mesh.areas), H)
    return float(np.sqrt(err2)), float(np.sqrt(errh1)), float(np.sqrt(energy))
