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
whose product assemble_linearized_bracket returns as a function,
applied element by element, for Newton's method.

All element loops are batched: per-element contractions are stacked
``matmul`` calls, which numpy hands to BLAS one small matrix at a time,
and every area-weighted Hessian Frobenius product goes through
``frobenius_weighted``.  The bilaplacian is assembled from triplets in a
fixed element order, so repeated runs are bit-identical.  The residual
and the bracket product run beside a level's LU factor: they gather one
field and scatter one test block at a time, each within a few vectors of
2n besides its result, in the arithmetic order of the whole-block forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .morley import MorleyField, MorleySpace, gradients, hessians
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

    loads(x, y) takes numpy coordinate arrays and returns the values of f
    and g at once; g is None for a zero load on the stress equation.
    include_bracket turns the nonlinear coupling off, reducing the system
    to two decoupled bilaplacian problems (a linear debugging mode).
    """

    loads: Callable
    include_bracket: bool = True
    quad_degree: int = 4

    def moments(self, space: MorleySpace) -> tuple:
        """Read-only moments (nt, 7) of f and of g (None for a zero g) under
        the data's rule (``MorleySpace.moments``)."""
        return space.moments(self.loads, triangle_rule(self.quad_degree))


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
    """Scalar piecewise Hessian stiffness matrix (n_dofs square), summed by chunks."""
    def element_matrices(t):
        H = hessians(np.swapaxes(space.coeffs[t], 1, 2), space.scales[t, None])  # (k, 6, 3) rows
        return frobenius_weighted(H, space.mesh.areas[t, None]) @ H.mT
    return space.scatter_matrix(element_matrices)


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


def _bracket_rows(space: MorleySpace, Hw: np.ndarray) -> np.ndarray:
    """Brackets [w, shape_j] (nt, 6) of a field with element Hessians Hw (nt, 3),
    against one shape function's Hessians (``hessians`` of its coefficients)
    at a time: numpy buffers a broadcast product, but not one of equal vectors."""
    return np.column_stack([vk_bracket(Hw, hessians(space.coeffs[:, 3:6, j], space.scales))
                            for j in range(6)])


def assemble_linearized_bracket(state: MorleyField) -> Callable[[np.ndarray], np.ndarray]:
    """Derivative B of the quadratic bracket terms at a state, as its product x -> Bx.

    B is 2n square.  Row blocks are test functions (p, q), column blocks
    the direction (du, dv); the (q, dv) block is zero.  Element K adds the
    rank-1 blocks SI_K (x) br_K, with SI_K its shape integrals and br_K the
    brackets [w, shape_j] of a frozen field w: -br_v to (p, du), -br_u
    to (p, dv) and br_u to (q, du).  The product gathers the direction
    (length 2n) and scatters the result field by field; B is never assembled.
    """
    space = state.space
    n = space.n_dofs
    br_u, br_v = (_bracket_rows(space, space.element_hessians(c)) for c in state.coeffs)

    def matvec(x):
        du, dv = np.reshape(x, (2, n))
        G = space.gather(du)
        q = np.einsum("tj,tj->t", br_u, G)
        p = -np.einsum("tj,tj->t", br_v, G)
        del G
        p -= np.einsum("tj,tj->t", br_u, space.gather(dv))
        return np.concatenate([space.scatter_constant(w) for w in (p, q)])

    return matvec


def apply_residual(
    state: MorleyField,
    data: ProblemData,
    A: sp.csr_matrix,
    load: np.ndarray,
) -> np.ndarray:
    """Residual vector of the discrete system at a state, on its space (length 2n).

    A is the bilaplacian and load the stacked load vector (length 2n).
    Each field is gathered, and each test block scattered, on its own.
    """
    space, C = state.space, state.coeffs
    r = np.concatenate([A @ c for c in C]) - load
    if data.include_bracket:
        Hu, Hv = (space.element_hessians(c) for c in C)
        br = (-vk_bracket(Hu, Hv), 0.5 * vk_bracket(Hu, Hu))  # test blocks p and q
        del Hu, Hv
        for half, b in zip(r.reshape(2, -1), br):
            half += space.scatter_constant(b)
    return r


def energy_norms(state: MorleyField, exact):
    """Error norms of a state against a smooth exact pair, on the state's space.

    Returns (piecewise H2 seminorm error, piecewise H1 seminorm error).
    exact(x, y) is vectorized and returns du, d2u, dv and d2v at once,
    gradients as (ux, uy) and Hessians as (hxx, hxy, hyy).  The rule's
    points are walked in ``rule_points``' chunks, so no whole-mesh array
    with a quadrature axis is built.  Each element's squared errors are
    summed over its (point, component) terms, u's then v's, into (2, nt)
    per-element values, which are summed over the elements once at the
    end: the norms do not depend on the chunk size.
    """
    space = state.space
    rule = triangle_rule(_ERROR_DEGREE)
    polys = space.element_polys(state.coeffs)
    H = hessians(polys, space.scales)  # (2, nt, 3)

    err = np.zeros((2, space.mesh.n_triangles))  # squared H2 and H1 errors per element
    for t, pts, xi in space.rule_points(rule):
        warea = rule.weights[None, :] * space.mesh.areas[t, None]
        G = gradients(polys[:, t, None, :], xi[..., 0], xi[..., 1]) / space.scales[t, None, None]
        du, d2u, dv, d2v = exact(pts[..., 0], pts[..., 1])
        for Hk, Gk, d1, d2 in zip(H[:, t], G, (du, dv), (d2u, d2v)):
            diff = np.stack(d2, axis=-1) - Hk[:, None, :]
            err[0, t] += (frobenius_weighted(diff, warea) * diff).sum(axis=(1, 2))
            gdiff = np.stack(d1, axis=-1) - Gk
            err[1, t] += (gdiff * warea[..., None] * gdiff).sum(axis=(1, 2))

    return tuple(float(np.sqrt(e)) for e in err.sum(axis=1))
