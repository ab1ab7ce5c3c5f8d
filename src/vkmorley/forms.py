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

All element loops are batched; the bilaplacian is assembled from
triplets in a fixed element order, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .morley import MorleyField, MorleySpace, batch_eval, hessians, monomials
from .quadrature import triangle_rule

__all__ = [
    "ProblemData",
    "StatePair",
    "vk_bracket",
    "assemble_bilaplacian",
    "assemble_load",
    "assemble_linearized_bracket",
    "apply_residual",
    "energy_norms",
]

# Frobenius weights for Hessians stored as (hxx, hxy, hyy).
_FROB = np.array([1.0, 2.0, 1.0])


@dataclass
class ProblemData:
    """Right-hand sides and assembly options for one plate problem.

    f and g take numpy coordinate arrays and return arrays; g may be
    None for a zero load on the stress equation.  include_bracket turns
    the nonlinear coupling off, reducing the system to two decoupled
    bilaplacian problems (a linear debugging mode).
    """

    f: Callable
    g: Callable | None = None
    include_bracket: bool = True
    quad_degree: int = 4


@dataclass
class StatePair:
    """A deflection/stress pair over one Morley space."""

    u: MorleyField
    v: MorleyField

    @property
    def space(self) -> MorleySpace:
        return self.u.space

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.u.coeffs, self.v.coeffs])

    @staticmethod
    def from_vector(space: MorleySpace, x: np.ndarray) -> "StatePair":
        n = space.n_dofs
        return StatePair(
            MorleyField(space, x[:n].copy()), MorleyField(space, x[n:].copy())
        )


def vk_bracket(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Bracket of Hessians given as (..., 3) rows (hxx, hxy, hyy)."""
    return (
        h1[..., 0] * h2[..., 2]
        + h1[..., 2] * h2[..., 0]
        - 2.0 * h1[..., 1] * h2[..., 1]
    )


def assemble_bilaplacian(space: MorleySpace) -> sp.csr_matrix:
    """Scalar piecewise Hessian stiffness matrix (n_dofs square)."""
    H = space.shape_hess  # (nt, 6, 3)
    local = np.einsum("tic,tjc,c,t->tij", H, H, _FROB, space.mesh.areas)
    dm = space.dof_map
    rows = np.broadcast_to(dm[:, :, None], local.shape)
    cols = np.broadcast_to(dm[:, None, :], local.shape)
    mask = (rows >= 0) & (cols >= 0)
    n = space.n_dofs
    return sp.coo_matrix((local[mask], (rows[mask], cols[mask])), shape=(n, n)).tocsr()


def assemble_load(space: MorleySpace, data: ProblemData) -> np.ndarray:
    """Load vector of both equations, length 2 n_dofs."""
    n = space.n_dofs
    out = np.zeros(2 * n)
    rule = triangle_rule(data.quad_degree)
    pts = space.quadrature_points(rule)  # (nt, q, 2)
    xi = space.local_coords(np.arange(space.mesh.n_triangles)[:, None], pts)
    shapes = np.einsum("tqm,tmi->tqi", monomials(xi), space.coeffs)  # (nt, q, 6)
    warea = rule.weights[None, :] * space.mesh.areas[:, None]

    dm = space.dof_map
    mask = dm >= 0
    for offset, func in ((0, data.f), (n, data.g)):
        if func is None:
            continue
        local = np.einsum("tq,tq,tqi->ti", warea, space.values_at(func, rule), shapes)
        out[offset:offset + n] = np.bincount(dm[mask], weights=local[mask], minlength=n)
    return out


def assemble_linearized_bracket(space: MorleySpace, state: StatePair) -> spla.LinearOperator:
    """Derivative of the quadratic bracket terms at a state (2n square operator).

    Row blocks are test functions (p, q), column blocks the direction
    (du, dv); the (q, dv) block is zero.  Element K adds the rank-1
    blocks SI_K (x) br_K, with SI_K its shape integrals and br_K the
    brackets [w, shape_j] of a frozen field w: -br_v to (p, du), -br_u
    to (p, dv) and br_u to (q, du).  The operator gathers the direction
    through ``dof_map`` and scatters by ``np.bincount``; it is never
    assembled.
    """
    n = space.n_dofs
    SI = space.shape_integral  # (nt, 6)
    # [w, shape_j] for the frozen fields, shape (nt, 6).
    br_u = vk_bracket(space.element_hessians(state.u.coeffs)[:, None, :], space.shape_hess)
    br_v = vk_bracket(space.element_hessians(state.v.coeffs)[:, None, :], space.shape_hess)
    dm = space.dof_map
    mask = dm >= 0
    rows = dm[mask]

    def matvec(x):
        # A zero appended to each block serves the constrained slots (-1).
        du = np.append(x[:n], 0.0)[dm]
        dv = np.append(x[n:], 0.0)[dm]
        p = -np.einsum("tj,tj->t", br_v, du) - np.einsum("tj,tj->t", br_u, dv)
        q = np.einsum("tj,tj->t", br_u, du)
        return np.concatenate([
            np.bincount(rows, weights=(p[:, None] * SI)[mask], minlength=n),
            np.bincount(rows, weights=(q[:, None] * SI)[mask], minlength=n),
        ])

    return spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=float)


def apply_residual(
    space: MorleySpace,
    state: StatePair,
    data: ProblemData,
    A: sp.csr_matrix,
    load: np.ndarray,
) -> np.ndarray:
    """Residual vector of the discrete system at a state (length 2n).

    A is the bilaplacian and load the stacked load vector (length 2n).
    """
    n = space.n_dofs
    x = state.to_vector()
    r = np.concatenate([A @ x[:n], A @ x[n:]]) - load
    if data.include_bracket:
        Hu = space.element_hessians(state.u.coeffs)
        Hv = space.element_hessians(state.v.coeffs)
        br_uv = vk_bracket(Hu, Hv)
        br_uu = vk_bracket(Hu, Hu)
        SI = space.shape_integral
        dm = space.dof_map
        mask = dm >= 0
        local1 = -br_uv[:, None] * SI  # test block p
        local2 = 0.5 * br_uu[:, None] * SI  # test block q
        r[:n] += np.bincount(dm[mask], weights=local1[mask], minlength=n)
        r[n:] += np.bincount(dm[mask], weights=local2[mask], minlength=n)
    return r


def energy_norms(space: MorleySpace, state: StatePair, exact, degree: int = 6):
    """Error norms against a smooth exact pair.

    Returns (piecewise H2 seminorm error, piecewise H1 seminorm error,
    piecewise H2 seminorm of the discrete state).  exact provides
    vectorized du, d2u, dv, d2v callables; Hessians as (hxx, hxy, hyy).
    Their values come from the space's quadrature cache, so a callable
    shared by u and v is evaluated once.
    """
    mesh = space.mesh
    rule = triangle_rule(degree)
    pts = space.quadrature_points(rule)
    warea = rule.weights[None, :] * mesh.areas[:, None]

    pu = space.element_polys(state.u.coeffs)
    pv = space.element_polys(state.v.coeffs)
    Hu = hessians(pu, space.scales)
    Hv = hessians(pv, space.scales)
    _, gu = batch_eval(space, pu, pts)
    _, gv = batch_eval(space, pv, pts)

    err2 = 0.0
    errh1 = 0.0
    for H, G, dfun, hfun in ((Hu, gu, exact.du, exact.d2u), (Hv, gv, exact.dv, exact.d2v)):
        diff = space.values_at(hfun, rule) - H[:, None, :]
        err2 += np.einsum("tqc,c,tq->", diff**2, _FROB, warea)
        gdiff = space.values_at(dfun, rule) - G
        errh1 += np.einsum("tqc,tq->", gdiff**2, warea)

    energy = np.einsum("tc,c,t->", Hu**2 + Hv**2, _FROB, mesh.areas)
    return float(np.sqrt(err2)), float(np.sqrt(errh1)), float(np.sqrt(energy))
