"""Newton-Krylov solver for the discrete von Karman system.

The Jacobian J = diag(A, A) + B at a state, the block bilaplacian plus
the state-frozen linearized bracket, is exact for the quadratic
nonlinearity, so the iteration converges quadratically near a regular
solution.  Steps are damped by halving whenever the residual would grow.

Each call factorises only the bilaplacian A, once.  The decoupled guess
solves with that factor, and each Newton step solves J d = -r by GMRES
(Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) preconditioned
by z -> (A^-1 z_u, A^-1 z_v); B is applied element by element, so J is
never assembled.  At a regular solution B is a compact perturbation
(Brezzi, Rappaz and Raviart, Numer. Math. 36, 1980), and the iteration
count does not grow with the mesh.

Given the estimator eta (the adaptive driver passes it), Newton stops at
the discretisation error: once ||r||_{A^-1} <= _LAMBDA eta, the dual norm
sqrt(r_u . A^-1 r_u + r_v . A^-1 r_v) taken with the same factor, which
keeps the axioms of adaptivity (Gantner, Haberl, Praetorius and
Stiftner, IMA J. Numer. Anal. 38, 2018).  Each GMRES solve is then
forced (Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996) to
_FORCING times the residual that target allows, never below its
rounding floor.  The dual norm solves the step's right-hand side -r with
the factor, so it also answers the two preconditioner calls GMRES makes
on -r before its first iteration.  Without eta, or under an explicit
tolerance, Newton stops at an algebraic residual bound and GMRES at the
rounding floor.

A is factorised in a nested-dissection order (George, SIAM J. Numer.
Anal. 10, 1973).  ``dissection_order`` dissects the mesh, not the
matrix: it bisects sets of triangles at their median centroid, down to
leaves of ``_ND_LEAF`` = 8 dofs (4 gives about the same fill, 16 more),
and takes as separator the dofs on triangles of both halves, the
interface vertices and edges.  A couples two dofs only through a triangle they
share, so the order reads only the space, and each separator
disconnects its halves.

``factorise`` factors the permuted A scaled symmetrically by its
diagonal, D^-1/2 A D^-1/2 with D = diag(A) (van der Sluis, Numer. Math.
14, 1969), whose diagonal is all ones, and ``solve`` unscales.  On a
graded mesh A's vertex-dof diagonal spans 8e3-2e9 while its edge-dof
diagonal stays within 4-8; unscaled, SuperLU left the diagonal hundreds
of times per factor (598 times at 33,177 dofs), and scaled, not once.
Rows and columns are permuted alike, so SuperLU runs in symmetric mode
with no column ordering of its own, in one-column panels
(``_PANEL_SIZE``), which keep the fill of wider ones, factor faster and
need no per-panel work arrays.  As a safety net it keeps a diagonal
pivot only while it is at least ``_PIVOT_THRESH`` times the largest
entry of its column, and pivots off the diagonal otherwise, which
breaks the order and adds fill (Demmel, Eisenstat, Gilbert, Li and Liu,
SIAM J. Matrix Anal. Appl. 20, 1999).
That trades stability for fill, so every solve checks its residual
against the rule it was asked to meet, on the unscaled A: a direct
solve against ``_FLOOR_FACTOR`` times its rounding floor
eps | |A| |x| + |b| |, with |A| read from A's own arrays at each check,
a GMRES solve against the tolerance GMRES was given.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import (
    ProblemData,
    apply_residual,
    assemble_bilaplacian,
    assemble_linearized_bracket,
    assemble_load,
)
from .morley import MorleyField, MorleySpace

__all__ = ["SolveReport", "SolverError", "dissection_order", "factorise",
           "linear_solve", "newton_solve"]

logger = logging.getLogger(__name__)

# A direct solve is accepted while each column's residual is at most this
# many times its rounding floor eps | |A| |x| + |b| |.  Sound solves stay
# near 1 (0.5-1.4 on a mesh graded to h 1e-6); a pivot that lost the
# factor's accuracy lands orders of magnitude above it.
_FLOOR_FACTOR = 100.0
# Subsets of at most this many dofs are not split further.
_ND_LEAF = 8
# SuperLU keeps the diagonal pivot if it is at least this fraction of
# the largest entry in its column.
_PIVOT_THRESH = 0.01
# SuperLU's panel width in columns.
_PANEL_SIZE = 1
# GMRES relative tolerance, and restart cycles (of 20 iterations) allowed.
_GMRES_RTOL = 1e-11
_GMRES_CYCLES = 10
# Discretisation stop ||r||_{A^-1} <= _LAMBDA eta, and the fraction of
# the residual it allows that each GMRES solve is forced to.
_LAMBDA = 1e-3
_FORCING = 0.3
# Newton steps allowed per solve, and step halvings per damped step.
_MAX_ITER = 20
_MAX_HALVINGS = 6


class SolverError(Exception):
    """Raised for singular systems or unusable linear solves."""


def check_tolerance(tol: float | None) -> None:
    """Reject an explicit Newton tolerance that is not finite and positive."""
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"Newton tolerance must be finite and positive, got {tol}")


@dataclass
class SolveReport:
    """Newton history, GMRES iterations per step, and the last tolerance applied.

    tolerance bounds the Euclidean residual, like ``residuals``; rule
    names the stop it came from, "algebraic" or "discretisation".
    """

    iterations: int = 0
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    damping_events: int = 0
    tolerance: float = 0.0
    krylov_iterations: list[int] = field(default_factory=list)
    rule: str = "algebraic"


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices starts[k] + range(counts[k]) for every k, concatenated."""
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(counts.sum())


def dissection_order(space: MorleySpace) -> np.ndarray:
    """Nested-dissection order of a Morley space's dofs, by triangle bisection.

    A subset of triangles with more than ``_ND_LEAF`` unnumbered dofs is
    sorted stably by centroid along its longer centroid extent and split
    at its median triangle.  Its separator, the unnumbered dofs on
    triangles of both halves, is ordered last, after the dofs of the left
    half and then of the right half, each ordered alike; leaves and
    separators list their dofs in ascending id.  Two dofs are coupled only
    through a triangle they share, so each separator disconnects its
    halves.  All subsets of one depth are split in one array pass.
    Returns a permutation of range(n_dofs).
    """
    n = space.n_dofs
    flat = space.dof_map.ravel()
    # Each dof's triangles, grouped by dof from first[dof] on; every free
    # dof lies on some triangle.
    slots = np.argsort(flat, kind="stable")[np.count_nonzero(flat < 0):]
    tri_of_slot = slots // 6
    first = np.searchsorted(flat[slots], np.arange(n))
    label = np.zeros(len(space.dof_map), dtype=np.int64)

    out = np.empty(n, dtype=np.int64)
    dofs = np.arange(n)  # the unnumbered dofs of each subset, one subset after another
    sizes = np.array([n])
    offsets = np.array([0])  # where each subset's order starts in out
    tris = np.arange(len(space.dof_map))  # each subset's triangles, likewise
    n_tris = np.array([len(tris)])
    while True:
        leaf = sizes <= _ND_LEAF
        out[_segments(offsets[leaf], sizes[leaf])] = dofs[np.repeat(leaf, sizes)]
        dofs, tris = dofs[np.repeat(~leaf, sizes)], tris[np.repeat(~leaf, n_tris)]
        sizes, offsets, n_tris = sizes[~leaf], offsets[~leaf], n_tris[~leaf]
        if not len(sizes):
            break

        starts = np.cumsum(n_tris) - n_tris
        part = np.repeat(np.arange(len(sizes)), n_tris)
        pts = space.centers[tris]
        extent = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        key = np.where((extent[:, 1] > extent[:, 0])[part], pts[:, 1], pts[:, 0])
        tris = tris[np.lexsort((key, part))]
        half = n_tris // 2
        # Subset p's left-half triangles get label 2p, its right-half ones
        # 2p + 1.  Earlier separators hold every dof on triangles of two
        # subsets, so an unnumbered dof's labels are all 2p or 2p + 1.
        label[tris] = 2 * part + (np.arange(len(tris)) - starts[part] >= half[part])
        labels = label[tri_of_slot]
        low = np.minimum.reduceat(labels, first)[dofs]
        on_cut = low != np.maximum.reduceat(labels, first)[dofs]

        n_cut = np.bincount(low[on_cut] // 2, minlength=len(sizes))
        out[_segments(offsets + sizes - n_cut, n_cut)] = dofs[on_cut]
        low, dofs = low[~on_cut], dofs[~on_cut]
        dofs = dofs[np.argsort(low, kind="stable")]
        sizes = np.bincount(low, minlength=2 * len(sizes))
        offsets = np.column_stack([offsets, offsets + sizes[0::2]]).ravel()
        n_tris = np.column_stack([half, n_tris - half]).ravel()
    return out


def factorise(A: sp.spmatrix, order: np.ndarray):
    """Factorise A once in a symmetric order; returns x = solve(b) for A x = b.

    A is factorised as S A[order][:, order] S with S = diag(A[order])^-1/2
    (rows and columns permuted alike, then scaled to a unit diagonal in
    place), in panels of ``_PANEL_SIZE`` columns; solve takes and returns
    vectors, or (n, k) blocks, in A's own numbering, as
    x[order] = S LU^-1 (S b[order]).  A diagonal entry that is not finite
    and positive raises SolverError naming its dof, before any scaling.
    A singular A, or memory run out in the permutation or in SuperLU
    (MemoryError, or SystemError), raises SolverError.
    """
    n = A.shape[0]
    diag = A.diagonal()
    bad = np.flatnonzero(~(np.isfinite(diag) & (diag > 0.0)))
    if len(bad):
        raise SolverError(f"diagonal entry {float(diag[bad[0]])!r} at dof {bad[0]} of {n} "
                          "dofs is not finite and positive")
    s = 1.0 / np.sqrt(diag[order])
    try:
        M = A.tocsr()[order][:, order].tocsc()
        M.data *= s[M.indices]
        M.data *= np.repeat(s, np.diff(M.indptr))
        lu = spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=_PIVOT_THRESH,
                       panel_size=_PANEL_SIZE, options=dict(SymmetricMode=True))
    except (RuntimeError, MemoryError, SystemError) as exc:
        raise SolverError(f"sparse factorization of {n} dofs failed: {exc!r}") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        w = s if np.ndim(b) == 1 else s[:, None]
        x = np.empty_like(b, dtype=float)
        x[order] = w * lu.solve(w * b[order])
        return x
    return solve


def linear_solve(A: sp.spmatrix, b: np.ndarray, solve) -> np.ndarray:
    """Solve A x = b with a factor of A (``factorise``), with a residual check.

    b may be one vector or an (n, k) block of k vectors.  Each column's
    residual must be at most ``_FLOOR_FACTOR`` times its own rounding
    floor eps | |A| |x| + |b| |, the level that no solve can get below.
    """
    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("linear solve produced non-finite values")
    resid = np.linalg.norm(A @ x - b, axis=0)
    floor = np.finfo(float).eps * np.linalg.norm(_abs_product(A, x) + np.abs(b), axis=0)
    ratio = np.max(resid / np.maximum(floor, np.finfo(float).tiny))
    if ratio > _FLOOR_FACTOR:
        raise SolverError(f"linear solve residual {np.max(resid):.2e} is {ratio:.3g} times its "
                          f"rounding floor, above {_FLOOR_FACTOR:g}")
    return x


def biharmonic_guess(space: MorleySpace, A: sp.csr_matrix, load: np.ndarray,
                     solve) -> MorleyField:
    """Initial state from the decoupled linear problem (brackets off).

    A is the bilaplacian, load both load blocks (length 2n) and solve
    A's factor (``factorise``), which serves both blocks.
    """
    X = linear_solve(A, load.reshape(2, -1).T, solve)
    return MorleyField(space, np.ascontiguousarray(X.T))


def _abs_product(A: sp.spmatrix, X: np.ndarray) -> np.ndarray:
    """|A| |X|, summed as ``abs(A) @ np.abs(X)`` for CSR or CSC A; no |A| is kept."""
    A = A if A.format in ("csr", "csc") else A.tocsr()
    return type(A)((np.abs(A.data), A.indices, A.indptr), shape=A.shape) @ np.abs(X)


def _rounding_floor(A: sp.csr_matrix, load: np.ndarray, x: np.ndarray) -> float:
    """eps | |A2| |x| + |load| |: the rounding level of A2 x - load.

    A2 is the block bilaplacian diag(A, A) and x the iterate, a 2n vector
    (u block, then v block) or a (2, n) block.
    """
    ax = _abs_product(A, np.reshape(x, (2, -1)).T).T.ravel()
    return np.finfo(float).eps * float(np.linalg.norm(ax + np.abs(load)))


def _default_tolerance(load: np.ndarray, floor: float) -> float:
    """max(1e-10 |load|, 1e-12, floor), floor from ``_rounding_floor``.

    Morley load entries scale with element area while |A| grows with
    refinement, so on fine meshes the load term alone falls below what
    the residual can reach.
    """
    return max(1e-10 * float(np.linalg.norm(load)), 1e-12, floor)


def _dual_norm(r: np.ndarray, solve) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """||r||_{A^-1} = sqrt(r_u . A^-1 r_u + r_v . A^-1 r_v) of a 2n residual, and
    the (n, 2) block B of the Newton step's right-hand side -r with A^-1 B.
    The norm is taken from B, as negation is exact."""
    B = -np.reshape(r, (2, -1)).T
    X = solve(B)
    return math.sqrt(max(0.0, float(np.sum(B * X)))), (B, X)


def _krylov_solve(J: spla.LinearOperator, b: np.ndarray, precond: spla.LinearOperator,
                  atol: float) -> tuple[np.ndarray, int]:
    """GMRES solve of J d = b; returns d and the number of iterations.

    GMRES stops once its true residual is at most atol, and the step is
    accepted only if |J d - b| <= atol holds when checked again.
    """
    steps = []
    d, info = spla.gmres(J, b, rtol=0.0, atol=atol, M=precond,
                         maxiter=_GMRES_CYCLES, callback=steps.append, callback_type="pr_norm")
    if info != 0:
        raise SolverError(f"GMRES did not converge in {len(steps)} iterations")
    if (resid := float(np.linalg.norm(J @ d - b))) > atol:
        raise SolverError(f"GMRES residual {resid:.2e} above its forcing target {atol:.2e}")
    return d, len(steps)


def _backtrack(attempt: Callable[[float], tuple], rnorm: float, max_halvings: int):
    """The first trial attempt(2^-k) under rnorm in norm (item 0), else the first smallest; k."""
    best = None
    for halving in range(max_halvings + 1):
        trial = attempt(0.5**halving)
        if trial[0] < rnorm:
            return trial, halving
        if best is None or trial[0] < best[0]:
            best = trial
    return best, max_halvings


def newton_solve(
    space: MorleySpace,
    data: ProblemData,
    initial: MorleyField | None = None,
    *,
    residual_tol: float | None = None,
    estimator: Callable[[MorleyField], float] | None = None,
) -> tuple[MorleyField, SolveReport]:
    """Solve the discrete system by damped Newton iteration.

    Without an initial state, a (2, n) block on space (else ValueError),
    the decoupled linear solve seeds the iteration.  One factor of A per
    call serves that solve and the preconditioner of each of at most
    ``_MAX_ITER`` Newton steps.  A step whose residual grows is halved up
    to ``_MAX_HALVINGS`` times, each a damping event, and else the
    smallest trial is taken.  The report's residuals start at the seed's.

    residual_tol, finite and positive (else ValueError), bounds the
    Euclidean residual; None picks ``_default_tolerance`` at each iterate.
    Below the residual's rounding floor GMRES returns a zero step, so an
    explicit residual_tol under that floor ends the iteration unconverged.

    estimator, the estimator eta at a state, is called at every iterate
    when ``residual_tol`` is None; the iteration then also stops once
    ||r||_{A^-1} <= _LAMBDA eta, with forced GMRES steps.  The last call
    is at the returned state.
    """
    check_tolerance(residual_tol)
    n = space.n_dofs
    if initial is not None and (initial.space is not space or initial.coeffs.shape != (2, n)):
        raise ValueError(f"seed of shape {initial.coeffs.shape} on {initial.space.n_dofs} "
                         f"dofs, not (2, {n}) on this space of {n} dofs")
    A = assemble_bilaplacian(space)
    load = assemble_load(space, data)
    solve = factorise(A, dissection_order(space))

    if initial is None:
        state = biharmonic_guess(space, A, load, solve)
    else:
        state = MorleyField(space, initial.coeffs.copy())

    report = SolveReport()
    r = apply_residual(state, data, A, load)
    rnorm = float(np.linalg.norm(r))
    report.residuals.append(rnorm)

    def block_operator(apply):
        # The u and v halves of a 2n vector as the columns of an (n, 2) block.
        return spla.LinearOperator(
            (2 * n, 2 * n), matvec=lambda z: apply(np.reshape(z, (2, n)).T).T.ravel(), dtype=float)

    # The dual norm has solved the step's right-hand side block already, and
    # GMRES preconditions it twice before its first iteration (for its norm,
    # then as its first basis vector): the seed (B, A^-1 B) answers both.
    seed = None

    def seeded_solve(Z):
        if seed is not None and np.array_equal(Z, seed[0]):
            return seed[1].copy()
        return solve(Z)

    A2 = block_operator(lambda Z: A @ Z)
    precond = block_operator(seeded_solve)
    discretisation = estimator is not None and residual_tol is None
    while True:
        floor = _rounding_floor(A, load, state.coeffs)
        report.tolerance = residual_tol or _default_tolerance(load, floor)
        gmres_tol, ratio = max(floor, _GMRES_RTOL * rnorm), None
        if discretisation:
            # ||r||_{A^-1} <= _LAMBDA eta, as a bound on the Euclidean |r|.
            eta = estimator(state)
            dual, seed = _dual_norm(r, solve)
            allowed = _LAMBDA * eta * rnorm / dual if dual > 0.0 else 0.0
            report.rule = "discretisation" if allowed > report.tolerance else "algebraic"
            report.tolerance = max(report.tolerance, allowed)
            gmres_tol = max(floor, _FORCING * allowed)
            ratio = dual / eta if eta > 0.0 else math.inf
        report.converged = rnorm <= report.tolerance
        if report.converged or report.iterations >= _MAX_ITER:
            break
        J = A2 + assemble_linearized_bracket(state) if data.include_bracket else A2
        delta, steps = _krylov_solve(J, -r, precond, gmres_tol)
        if steps == 0:
            # The residual is under its rounding floor but above an
            # explicit tolerance: no step can lower it further.
            break

        def attempt(alpha):
            trial_state = MorleyField(space, state.coeffs + alpha * delta.reshape(2, n))
            trial_r = apply_residual(trial_state, data, A, load)
            return float(np.linalg.norm(trial_r)), trial_state, trial_r

        accepted, halvings = _backtrack(attempt, rnorm, _MAX_HALVINGS)
        report.damping_events += halvings
        logger.debug("Newton step %d: residual %.3e -> %.3e (tol %.3e, |r|_A^-1/eta %s), "
                     "GMRES target %.3e, %d GMRES iterations, %d halvings",
                     report.iterations + 1, rnorm, accepted[0], report.tolerance,
                     "n/a" if ratio is None else f"{ratio:.3e}", gmres_tol, steps, halvings)
        rnorm, state, r = accepted
        report.residuals.append(rnorm)
        report.krylov_iterations.append(steps)
        report.iterations += 1

    if not report.converged:
        logger.warning(
            "Newton did not converge: %d iterations, residual %.3e (%s tol %.3e, rounding "
            "floor %.3e), last residuals %s", report.iterations, rnorm, report.rule,
            report.tolerance, floor,
            ", ".join(f"{res:.3e}" for res in report.residuals[-3:]),
        )
    return state, report
