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
count does not grow with the mesh.  ``_gmres`` is scipy's gmres to the
bit, but its basis grows a row per iteration, it is handed A^-1 (-r),
solved once per step, and J z fills one vector of 2n: each kernel of a
step holds at most a few such vectors besides its result.

Given the estimator eta (the adaptive driver passes it), Newton stops at
the discretisation error: once ||r||_{A^-1} <= _LAMBDA eta, the dual norm
sqrt(r_u . A^-1 r_u + r_v . A^-1 r_v) taken with the same factor, which
keeps the axioms of adaptivity (Gantner, Haberl, Praetorius and
Stiftner, IMA J. Numer. Anal. 38, 2018); its A^-1 (-r) is the one GMRES
takes.  Each GMRES solve is then forced (Eisenstat and Walker, SIAM J.
Sci. Comput. 17, 1996) to _FORCING times the residual that target
allows, never below its rounding floor.  Without eta, or under an
explicit tolerance, Newton stops at an algebraic residual bound and
GMRES at the rounding floor.

A is factorised in a nested-dissection order (George, SIAM J. Numer.
Anal. 10, 1973) that ``dissection_order`` takes from the mesh, not the
matrix, by ratio cuts on four centroid projections, x + y, x - y, x and
y, the directions bisection makes edges in (about half the fill of
median cuts on graded meshes; at even uniform depths, whose cheapest
separators run along the diagonals, a third less than cuts on the two
axes alone), down to leaves of ``_ND_LEAF`` = 8 dofs (4 saves at most
4 % of the fill, 12 or 16 add 6-9 %).  It is scaled symmetrically by its
diagonal (van der Sluis, Numer. Math. 14, 1969): on a graded mesh A's
vertex-dof diagonal spans 8e3-2e9 while its edge-dof diagonal stays
within 4-8, and unscaled, SuperLU left the diagonal hundreds of times
per factor (598 times at 33,177 dofs), scaled, not once.  SuperLU runs
in symmetric mode with no column ordering of its own, in one-column panels
(``_PANEL_SIZE``), which keep the fill of wider ones, factor faster and
need no per-panel work arrays.  As a safety net it keeps a diagonal
pivot only while it is at least ``_PIVOT_THRESH`` times the largest
entry of its column, and pivots off the diagonal otherwise, which breaks
the order and adds fill (Demmel, Eisenstat, Gilbert, Li and Liu, SIAM J.
Matrix Anal. Appl. 20, 1999).  That trades stability for fill, so every
solve checks its residual on the unscaled A: a direct solve against
``_FLOOR_FACTOR`` times its rounding floor eps | |A| |x| + |b| |, with
|A| read from A's own arrays a row block at a time, a GMRES solve
against the tolerance GMRES was given.
"""

from __future__ import annotations

import ctypes
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dlartg

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
# Stored entries of |A| per row block of a rounding floor, or 4n/3 if more:
# a block's |A| values and the CSR index copy take 12 bytes an entry, so it
# fits in one vector of 2n doubles (about 7 blocks on a Morley bilaplacian).
_ABS_BLOCK = 1024
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
# glibc's int malloc_trim(size_t pad), or None where the C library has none.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int


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


def dissection_order(space: MorleySpace) -> np.ndarray:
    """Nested-dissection order of a Morley space's dofs, by triangle bisection.

    A subset of m triangles with more than ``_ND_LEAF`` unnumbered dofs is
    ranked by four projections of the centroids, x + y, x - y, x and y,
    ties by triangle id, and cut into its first k triangles and the rest:
    newest-vertex bisection of the square and the L-shape makes edges in
    those four directions only, and where every grid square is split by a
    diagonal the cheapest separators run along the diagonals.  The
    unnumbered dofs on triangles of both halves, S, separate those on one
    half only, L and R: two dofs are coupled only through a triangle they
    share.  Of the cuts with k within m // 5 of m // 2, on any projection,
    the subset takes the one with the least |S| / min(|L|, |R|) (ratio
    cut: Wei and Cheng, IEEE Trans. CAD 10, 1991); an empty L or R ranks
    last, and ties go to the cut nearest the median, then to the
    projections in the order above (diagonals first), then to the smaller
    k.  S is ordered after L and then R, each ordered alike; leaves and
    separators list their dofs in ascending id.  Every cut of every subset
    of one depth is scored in one array pass.  Returns a permutation of
    range(n_dofs).
    """
    n = space.n_dofs
    # Each dof's triangles as the columns of two tables, with the columns of
    # ext they fill: the vertex dofs' padded with repeats to the largest
    # degree, then the edge dofs' two (a free edge is interior).
    flat = space.dof_map[:, :3].ravel()
    slots = np.argsort(flat)[np.count_nonzero(flat < 0):]
    first = np.searchsorted(flat[slots], np.arange(np.count_nonzero(space.vertex_dof >= 0) + 1))
    width = np.arange(np.max(np.diff(first), initial=1))[:, None]
    tables = ((slots[np.minimum(first[:-1] + width, first[1:] - 1)] // 3, np.s_[:len(first) - 1]),
              (space.mesh.edge_tris[~space.mesh.edge_is_boundary].T, np.s_[len(first) - 1:]))
    # Positions in a depth's sequences are below the triangle count, so rank and
    # ext take 2 bytes an entry below 2^16 triangles.
    rank = np.empty((4, len(space.dof_map)), dtype=np.min_scalar_type(len(space.dof_map)))
    right_tri = np.empty(len(space.dof_map), dtype=bool)
    start = np.empty(n, dtype=np.int32)  # where each dof's leaf or separator starts in the order
    live, sub = np.arange(n), np.zeros(n, dtype=np.int64)  # unnumbered dofs, and their subsets
    # Each subset's dofs, order start and triangles, in rank order along each projection.
    sizes, offsets = np.array([n], dtype=np.int32), np.array([0], dtype=np.int32)
    n_tris = np.array([len(right_tri)], dtype=np.int32)
    x, y = space.centers.T
    seqs = np.argsort([x + y, x - y, x, y], axis=1, kind="stable")
    flat = slots = first = x = y = None
    # The projections' rows, and their places in the tie order of pref.
    rows, parity = np.arange(4)[:, None], np.arange(0, 8, 2, dtype=np.int32)[:, None]
    while True:
        leaf = sizes <= _ND_LEAF
        if leaf.any():
            on_leaf = leaf[sub]
            start[live[on_leaf]] = offsets[sub[on_leaf]]
            live, sub = live[~on_leaf], (np.cumsum(~leaf) - 1)[sub[~on_leaf]]
            seqs = seqs.compress(~leaf.repeat(n_tris), axis=1)
            sizes, offsets, n_tris = sizes[~leaf], offsets[~leaf], n_tris[~leaf]
            if not len(sizes):
                break

        m, starts = seqs.shape[1], n_tris.cumsum(dtype=np.int32) - n_tris
        part = np.arange(len(sizes)).repeat(n_tris)
        local = np.arange(m, dtype=np.int32) - starts[part]
        # Every dof's lowest and highest position starts[p] + rank among its
        # triangles, on each projection; an unnumbered dof's all lie in its subset p.
        rank[rows, seqs] = np.arange(m, dtype=rank.dtype)
        ext = np.empty((8, n), dtype=rank.dtype)  # lowest on each projection, then highest
        for table, cols in tables:
            ranks = rank.take(table, axis=1)
            ranks.min(axis=1, out=ext[:4, cols])
            ranks.max(axis=1, out=ext[4:, cols])
            del ranks
        ext = ext.take(live, axis=1)
        # The cut after a position, at k = local + 1, leaves the dofs whose
        # highest position is at or below it in L, the others whose lowest is
        # in S, the rest in R: counts at or below every position score all cuts.
        below = np.empty((8, m), dtype=np.int32)
        for counts, row in zip(below, ext):
            counts[:] = np.bincount(row, minlength=m)
        below.cumsum(axis=1, out=below)
        ends = sizes.cumsum(dtype=np.int32)
        n_min = np.minimum(below[4:] - (ends - sizes)[part], ends[part] - below[:4])
        below[:4] -= below[4:]  # |S|
        half, k = n_tris // 2, local + 1
        dist = np.abs(k - half[part])
        # |S| / min(|L|, |R|) as a float orders as the integer products
        # |S| min(|L'|, |R'|) do: two unequal ratios of integers up to n
        # differ by 1 / n^2 at least, more than their rounding while n^2 < 2^52.
        ratio = below[:4] / np.maximum(n_min, 1)
        ratio[(n_min == 0) | (dist > (n_tris // 5)[part])] = np.inf
        pref = 8 * dist + (k > half[part]) + parity  # nearest the median, projection, smaller k
        pref[ratio != np.minimum.reduceat(ratio.min(axis=0), starts)[part]] = 8 * m
        pick = np.minimum.reduceat(pref.min(axis=0), starts)
        proj, cut = pick // 2 % 4, half + pick // 8 * (pick % 2 * 2 - 1)
        below = n_min = ratio = pref = None  # freed early, as are ranks and ext: one depth's peak
        on, at_cut = proj[sub], (starts + cut)[sub]
        at = np.arange(len(live))
        right = ext[on, at] >= at_cut
        on_cut = ~right & (ext[4 + on, at] >= at_cut)
        ext = at = at_cut = None
        n_cut = np.bincount(sub[on_cut], minlength=len(sizes))
        start[live[on_cut]] = (offsets + sizes - n_cut)[sub[on_cut]]
        live, sub = live[~on_cut], 2 * sub[~on_cut] + right[~on_cut]
        # Each subset's sequences keep their order within either half (a radix
        # sort below 2^15 subsets).
        right_tri[seqs[proj[part], np.arange(m)]] = local >= cut[part]
        seqs = seqs[rows, (2 * part + right_tri[seqs]).astype(
            np.min_scalar_type(2 * len(sizes))).argsort(axis=1, kind="stable")]
        sizes = np.bincount(sub, minlength=2 * len(sizes)).astype(np.int32)
        offsets = np.array([offsets, offsets + sizes[0::2]]).T.ravel()
        n_tris = np.array([cut, n_tris - cut]).T.ravel()
    # Ascending id within each leaf and separator (a radix sort below 2^16 dofs).
    return start.astype(np.min_scalar_type(n)).argsort(kind="stable")


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

    Right before SuperLU, glibc's ``malloc_trim(0)`` hands the heap's free
    pages back (skipped where the C library has none): each level's factor
    is freed into the heap, and the next, larger one cannot reuse that
    space, so peak RSS would climb with the number of levels.
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
        if _malloc_trim is not None:
            _malloc_trim(0)
        lu = spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=_PIVOT_THRESH,
                       panel_size=_PANEL_SIZE, options=dict(SymmetricMode=True))
    except (RuntimeError, MemoryError, SystemError) as exc:
        raise SolverError(f"sparse factorization of {n} dofs failed: {exc!r}") from exc

    def scale(y):  # column by column: numpy buffers a broadcast product
        for col in y.reshape(n, -1).T:
            col *= s
        return y

    def solve(b: np.ndarray) -> np.ndarray:
        y = lu.solve(scale(b[order]))
        x = np.empty_like(b, dtype=float)
        x[order] = scale(y)
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
    ax = _abs_product(A, x)
    floor = np.finfo(float).eps * np.linalg.norm(np.add(ax, np.abs(b), out=ax), axis=0)
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
    """|A| |X|, each row summed as in ``abs(A) @ np.abs(X)``, with A as CSR and
    |A| read in row blocks of about max(4n/3, _ABS_BLOCK) entries, not whole."""
    A, X = A.tocsr(), np.abs(X, out=np.empty(np.shape(X)))  # C order: no copy per block
    out = np.empty(X.shape)
    cuts = np.searchsorted(A.indptr, np.arange(0, A.nnz + 1, max(4 * A.shape[0] // 3, _ABS_BLOCK)))
    for i0, i1 in zip(cuts, [*cuts[1:], A.shape[0]]):
        s, e = A.indptr[i0], A.indptr[i1]
        out[i0:i1] = sp.csr_matrix((np.abs(A.data[s:e]), A.indices[s:e], A.indptr[i0:i1 + 1] - s),
                                   shape=(i1 - i0, A.shape[1])) @ X
    return out


def _rounding_floor(A: sp.csr_matrix, load: np.ndarray, x: np.ndarray) -> float:
    """eps | |A2| |x| + |load| |: the rounding level of A2 x - load.

    A2 is the block bilaplacian diag(A, A) and x the iterate, a 2n vector
    (u block, then v block) or a (2, n) block.
    """
    ax = _abs_product(A, np.reshape(x, (2, -1)).T).T.ravel()
    return np.finfo(float).eps * float(np.linalg.norm(np.add(ax, np.abs(load), out=ax)))


def _default_tolerance(load: np.ndarray, floor: float) -> float:
    """max(1e-10 |load|, 1e-12, floor), floor from ``_rounding_floor``.

    Morley load entries scale with element area while |A| grows with
    refinement, so on fine meshes the load term alone falls below what
    the residual can reach.
    """
    return max(1e-10 * float(np.linalg.norm(load)), 1e-12, floor)


def _gmres(matvec, b: np.ndarray, Mb: np.ndarray, psolve, atol: float):
    """scipy.sparse.linalg.gmres(J, b, rtol=0, atol=atol, M=psolve, maxiter=_GMRES_CYCLES)
    to the bit, as (x, iterations, info), given Mb = psolve(b); its basis grows
    a row per iteration (scipy reserves 21), and is read by fresh views after each."""
    bnrm2 = np.linalg.norm(b)
    if bnrm2 < atol or bnrm2 == 0.0:
        return (np.zeros_like(b) if bnrm2 else b), 0, 0
    m, restart, eps = len(b), min(20, len(b)), np.finfo(float).eps
    h, givens, S = np.zeros((restart, restart)), np.zeros((restart, 2)), np.zeros(restart + 1)
    factor, x, z, iterations = 1.0, np.zeros(m), Mb, 0
    ptol = np.linalg.norm(Mb) * min(factor, atol / bnrm2)
    for _ in range(_GMRES_CYCLES):
        S[0] = np.linalg.norm(z)
        V, z = z.reshape(1, m) * (1 / S[0]), None
        for col in range(restart):
            w = psolve(matvec(V[col]))
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                h[col, k] = tmp = np.dot(V[k], w)
                w -= tmp * V[k]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0  # an invariant Krylov space: x is exact
            w *= 1.0 if breakdown else 1 / h1
            V.resize((col + 2, m), refcheck=False)  # only now: the products ran a row smaller
            V[col + 1] = w
            del w
            for k in range(col):
                (c, s), (n0, n1) = givens[k], h[col, k:k + 2]
                h[col, k:k + 2] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, h[col, col] = dlartg(h[col, col], 0.0 if breakdown else h1)
            givens[col] = c, s
            S[col], S[col + 1] = c * S[col], -s * S[col]
            presid, iterations = abs(S[col + 1]), iterations + 1
            if presid <= ptol or breakdown:
                break
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        x += y @ V[:col + 1]
        V = None  # freed before the residual's product
        r = b - matvec(x)
        if (rnorm := np.linalg.norm(r)) <= atol or breakdown:
            break
        factor = max(eps, 0.25 * factor) if presid <= ptol else min(1.0, 1.5 * factor)
        ptol = presid * min(factor, atol / rnorm)
        z, r = psolve(r), None  # the next cycle keeps neither
    return x, iterations, 0 if rnorm <= atol else _GMRES_CYCLES


def _krylov_solve(matvec: Callable, b, Mb, psolve, atol: float) -> tuple[np.ndarray, int]:
    """GMRES solve of J d = b, matvec z -> J z and Mb = psolve(b); returns d and the
    iterations.  The step is accepted only if |J d - b| <= atol holds when checked again."""
    d, steps, info = _gmres(matvec, b, Mb, psolve, atol)
    if info != 0:
        raise SolverError(f"GMRES did not converge in {steps} iterations")
    if (resid := float(np.linalg.norm(matvec(d) - b))) > atol:
        raise SolverError(f"GMRES residual {resid:.2e} above its forcing target {atol:.2e}")
    return d, steps


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

    def precond(z):
        # The u and v halves of a 2n vector as the columns of an (n, 2) block.
        return solve(np.reshape(z, (2, n)).T).T.ravel()

    def jacobian(z):
        # J z as B z (B is set for each GMRES solve), then A z_u and A z_v added
        # into its halves: one output row, and no product of A held while B allocates.
        out = np.zeros(2 * n) if B is None else B(z)
        for half, zk in zip(out.reshape(2, n), np.reshape(z, (2, n))):
            half += A @ zk
        return out

    discretisation = estimator is not None and residual_tol is None
    while True:
        floor = _rounding_floor(A, load, state.coeffs)
        report.tolerance = residual_tol or _default_tolerance(load, floor)
        gmres_tol, ratio, Mb = max(floor, _GMRES_RTOL * rnorm), None, None
        b, r = -r, None  # GMRES's right-hand side; the residual itself is not kept
        if discretisation:
            # ||r||_{A^-1} <= _LAMBDA eta, as a bound on the Euclidean |r|.
            eta = estimator(state)
            # The dual norm's A^-1 (-r) is GMRES's preconditioned right-hand side.
            X = solve(b.reshape(2, n).T)
            dual, Mb = math.sqrt(max(0.0, float(np.sum(b.reshape(2, n).T * X)))), X.T.ravel()
            allowed = _LAMBDA * eta * rnorm / dual if dual > 0.0 else 0.0
            report.rule = "discretisation" if allowed > report.tolerance else "algebraic"
            report.tolerance = max(report.tolerance, allowed)
            gmres_tol = max(floor, _FORCING * allowed)
            ratio = dual / eta if eta > 0.0 else math.inf
        report.converged = rnorm <= report.tolerance
        if report.converged or report.iterations >= _MAX_ITER:
            break
        B = assemble_linearized_bracket(state) if data.include_bracket else None
        delta, steps = _krylov_solve(jacobian, b, precond(b) if Mb is None else Mb, precond, gmres_tol)
        B = b = Mb = X = None  # none of them is needed while the step is damped
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
