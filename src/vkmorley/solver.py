"""Newton solver for the discrete von Karman system.

The Jacobian at a state is the block bilaplacian plus the state-frozen
linearized bracket; it is exact for the quadratic nonlinearity, so the
iteration converges quadratically near a regular solution.  Steps are
damped by halving whenever the residual norm would grow.

Linear systems go through SuperLU in a fill-reducing nested-dissection
order (A. George, "Nested dissection of a regular finite element mesh",
SIAM J. Numer. Anal. 10, 1973).  ``dissection_order`` builds it by
recursive coordinate bisection of the dof positions
(``MorleySpace.dof_coords``), cutting along the 0/1 pattern of the
bilaplacian A; the values of A have mixed signs and cancel, so they
say nothing about adjacency.  The order is computed once per mesh: the
decoupled guess factorises A in it, and every Newton Jacobian
[[A + B_v, B_u], [C_u, A]], whose bracket blocks share the element
pattern of A, is factorised in the same order with u and v
interleaved.

Rows and columns are permuted alike, so SuperLU runs in symmetric mode
with no column ordering of its own: it keeps a diagonal pivot whenever
that pivot is at least ``_PIVOT_THRESH`` times the largest entry of its
column, which preserves the order's fill, and pivots off the diagonal
otherwise.  J is structurally symmetric but not symmetric in value, and
a small pivot threshold trades stability for fill, so every solve
checks its residual against the unpermuted matrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import (
    ProblemData,
    StatePair,
    apply_residual,
    assemble_bilaplacian,
    assemble_linearized_bracket,
    assemble_load,
)
from .morley import MorleySpace

__all__ = ["NewtonConfig", "SolveReport", "SolverError", "dissection_order", "linear_solve",
           "newton_solve"]

logger = logging.getLogger(__name__)

_RESID_CHECK = 1e-11
# Subsets of at most this many dofs are not split further.
_ND_LEAF = 16
# SuperLU keeps the diagonal pivot if it is at least this fraction of
# the largest entry in its column.
_PIVOT_THRESH = 0.01


class SolverError(Exception):
    """Raised for singular systems or unusable linear solves."""


@dataclass
class NewtonConfig:
    """Newton iteration controls.

    residual_tol is an absolute bound on the residual norm.  None picks
    the default rule of ``_default_tolerance``, re-evaluated at every
    iterate.  Damping halves the step at most max_halvings times; if the
    residual still grows the full remaining step is taken and the event
    is counted.
    """

    residual_tol: float | None = None
    max_iter: int = 20
    max_halvings: int = 6

    def __post_init__(self) -> None:
        tol = self.residual_tol
        if tol is not None and not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"Newton tolerance must be finite and positive, got {tol}")
        if self.max_iter < 1:
            raise ValueError(f"need at least one Newton iteration, got {self.max_iter}")
        if self.max_halvings < 0:
            raise ValueError(f"damping halvings must be non-negative, got {self.max_halvings}")


@dataclass
class SolveReport:
    """Newton history; tolerance is the one applied to the last residual."""

    iterations: int = 0
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    damping_events: int = 0
    tolerance: float = 0.0


def _bisect(nodes: np.ndarray, coords: np.ndarray, pattern: sp.csr_matrix,
            in_right: np.ndarray):
    """Split a node subset into (left, right, separator).

    The subset is cut at the median of its longer coordinate extent; the
    separator is the set of left-half nodes with a pattern neighbour in
    the right half, and left excludes it.  in_right is an all-False
    scratch mask over every node and is all-False again on return.
    """
    pts = coords[nodes]
    axis = int(np.ptp(pts[:, 1]) > np.ptp(pts[:, 0]))
    ranked = nodes[np.argsort(pts[:, axis], kind="stable")]
    half = len(nodes) // 2
    left, right = ranked[:half], ranked[half:]

    starts = pattern.indptr[left]
    counts = pattern.indptr[left + 1] - starts
    first = np.cumsum(counts) - counts
    neighbours = pattern.indices[np.repeat(starts - first, counts) + np.arange(counts.sum())]
    owner = np.repeat(np.arange(half), counts)

    in_right[right] = True
    on_cut = np.zeros(half, dtype=bool)
    on_cut[owner[in_right[neighbours]]] = True
    in_right[right] = False
    return left[~on_cut], right, left[on_cut]


def dissection_order(coords: np.ndarray, pattern: sp.spmatrix) -> np.ndarray:
    """Nested-dissection order of the nodes of a structurally symmetric pattern.

    coords (n, 2) places node i in the plane; only the nonzero structure
    of the n x n matrix pattern is read.  Each subset is ordered as
    [left, right, separator] (see ``_bisect``), recursively, down to
    leaves of at most ``_ND_LEAF`` nodes kept in the order they arrive.
    Returns a permutation of range(n).
    """
    pattern = pattern.tocsr()
    in_right = np.zeros(len(coords), dtype=bool)
    pieces = []

    def order(nodes):
        if len(nodes) <= _ND_LEAF:
            pieces.append(nodes)
            return
        left, right, separator = _bisect(nodes, coords, pattern, in_right)
        order(left)
        order(right)
        pieces.append(separator)

    order(np.arange(len(coords)))
    return np.concatenate(pieces)


def linear_solve(A: sp.spmatrix, b: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Solve A x = b directly in a symmetric order, with a residual check.

    A is factorised as A[order][:, order] (rows and columns permuted
    alike) and the solution is permuted back.  b may be one vector or an
    (n, k) block of k vectors; one factorisation serves all of them, and
    each column's residual is checked against its own right-hand-side
    norm on the unpermuted A.
    """
    A = A.tocsr()
    try:
        lu = spla.splu(A[order][:, order].tocsc(), permc_spec="NATURAL",
                       diag_pivot_thresh=_PIVOT_THRESH, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    y = lu.solve(b[order])
    if not np.all(np.isfinite(y)):
        raise SolverError("linear solve produced non-finite values")
    x = np.empty_like(y)
    x[order] = y
    X, B = (x, b) if b.ndim == 2 else (x[:, None], b[:, None])
    for k in range(B.shape[1]):
        resid = np.linalg.norm(A @ X[:, k] - B[:, k])
        scale = max(1.0, float(np.linalg.norm(B[:, k])))
        if resid > _RESID_CHECK * scale * 100.0:
            raise SolverError(f"linear solve residual {resid:.2e} too large")
    return x


def biharmonic_guess(space: MorleySpace, A: sp.csr_matrix, load: np.ndarray,
                     order: np.ndarray) -> StatePair:
    """Initial state from the decoupled linear problem (brackets off).

    A is the bilaplacian, load both load blocks (length 2n) and order
    the scalar dof order of A (``dissection_order``).
    """
    n = space.n_dofs
    f, g = load[:n], load[n:]
    if np.any(g):
        u, v = linear_solve(A, np.column_stack([f, g]), order).T
    else:
        u, v = linear_solve(A, f, order), np.zeros(n)
    return StatePair.from_vector(space, np.concatenate([u, v]))


def _default_tolerance(abs_A: sp.csr_matrix, load: np.ndarray, x: np.ndarray) -> float:
    """Default Newton tolerance at the iterate x (u block, then v block).

    max(1e-10 |load|, 1e-12, eps | |A2| |x| + |load| |), where A2 is
    the block bilaplacian diag(A, A) and abs_A = |A| entrywise.  The
    last term is the rounding floor of A2 x - load: Morley load entries
    scale with element area while |A| grows with refinement, so on fine
    meshes the load term alone falls below what the residual can reach.
    """
    n = abs_A.shape[0]
    ax = np.concatenate([abs_A @ np.abs(x[:n]), abs_A @ np.abs(x[n:])])
    floor = np.finfo(float).eps * float(np.linalg.norm(ax + np.abs(load)))
    return max(1e-10 * float(np.linalg.norm(load)), 1e-12, floor)


def newton_solve(
    space: MorleySpace,
    data: ProblemData,
    initial: StatePair | None = None,
    config: NewtonConfig | None = None,
) -> tuple[StatePair, SolveReport]:
    """Solve the discrete system by damped Newton iteration.

    Without an initial state the decoupled linear solve seeds the
    iteration.  One dof order per call serves that solve and every
    Newton step.  The returned report carries the full residual history
    (including the initial residual) and the tolerance applied to the
    last residual.
    """
    config = config or NewtonConfig()
    A = assemble_bilaplacian(space)
    load = assemble_load(space, data)
    order = dissection_order(space.dof_coords, A)
    abs_A = abs(A)

    if initial is None:
        state = biharmonic_guess(space, A, load, order)
    else:
        state = StatePair.from_vector(space, initial.to_vector())

    report = SolveReport()
    x = state.to_vector()
    r = apply_residual(space, state, data, A, load)
    rnorm = float(np.linalg.norm(r))
    report.residuals.append(rnorm)

    A2 = sp.block_diag((A, A), format="csr")
    # u and v of each dof side by side, in the scalar order.
    n = space.n_dofs
    order2 = np.empty(2 * n, dtype=order.dtype)
    order2[0::2] = order
    order2[1::2] = order + n
    tol = config.residual_tol
    while True:
        report.tolerance = _default_tolerance(abs_A, load, x) if tol is None else tol
        report.converged = rnorm <= report.tolerance
        if report.converged or report.iterations >= config.max_iter:
            break
        if data.include_bracket:
            J = A2 + assemble_linearized_bracket(space, state)
        else:
            J = A2
        delta = linear_solve(J, -r, order2)

        # Backtracking: halve the step while the residual grows; if no
        # tried step decreases it, keep the best one seen.
        alpha = 1.0
        tried = []
        accepted = None
        for halving in range(config.max_halvings + 1):
            trial_x = x + alpha * delta
            trial_state = StatePair.from_vector(space, trial_x)
            trial_r = apply_residual(space, trial_state, data, A, load)
            tried.append((float(np.linalg.norm(trial_r)), trial_x, trial_state, trial_r))
            if tried[-1][0] < rnorm:
                accepted = tried[-1]
                break
            if halving < config.max_halvings:
                alpha *= 0.5
                report.damping_events += 1
        if accepted is None:
            accepted = min(tried, key=lambda item: item[0])
        rnorm, x, state, r = accepted
        report.residuals.append(rnorm)
        report.iterations += 1

    if not report.converged:
        logger.warning(
            "Newton did not converge: %d iterations, residual %.3e (tol %.3e)",
            report.iterations, rnorm, report.tolerance,
        )
    return state, report
