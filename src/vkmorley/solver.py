"""Newton solver for the discrete von Karman system.

The Jacobian at a state is the block bilaplacian plus the state-frozen
linearized bracket; it is exact for the quadratic nonlinearity, so the
iteration converges quadratically near a regular solution.  Steps are
damped by halving whenever the residual norm would grow.  Linear
systems go through a sparse direct LU factorization; the Jacobian is
treated as a general nonsymmetric matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import (
    ProblemData,
    SparseSystem,
    StatePair,
    apply_residual,
    assemble_bilaplacian,
    assemble_linearized_bracket,
    assemble_load,
)
from .morley import MorleySpace

__all__ = ["NewtonConfig", "SolveReport", "SolverError", "linear_solve", "newton_solve"]

logger = logging.getLogger(__name__)

_RESID_CHECK = 1e-11


class SolverError(Exception):
    """Raised for singular systems or unusable linear solves."""


@dataclass
class NewtonConfig:
    """Newton iteration controls.

    residual_tol of None resolves to 1e-10 times the load vector norm,
    floored at 1e-12.  Damping halves the step at most max_halvings
    times; if the residual still grows the full remaining step is taken
    and the event is counted.
    """

    residual_tol: float | None = None
    max_iter: int = 20
    max_halvings: int = 6


@dataclass
class SolveReport:
    iterations: int = 0
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    damping_events: int = 0
    tolerance: float = 0.0


def linear_solve(system: SparseSystem) -> np.ndarray:
    """Direct sparse solve with a residual sanity check.

    The right-hand side may be one vector or an (n, k) block of k
    vectors; one factorisation serves all of them, and each column's
    residual is checked against its own right-hand-side norm.
    """
    A = system.matrix.tocsc()
    b = system.rhs
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("linear solve produced non-finite values")
    X, B = (x, b) if b.ndim == 2 else (x[:, None], b[:, None])
    for k in range(B.shape[1]):
        resid = np.linalg.norm(A @ X[:, k] - B[:, k])
        scale = max(1.0, float(np.linalg.norm(B[:, k])))
        if resid > _RESID_CHECK * scale * 100.0:
            raise SolverError(f"linear solve residual {resid:.2e} too large")
    return x


def biharmonic_guess(space: MorleySpace, data: ProblemData,
                     A: sp.csr_matrix | None = None,
                     load: np.ndarray | None = None) -> StatePair:
    """Initial state from the decoupled linear problem (brackets off)."""
    if A is None:
        A = assemble_bilaplacian(space)
    if load is None:
        load = assemble_load(space, data)
    n = space.n_dofs
    f, g = load[:n], load[n:]
    if np.any(g):
        u, v = linear_solve(SparseSystem(A, np.column_stack([f, g]))).T
    else:
        u, v = linear_solve(SparseSystem(A, f)), np.zeros(n)
    return StatePair.from_vector(space, np.concatenate([u, v]))


def newton_solve(
    space: MorleySpace,
    data: ProblemData,
    initial: StatePair | None = None,
    config: NewtonConfig | None = None,
) -> tuple[StatePair, SolveReport]:
    """Solve the discrete system by damped Newton iteration.

    Without an initial state the decoupled linear solve seeds the
    iteration.  The returned report carries the full residual history
    (including the initial residual) and the tolerance actually used.
    """
    config = config or NewtonConfig()
    A = assemble_bilaplacian(space)
    load = assemble_load(space, data)
    tol = config.residual_tol
    if tol is None:
        tol = max(1e-10 * float(np.linalg.norm(load)), 1e-12)

    if initial is None:
        state = biharmonic_guess(space, data, A, load)
    else:
        state = StatePair.from_vector(space, initial.to_vector())

    report = SolveReport(tolerance=tol)
    x = state.to_vector()
    r = apply_residual(space, state, data, A, load)
    rnorm = float(np.linalg.norm(r))
    report.residuals.append(rnorm)

    A2 = sp.block_diag((A, A), format="csr")
    for _ in range(config.max_iter):
        if rnorm <= tol:
            report.converged = True
            break
        if data.include_bracket:
            J = A2 + assemble_linearized_bracket(space, state)
        else:
            J = A2
        delta = linear_solve(SparseSystem(J, -r))

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
    else:
        report.converged = rnorm <= tol

    if not report.converged:
        logger.warning(
            "Newton did not converge: %d iterations, residual %.3e (tol %.3e)",
            report.iterations, rnorm, tol,
        )
    return state, report
