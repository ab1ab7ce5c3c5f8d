"""Newton iteration and the sparse linear solve."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vkmorley.forms import (
    ProblemData,
    SparseSystem,
    StatePair,
    apply_residual,
    assemble_bilaplacian,
    assemble_load,
)
from vkmorley.mesh import build_initial_mesh, uniform_refine
from vkmorley.morley import build_space, prolongate
from vkmorley.problems import get_problem
from vkmorley.solver import NewtonConfig, biharmonic_guess, linear_solve, newton_solve


def square_space(levels):
    mesh = build_initial_mesh("square")
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return build_space(mesh)


# -- linear_solve ------------------------------------------------------------


def test_identity_system_returns_rhs():
    rhs = np.arange(1.0, 6.0)
    x = linear_solve(SparseSystem(sp.eye(5, format="csr"), rhs))
    np.testing.assert_allclose(x, rhs, atol=1e-14)


def test_spd_block_agrees_with_cg():
    space = square_space(3)
    A = assemble_bilaplacian(space)
    rng = np.random.default_rng(21)
    b = rng.standard_normal(space.n_dofs)
    x = linear_solve(SparseSystem(A.tocsr(), b))
    xcg, info = spla.cg(A, b, rtol=1e-13, maxiter=5000)
    assert info == 0
    np.testing.assert_allclose(x, xcg, atol=1e-9 * max(1.0, abs(xcg).max()))


def test_random_sparse_system_agrees_with_dense():
    rng = np.random.default_rng(22)
    dense = rng.standard_normal((50, 50)) + 50.0 * np.eye(50)
    dense[np.abs(dense) < 0.8] = 0.0
    dense += 50.0 * np.eye(50)  # keep the diagonal after sparsification
    b = rng.standard_normal(50)
    x = linear_solve(SparseSystem(sp.csr_matrix(dense), b))
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), atol=1e-10)


def test_singular_system_raises():
    from vkmorley.solver import SolverError

    M = sp.csr_matrix(np.zeros((3, 3)))
    with pytest.raises(SolverError):
        linear_solve(SparseSystem(M, np.ones(3)))


# -- newton_solve ------------------------------------------------------------


def test_zero_loads_converge_immediately_to_zero():
    space = square_space(2)
    data = ProblemData(f=lambda x, y: 0.0 * x)
    state, report = newton_solve(space, data, initial=StatePair.zero(space))
    assert report.converged
    assert report.iterations <= 1
    assert np.all(state.to_vector() == 0.0)


def test_biharmonic_mode_is_one_newton_step():
    # from a zero start the linear problem takes exactly one step; the
    # default initial guess already solves it, taking none
    prob = get_problem("biharm-linear")
    space = square_space(3)
    state, report = newton_solve(space, prob.data, initial=StatePair.zero(space))
    assert report.converged
    assert report.iterations == 1
    _, seeded = newton_solve(space, prob.data)
    assert seeded.converged and seeded.iterations == 0

    A = assemble_bilaplacian(space)
    load = assemble_load(space, prob.data)
    n = space.n_dofs
    np.testing.assert_allclose(
        state.u.coeffs, linear_solve(SparseSystem(A.tocsr(), load[:n])), atol=1e-11
    )
    # with the bracket off the Galerkin identity holds to machine terms
    r = apply_residual(space, state, prob.data)
    assert np.linalg.norm(r) <= 1e-11 * max(1.0, np.linalg.norm(load))


def test_converged_residual_below_tolerance():
    prob = get_problem("square-poly")
    space = square_space(3)
    state, report = newton_solve(space, prob.data)
    assert report.converged
    load = np.linalg.norm(assemble_load(space, prob.data))
    r = apply_residual(space, state, prob.data)
    assert np.linalg.norm(r) <= report.tolerance
    assert report.tolerance <= 1e-10 * max(1.0, load)


def test_residual_history_decreases():
    prob = get_problem("square-poly")
    space = square_space(3)
    _, report = newton_solve(space, prob.data)
    hist = report.residuals
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_quadratic_convergence_with_nested_guess():
    prob = get_problem("square-poly")
    coarse = square_space(3)
    cstate, _ = newton_solve(coarse, prob.data)
    fine = build_space(uniform_refine(coarse.mesh))
    guess = StatePair(prolongate(cstate.u, fine), prolongate(cstate.v, fine))
    _, report = newton_solve(fine, prob.data, initial=guess)
    assert report.converged
    assert report.iterations <= 5
    hist = [r for r in report.residuals if r > 1e-14]
    ratios = [hist[k + 1] / hist[k] ** 2 for k in range(len(hist) - 1)]
    # quadratic contraction: the ratio stays bounded while residuals
    # drop by orders of magnitude
    assert all(r < 1e4 for r in ratios[-3:])


def test_biharmonic_guess_solves_decoupled_system():
    prob = get_problem("square-poly")
    space = square_space(2)
    guess = biharmonic_guess(space, prob.data)
    A = assemble_bilaplacian(space)
    load = assemble_load(space, prob.data)
    n = space.n_dofs
    np.testing.assert_allclose(A @ guess.u.coeffs, load[:n], atol=1e-10)
    np.testing.assert_allclose(A @ guess.v.coeffs, load[n:], atol=1e-10)


def test_biharmonic_guess_factorises_once(monkeypatch):
    prob = get_problem("square-trig")
    space = square_space(3)
    A = assemble_bilaplacian(space)
    load = assemble_load(space, prob.data)
    n = space.n_dofs
    assert np.any(load[n:])
    separate = [linear_solve(SparseSystem(A, load[:n])), linear_solve(SparseSystem(A, load[n:]))]
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M: calls.append(M) or splu(M))
    guess = biharmonic_guess(space, prob.data)
    assert len(calls) == 1
    np.testing.assert_array_equal(guess.u.coeffs, separate[0])
    np.testing.assert_array_equal(guess.v.coeffs, separate[1])


def test_block_rhs_solves_each_column():
    space = square_space(3)
    A = assemble_bilaplacian(space)
    rng = np.random.default_rng(23)
    B = rng.standard_normal((space.n_dofs, 3))
    X = linear_solve(SparseSystem(A, B))
    assert X.shape == B.shape
    for k in range(3):
        np.testing.assert_array_equal(X[:, k], linear_solve(SparseSystem(A, B[:, k])))


def test_max_iter_reports_nonconvergence():
    prob = get_problem("square-poly")
    space = square_space(2)
    cfg = NewtonConfig(max_iter=1, residual_tol=1e-14)
    _, report = newton_solve(space, prob.data, config=cfg)
    assert not report.converged
    assert report.iterations == 1
