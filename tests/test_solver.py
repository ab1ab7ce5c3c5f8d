"""Newton iteration and the sparse linear solve."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmorley import estimator, solver
from vkmorley.adaptivity import AmfemConfig, amfem_run, uniform_run
from vkmorley.estimator import estimate
from vkmorley.forms import (
    apply_residual,
    assemble_bilaplacian,
    assemble_linearized_bracket,
    assemble_load,
)
from vkmorley.mesh import (build_initial_mesh, mesh_from_arrays, refine, uniform_refine,
                           write_mesh)
from vkmorley.morley import MorleyField, build_space, prolongate
from vkmorley.problems import get_problem
from vkmorley.solver import (
    SolverError,
    biharmonic_guess,
    dissection_order,
    factorise,
    linear_solve,
    newton_solve,
)

import oracles as oc


def square_space(levels):
    mesh = build_initial_mesh("square")
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return build_space(mesh)


def lshape_space(levels):
    mesh = build_initial_mesh("lshape")
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return build_space(mesh)


# -- linear_solve ------------------------------------------------------------


def test_identity_system_returns_rhs():
    rhs = np.arange(1.0, 6.0)
    eye = sp.eye(5, format="csr")
    x = linear_solve(eye, rhs, factorise(eye, np.arange(5)[::-1]))
    np.testing.assert_allclose(x, rhs, atol=1e-14)


def test_spd_block_agrees_with_cg():
    space = square_space(3)
    A = assemble_bilaplacian(space)
    rng = np.random.default_rng(21)
    b = rng.standard_normal(space.n_dofs)
    x = linear_solve(A, b, factorise(A, dissection_order(space)))
    xcg, info = spla.cg(A, b, rtol=1e-13, maxiter=5000)
    assert info == 0
    np.testing.assert_allclose(x, xcg, atol=1e-9 * max(1.0, abs(xcg).max()))


def test_random_sparse_system_agrees_with_dense():
    rng = np.random.default_rng(22)
    dense = rng.standard_normal((50, 50)) + 50.0 * np.eye(50)
    dense[np.abs(dense) < 0.8] = 0.0
    dense += 50.0 * np.eye(50)  # keep the diagonal after sparsification
    b = rng.standard_normal(50)
    M = sp.csr_matrix(dense)
    x = linear_solve(M, b, factorise(M, rng.permutation(50)))
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), atol=1e-10)


@pytest.mark.filterwarnings("error")
def test_singular_system_raises():
    M = sp.csr_matrix(np.zeros((3, 3)))
    with pytest.raises(SolverError, match="at dof 0 of 3 dofs"):
        linear_solve(M, np.ones(3), factorise(M, np.arange(3)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
def test_bad_diagonal_raises_naming_its_dof(entry):
    # The factor scales by diag(A)^-1/2, so an entry that is not finite
    # and positive is refused before any scaling, and named.
    M = sp.diags([-np.ones(5), 4.0 * np.ones(6), -np.ones(5)], [-1, 0, 1], format="lil")
    M[3, 3] = entry
    with pytest.raises(SolverError, match=rf"diagonal entry {entry!r} at dof 3 of 6 dofs"):
        factorise(M.tocsr(), np.arange(6)[::-1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), density=st.floats(0.05, 0.5), seed=st.integers(0, 2**32 - 1))
def test_badly_scaled_spd_system_agrees_with_dense(n, density, seed):
    # D B D with B symmetric, diagonally dominant and of unit diagonal, and
    # D spreading diag(A) over 1e-6 to 1e6: the residual check accepts the
    # solve, which matches a dense solve in the norm D scales to B's.
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=density, random_state=rng, data_rvs=rng.standard_normal)
    R = sp.triu(R, 1) + sp.triu(R, 1).T
    B = R + sp.diags(abs(R).sum(axis=1).A1 + 1.0)
    d = rng.permutation(np.r_[-3.0, 3.0, rng.uniform(-3.0, 3.0, n - 2)])
    scale = 10.0**d / np.sqrt(B.diagonal())
    A = sp.csr_matrix(sp.diags(scale) @ B @ sp.diags(scale))
    np.testing.assert_allclose([A.diagonal().min(), A.diagonal().max()], [1e-6, 1e6], rtol=1e-12)
    b = rng.standard_normal(n)
    x = linear_solve(A, b, factorise(A, rng.permutation(n)))
    expected = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm((x - expected) / scale) <= 1e-10 * np.linalg.norm(expected / scale)


def test_solve_off_its_rounding_floor_raises():
    # A factor that returns x (1 + 1e-8) leaves a residual about 1e-8 |b|,
    # some 10^7 times the rounding floor of the system.
    space = square_space(3)
    A = assemble_bilaplacian(space)
    solve = factorise(A, dissection_order(space))
    b = np.ones(space.n_dofs)
    linear_solve(A, b, solve)
    with pytest.raises(SolverError, match="times its rounding floor, above 100"):
        linear_solve(A, b, lambda rhs: solve(rhs) * (1.0 + 1e-8))


# -- dissection_order -------------------------------------------------------

DESCENTS = dict(
    domain=st.sampled_from(["square", "lshape"]),
    pre=st.integers(0, 3),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)


def descent_space(domain, pre, steps, seed):
    _, fine = oc.random_descent(np.random.default_rng(seed), domain, pre, steps)
    return build_space(fine)


@settings(max_examples=30, deadline=None)
@given(**DESCENTS)
def test_order_is_a_permutation(domain, pre, steps, seed):
    space = descent_space(domain, pre, steps, seed)
    np.testing.assert_array_equal(np.sort(dissection_order(space)), np.arange(space.n_dofs))


@settings(max_examples=60, deadline=None)
@given(**DESCENTS)
def test_order_matches_recursive_oracle(domain, pre, steps, seed):
    space = descent_space(domain, pre, steps, seed)
    np.testing.assert_array_equal(dissection_order(space), oc.dissection_order_recursive(space))


def triangle_graph(space):
    """0/1 matrix joining every two dofs that share a triangle of dof_map."""
    rows = np.repeat(space.dof_map, 6, axis=1).ravel()
    cols = np.tile(space.dof_map, 6).ravel()
    free = (rows >= 0) & (cols >= 0)
    n = space.n_dofs
    return sp.csr_matrix((np.ones(free.sum()), (rows[free], cols[free])), shape=(n, n))


@settings(max_examples=30, deadline=None)
@given(**DESCENTS)
def test_every_separator_disconnects_its_halves(domain, pre, steps, seed):
    # Replay the recursion one split at a time.  The graph joins the dofs
    # that share a triangle: A couples no others, and its own pattern
    # drops entries that cancel to zero, so it is not the true structure.
    space = descent_space(domain, pre, steps, seed)
    P = triangle_graph(space)
    assert np.all(P[assemble_bilaplacian(space).nonzero()])
    numbered = np.zeros(space.n_dofs, dtype=bool)

    def replay(tris):
        dofs = oc.open_dofs(space, tris, numbered)
        if len(dofs) <= solver._ND_LEAF:
            numbered[dofs] = True
            return [dofs]
        left, right, separator = oc.triangle_bisect(space, tris, numbered)
        on_left, on_right = (oc.open_dofs(space, half, numbered) for half in (left, right))
        np.testing.assert_array_equal(np.union1d(on_left, on_right), dofs)
        np.testing.assert_array_equal(separator, np.intersect1d(on_left, on_right))
        numbered[separator] = True
        left_only, right_only = (np.setdiff1d(side, separator) for side in (on_left, on_right))
        assert P[left_only][:, right_only].nnz == 0
        return replay(left) + replay(right) + [separator]

    order = np.concatenate(replay(np.arange(space.mesh.n_triangles)))
    assert numbered.all()
    np.testing.assert_array_equal(order, dissection_order(space))


def replay_splits(space):
    """Every split of the recursion as (triangles, left, right, numbered
    before the split), replayed with the oracle's cut."""
    numbered = np.zeros(space.n_dofs, dtype=bool)
    splits = []

    def replay(tris):
        dofs = oc.open_dofs(space, tris, numbered)
        if len(dofs) <= oc._ND_LEAF:
            numbered[dofs] = True
            return
        left, right, separator = oc.triangle_bisect(space, tris, numbered)
        splits.append((tris, left, right, numbered.copy()))
        numbered[separator] = True
        replay(left)
        replay(right)

    replay(np.arange(space.mesh.n_triangles))
    return splits


@settings(max_examples=30, deadline=None)
@given(**DESCENTS)
def test_no_cut_has_a_higher_ratio_than_the_median_cut(domain, pre, steps, seed):
    # The median cut along the longer extent, with ties ranked by triangle
    # id as the search ranks them, is one of the cuts searched.
    space = descent_space(domain, pre, steps, seed)
    for tris, left, right, numbered in replay_splits(space):
        median_left, median_right, _ = oc.median_bisect(space, np.sort(tris), numbered)
        median = oc.cut_ratio(space, median_left, median_right, numbered)
        assert not oc.lower_ratio(median, oc.cut_ratio(space, left, right, numbered))


def test_space_without_free_dofs_has_an_empty_order():
    space = build_space(mesh_from_arrays([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]]))
    assert space.n_dofs == 0
    order = dissection_order(space)
    assert order.shape == (0,) and order.dtype.kind == "i"


@pytest.mark.parametrize("levels", [2, 4])
def test_two_and_three_triangle_subsets_cut_at_their_one_position(levels, monkeypatch):
    # A subset of m < 5 triangles has one cut in its band, k = m // 2.  With
    # leaves of 8 dofs no such subset is split (it holds at most 5
    # unnumbered dofs), so leaves of 0 dofs let the recursion reach them.
    monkeypatch.setattr(solver, "_ND_LEAF", 0)
    monkeypatch.setattr(oc, "_ND_LEAF", 0)
    mesh = build_initial_mesh("lshape")
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    space = build_space(mesh)
    small = {(len(tris), len(left)) for tris, left, _, _ in replay_splits(space) if len(tris) < 5}
    assert {(2, 1), (3, 1)} <= small <= {(2, 1), (3, 1), (4, 2)}
    np.testing.assert_array_equal(dissection_order(space), oc.dissection_order_recursive(space))


def captured_factor(M, order):
    """The one SuperLU factor ``factorise`` makes of M in an order."""
    factors = []
    splu = spla.splu
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spla, "splu",
                      lambda A, **kwargs: factors.append(splu(A, **kwargs)) or factors[-1])
        factorise(M, order)
    assert len(factors) == 1
    return factors[0]


def factor_fill(M, order):
    """L + U nonzeros of the one factor ``factorise`` makes of M in an order."""
    lu = captured_factor(M, order)
    return lu.L.nnz + lu.U.nnz


@pytest.fixture(scope="module")
def trig_jacobian():
    """Newton system at the decoupled guess on square-trig, mesh size 0.03.

    J is assembled by the oracle and ordered with u and v of each dof
    side by side.
    """
    prob = get_problem("square-trig")
    mesh = build_initial_mesh("square")
    while mesh.h.max() > 0.03:
        mesh = uniform_refine(mesh)
    space = build_space(mesh)
    A = assemble_bilaplacian(space)
    load = assemble_load(space, prob.data)
    guess = biharmonic_guess(space, A, load, factorise(A, dissection_order(space)))
    J = (sp.block_diag((A, A)) + oc.linearized_bracket_matrix(space, guess)).tocsc()
    rhs = -apply_residual(guess, prob.data, A, load)
    n = space.n_dofs
    order2 = np.empty(2 * n, dtype=np.int64)
    order2[0::2] = dissection_order(space)
    order2[1::2] = order2[0::2] + n
    return J, rhs, order2


def test_ordered_jacobian_solve_matches_default_splu(trig_jacobian):
    J, rhs, order2 = trig_jacobian
    reference = spla.splu(J).solve(rhs)
    x = linear_solve(J, rhs, factorise(J, order2))
    assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


def test_ordered_jacobian_fill_below_colamd(trig_jacobian):
    J, _, order2 = trig_jacobian
    colamd = spla.splu(J)
    assert factor_fill(J, order2) < colamd.L.nnz + colamd.U.nnz


@cache
def lshape_adaptive_space(cap=3000):
    """The last mesh of the adaptive lshape-f1 run (theta 0.3, delta 0.9)
    capped at cap dofs: 3,119 dofs at 3,000, 10,679 at 10^4."""
    cfg = AmfemConfig(theta=0.3, delta=0.9, max_ndofs=cap, max_levels=500)
    return amfem_run(get_problem("lshape-f1"), cfg).final.space


def test_graded_factor_pivots_only_on_the_diagonal():
    # On this mesh A's vertex-dof diagonal spans 3.6e3-3.4e7 and its
    # edge-dof diagonal 4-8; unscaled, SuperLU pivoted off the diagonal
    # 126 times.
    space = lshape_adaptive_space(10_000)
    assert space.n_dofs == 10_679
    lu = captured_factor(assemble_bilaplacian(space), dissection_order(space))
    np.testing.assert_array_equal(lu.perm_r, np.arange(space.n_dofs))


# Each bound lies between the fill per dof of the triangle-bisection order
# and that of a coordinate bisection of the dof positions, which cuts
# through both ends of the interface edges: 28.6 and 73.1 on the square
# bisected 9 times, 55.0 and 79.3 bisected 10 times, 66.0 and 74.8 on the
# adaptive mesh.  Those were leaves of 16 dofs; leaves of 8 reach 25.9,
# 49.7 and 62.2, and each bound now lies between the two leaf sizes.  On
# the adaptive mesh capped at 10^4 dofs the scaled factor reaches 72.4,
# and the unscaled one 78.3 with its 126 off-diagonal pivots.
@pytest.mark.parametrize("build,bound", [(partial(square_space, 9), 27.0),
                                         (partial(square_space, 10), 52.0),
                                         (lshape_adaptive_space, 64.0),
                                         (partial(lshape_adaptive_space, 10_000), 75.0)],
                         ids=["square-9", "square-10", "lshape-adaptive", "lshape-adaptive-10k"])
def test_factor_fill_per_dof(build, bound):
    space = build()
    fill = factor_fill(assemble_bilaplacian(space), dissection_order(space))
    assert fill / space.n_dofs <= bound


# Ratio cuts on either axis need about half the fill of the median cut
# along the longer extent on the graded meshes: 32.7 against 62.1 per dof
# capped at 3,000 dofs, 42.1 against 72.4 capped at 10^4.
@pytest.mark.parametrize("cap,bound", [(3000, 40.0), (10_000, 50.0)], ids=["3k", "10k"])
def test_graded_factor_fill_per_dof_with_ratio_cuts(cap, bound):
    space = lshape_adaptive_space(cap)
    fill = factor_fill(assemble_bilaplacian(space), dissection_order(space))
    assert fill / space.n_dofs <= bound


# At even bisection depths every grid square is split by one diagonal, and
# the cheapest separators run along the diagonals: cuts on x + y and x - y
# as well as x and y reach 33.8 L+U per dof on the square bisected 10 times
# and 36.9 on the L-shape bisected 10 times, against 49.5 and 50.5 with the
# two axes alone.
@pytest.mark.parametrize("build,bound", [(partial(square_space, 10), 36.0),
                                         (partial(lshape_space, 10), 40.0)],
                         ids=["square-10", "lshape-10"])
def test_even_depth_factor_fill_per_dof_with_diagonal_cuts(build, bound):
    space = build()
    fill = factor_fill(assemble_bilaplacian(space), dissection_order(space))
    assert fill / space.n_dofs <= bound


# -- newton_solve ------------------------------------------------------------


def test_zero_loads_converge_immediately_to_zero():
    space = square_space(2)
    data = oc.load_data(lambda x, y: 0.0 * x)
    state, report = newton_solve(space, data, initial=oc.zero_state(space))
    assert report.converged
    assert report.iterations <= 1
    assert np.all(state.coeffs.ravel() == 0.0)


def test_biharmonic_mode_is_one_newton_step():
    # from a zero start the linear problem takes exactly one step; the
    # default initial guess already solves it, taking none
    prob = get_problem("biharm-linear")
    space = square_space(3)
    state, report = newton_solve(space, prob.data, initial=oc.zero_state(space))
    assert report.converged
    assert report.iterations == 1
    _, seeded = newton_solve(space, prob.data)
    assert seeded.converged and seeded.iterations == 0

    A = assemble_bilaplacian(space)
    load = assemble_load(space, prob.data)
    n = space.n_dofs
    np.testing.assert_allclose(
        state.u.coeffs,
        linear_solve(A, load[:n], factorise(A, dissection_order(space))),
        atol=1e-11,
    )
    # with the bracket off the Galerkin identity holds to machine terms
    r = apply_residual(state, prob.data, A, load)
    assert np.linalg.norm(r) <= 1e-11 * max(1.0, np.linalg.norm(load))


def test_newton_solve_rejects_a_seed_of_another_space():
    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    space = build_space(mesh)
    n = space.n_dofs
    data = get_problem("square-poly").data
    finer = square_space(3)
    seeds = [oc.zero_state(oc.reversed_edge_space(mesh)),  # same dof count
             oc.zero_state(finer),
             MorleyField(space, np.zeros(2 * n))]
    for seed in seeds:
        with pytest.raises(ValueError, match=rf"{seed.space.n_dofs} dofs.*\(2, {n}\).* {n} dofs"):
            newton_solve(space, data, initial=seed)


@pytest.mark.parametrize("seeded", [False, True], ids=["zero-seed", "solved-seed"])
def test_newton_state_is_a_new_c_block(seeded):
    # The solved seed takes no step, the zero seed one.
    prob = get_problem("biharm-linear")
    space = square_space(3)
    initial = newton_solve(space, prob.data)[0] if seeded else oc.zero_state(space)
    before = initial.coeffs.copy()
    state, report = newton_solve(space, prob.data, initial=initial)
    assert report.iterations == (0 if seeded else 1)
    assert state.space is space and state.coeffs.shape == (2, space.n_dofs)
    assert state.coeffs.flags.c_contiguous
    assert not np.shares_memory(state.coeffs, initial.coeffs)
    np.testing.assert_array_equal(initial.coeffs, before)


def test_converged_residual_below_tolerance():
    prob = get_problem("square-poly")
    space = square_space(3)
    state, report = newton_solve(space, prob.data)
    assert report.converged
    load = np.linalg.norm(assemble_load(space, prob.data))
    r = apply_residual(
        state, prob.data, assemble_bilaplacian(space), assemble_load(space, prob.data)
    )
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
    guess = prolongate(cstate, fine)
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
    A = assemble_bilaplacian(space)
    load = assemble_load(space, prob.data)
    guess = biharmonic_guess(space, A, load, factorise(A, dissection_order(space)))
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
    order = dissection_order(space)
    separate = [linear_solve(A, load[:n], factorise(A, order)),
                linear_solve(A, load[n:], factorise(A, order))]
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, **kwargs: calls.append(M) or splu(M, **kwargs))
    guess = biharmonic_guess(space, A, load, factorise(A, order))
    assert len(calls) == 1
    np.testing.assert_array_equal(guess.u.coeffs, separate[0])
    np.testing.assert_array_equal(guess.v.coeffs, separate[1])


def test_block_rhs_solves_each_column():
    space = square_space(3)
    A = assemble_bilaplacian(space)
    rng = np.random.default_rng(23)
    B = rng.standard_normal((space.n_dofs, 3))
    solve = factorise(A, dissection_order(space))
    X = linear_solve(A, B, solve)
    assert X.shape == B.shape
    for k in range(3):
        np.testing.assert_array_equal(X[:, k], linear_solve(A, B[:, k], solve))


@pytest.mark.parametrize("error", [RuntimeError, MemoryError, SystemError])
def test_failed_factorisation_raises_solver_error(monkeypatch, error):
    # A singular factor, or SuperLU or the permutation running out of
    # memory, is a SolverError naming the dofs.
    def splu(A, **kwargs):
        raise error("injected")

    space = square_space(2)
    A = assemble_bilaplacian(space)
    monkeypatch.setattr(spla, "splu", splu)
    with pytest.raises(SolverError, match=rf"of {space.n_dofs} dofs failed: {error.__name__}"):
        factorise(A, dissection_order(space))


def test_max_iter_reports_nonconvergence(monkeypatch):
    prob = get_problem("square-poly")
    space = square_space(2)
    monkeypatch.setattr(solver, "_MAX_ITER", 1)
    _, report = newton_solve(space, prob.data, residual_tol=1e-14)
    assert not report.converged
    assert report.iterations == 1


def test_default_tolerance_rule_at_the_iterate():
    # max(1e-10 |load|, 1e-12, eps | |A2| |x| + |load| |) with
    # A2 = diag(A, A), evaluated at the final iterate.
    prob = get_problem("square-poly")
    space = square_space(3)
    state, report = newton_solve(space, prob.data)
    A = assemble_bilaplacian(space)
    load = assemble_load(space, prob.data)
    A2 = abs(sp.block_diag((A, A), format="csr"))

    def rule(x):
        floor = np.finfo(float).eps * np.linalg.norm(A2 @ np.abs(x) + np.abs(load))
        return max(1e-10 * np.linalg.norm(load), 1e-12, floor)

    x = state.coeffs.ravel()
    assert report.tolerance == pytest.approx(rule(x), rel=1e-12)
    # On this small space the load term sets the tolerance ...
    assert report.tolerance == pytest.approx(1e-10 * np.linalg.norm(load), rel=1e-12)
    # ... and where |A||x| dwarfs the load the rounding floor takes over.
    big = 1e7 * x
    floor = solver._default_tolerance(load, solver._rounding_floor(A, load, big))
    assert floor > 10 * 1e-10 * np.linalg.norm(load)
    assert floor == pytest.approx(rule(big), rel=1e-12)
    # An explicit tolerance is used as given.
    _, report = newton_solve(space, prob.data, residual_tol=1e-9)
    assert report.converged and report.tolerance == 1e-9


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_abs_product_is_that_of_abs_a(fmt):
    # The rounding floor reads |A| from A's own arrays in row blocks, as CSR:
    # bit for bit for CSR and CSC, whose rows sum in the same order.
    space = square_space(4)
    A = assemble_bilaplacian(space).asformat(fmt)
    X = np.random.default_rng(5).standard_normal((space.n_dofs, 2))
    check = (np.testing.assert_array_equal if fmt != "coo"
             else partial(np.testing.assert_allclose, rtol=1e-14))
    for Y in (X[:, 0], X, -X.T.copy().T):
        check(solver._abs_product(A, Y), abs(A) @ np.abs(Y))


# Traced peaks of this solve: 4.33 MB when A kept the spare buffers of its
# COO sum and a second array as |A|, 3.96 MB without them, 4.02 MB now (in
# the level's set-up, before the factor; a Newton step's kernels stay below
# it).  SuperLU's own allocations (the factor) are not traced, only Python's
# and numpy's.
def test_newton_solve_traced_peak():
    space = square_space(10)
    data = get_problem("square-trig").data
    tracemalloc.start()
    try:
        newton_solve(space, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.10 * 2**20


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, np.inf, np.nan]), min_size=7, max_size=7),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.integers(0, 6))
def test_backtrack_matches_the_keep_all_loop(norms, rnorm, max_halvings):
    # Only the best trial is kept; ties and NaN go as ``min`` took them.
    def recorder():
        alphas = []

        def attempt(alpha):
            alphas.append(alpha)
            return norms[len(alphas) - 1], alpha
        return alphas, attempt

    alphas, attempt = recorder()
    expected_alphas, oracle_attempt = recorder()
    assert solver._backtrack(attempt, rnorm, max_halvings) == \
        oc.backtrack_keep_all(oracle_attempt, rnorm, max_halvings)
    assert alphas == expected_alphas


@pytest.mark.parametrize("scale", [3.0, -1.0], ids=["overshoot", "uphill"])
def test_forced_damping_matches_the_keep_all_loop(monkeypatch, caplog, scale):
    # A GMRES step scaled by 3 overshoots, so a halving is accepted; one
    # scaled by -1 goes uphill, so every trial grows and the best is kept.
    krylov = solver._krylov_solve

    def scaled(*args):
        d, steps = krylov(*args)
        return scale * d, steps

    monkeypatch.setattr(solver, "_krylov_solve", scaled)
    caplog.set_level("DEBUG", logger="vkmorley.solver")
    space = square_space(4)
    data = get_problem("square-trig").data
    monkeypatch.setattr(solver, "_MAX_ITER", 4)

    def run():
        caplog.clear()
        state, report = newton_solve(space, data)
        steps = [r.getMessage() for r in caplog.records if "Newton step" in r.getMessage()]
        return state, report, steps

    state, report, lines = run()
    monkeypatch.setattr(solver, "_backtrack", oc.backtrack_keep_all)
    old_state, old_report, old_lines = run()
    assert report.damping_events > 0
    assert report == old_report and lines == old_lines
    np.testing.assert_array_equal(state.coeffs, old_state.coeffs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"residual_tol": float("nan")},
        {"residual_tol": float("inf")},
        {"residual_tol": 0.0},
        {"residual_tol": -1.0},
    ],
)
def test_newton_config_rejects_bad_values(kwargs):
    # Both places a Newton tolerance enters share one check.
    message = "Newton tolerance must be finite and positive"
    with pytest.raises(ValueError, match=message):
        newton_solve(square_space(1), get_problem("square-poly").data, **kwargs)
    with pytest.raises(ValueError, match=message):
        AmfemConfig(newton_tol=kwargs["residual_tol"])


def graded_space():
    """657 dofs: the square refined uniformly five times, then the triangles
    at its centre vertex bisected until the smallest h is below 1e-6."""
    mesh = build_initial_mesh("square")
    for _ in range(5):
        mesh = uniform_refine(mesh)
    centre = int(np.argmin(np.linalg.norm(mesh.coords - 0.5, axis=1)))
    while mesh.h.min() >= 1e-6:
        mesh = refine(mesh, np.nonzero((mesh.tri_vertices == centre).any(axis=1))[0])
    return build_space(mesh)


@pytest.mark.parametrize("name", ["biharm-linear", "square-poly"])
def test_newton_solves_on_a_deeply_graded_mesh(name):
    # The decoupled guess leaves a residual near 1e-5, within 1.5 times its
    # rounding floor, which an absolute bound of 1e-9 max(1, |b|) rejected.
    space = graded_space()
    assert space.n_dofs == 657
    _, report = newton_solve(space, get_problem(name).data)
    assert report.converged
    assert report.residuals[-1] <= report.tolerance


# -- Newton-Krylov -----------------------------------------------------------


@pytest.mark.parametrize("seeded", [True, False])
def test_newton_factorises_only_the_bilaplacian_once(seeded, monkeypatch):
    prob = get_problem("square-trig")
    space = square_space(4)
    initial = None if seeded else oc.zero_state(space)
    shapes = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, **kwargs: shapes.append(M.shape) or splu(M, **kwargs))
    _, report = newton_solve(space, prob.data, initial=initial)
    assert report.converged and report.iterations >= 2
    n = space.n_dofs
    assert shapes == [(n, n)]


def test_gmres_iterations_do_not_grow_with_the_mesh():
    # A's factors precondition J = diag(A, A) + B, a compact perturbation
    # at a regular solution, so the count stays flat under refinement.
    prob = get_problem("square-trig")
    counts = []
    for levels in (8, 9, 10):
        _, report = newton_solve(square_space(levels), prob.data)
        assert report.converged
        assert len(report.krylov_iterations) == report.iterations
        counts += report.krylov_iterations
    assert max(counts) <= 10


def test_gmres_failure_raises_with_iteration_count(monkeypatch):
    def stalled(matvec, b, Mb, psolve, atol):
        return np.zeros_like(b), 3, 3

    monkeypatch.setattr(solver, "_gmres", stalled)
    with pytest.raises(SolverError, match="3 iterations"):
        newton_solve(square_space(3), get_problem("square-trig").data)


def test_newton_logs_each_step_at_debug(caplog):
    caplog.set_level("DEBUG", logger="vkmorley.solver")
    _, report = newton_solve(square_space(4), get_problem("square-trig").data)
    steps = [r.getMessage() for r in caplog.records if "Newton step" in r.getMessage()]
    assert len(steps) == report.iterations
    for k, message in enumerate(steps):
        assert f"{report.krylov_iterations[k]} GMRES iterations" in message
        assert "tol" in message and "halvings" in message


def test_newton_stops_at_the_rounding_floor(caplog, monkeypatch):
    # Below its rounding floor the residual cannot fall to an explicit
    # tolerance of 1e-13: GMRES returns a zero step, and Newton must end
    # there instead of halving that step until _MAX_ITER.
    space = square_space(6)
    assert space.n_dofs == 225
    caplog.set_level("WARNING", logger="vkmorley.solver")
    monkeypatch.setattr(solver, "_MAX_ITER", 8)
    _, report = newton_solve(space, get_problem("square-trig").data, residual_tol=1e-13)
    assert not report.converged
    assert report.iterations <= 4 and report.damping_events == 0
    assert report.residuals[-1] > 1e-13
    tail = ", ".join(f"{r:.3e}" for r in report.residuals[-3:])
    assert f"last residuals {tail}" in caplog.text


# -- discretisation stop -----------------------------------------------------


def _eta(data):
    return lambda state: estimate(state, data).eta


def test_discretisation_stop_meets_lambda_eta_with_fewer_gmres_iterations():
    prob = get_problem("square-trig")
    space = square_space(6)
    state, forced = newton_solve(space, prob.data, estimator=_eta(prob.data))
    _, plain = newton_solve(space, prob.data)
    assert forced.converged and forced.rule == "discretisation"
    assert forced.residuals[-1] <= forced.tolerance
    A = assemble_bilaplacian(space)
    r = apply_residual(state, prob.data, A, assemble_load(space, prob.data))
    R = r.reshape(2, -1).T
    dual = np.sqrt(np.sum(R * factorise(A, dissection_order(space))(R)))
    assert dual <= solver._LAMBDA * estimate(state, prob.data).eta
    assert forced.iterations < plain.iterations
    assert sum(forced.krylov_iterations) < sum(plain.krylov_iterations)


def test_explicit_tolerance_ignores_the_estimator():
    prob = get_problem("square-trig")
    space = square_space(5)
    calls = []
    _, seen = newton_solve(space, prob.data, residual_tol=1e-9,
                           estimator=lambda state: calls.append(state) or 1.0)
    _, plain = newton_solve(space, prob.data, residual_tol=1e-9)
    assert calls == []
    assert seen == plain and seen.rule == "algebraic"


def test_forced_gmres_step_short_of_its_target_raises(monkeypatch):
    # GMRES reports success but returns half its step, so the true
    # residual is about half the right-hand side: far above the target.
    gmres = solver._gmres

    def short(*args):
        d, steps, info = gmres(*args)
        return 0.5 * d, steps, info

    monkeypatch.setattr(solver, "_gmres", short)
    prob = get_problem("square-trig")
    space = square_space(4)
    with pytest.raises(SolverError, match="above its forcing target"):
        newton_solve(space, prob.data, estimator=_eta(prob.data))


def test_unforced_gmres_step_short_of_its_target_raises(monkeypatch):
    # Without the estimator GMRES is held to the same rule: its true
    # residual must meet the tolerance it was given.
    gmres = solver._gmres

    def short(*args):
        d, steps, info = gmres(*args)
        return 0.5 * d, steps, info

    monkeypatch.setattr(solver, "_gmres", short)
    with pytest.raises(SolverError, match="above its forcing target"):
        newton_solve(square_space(4), get_problem("square-trig").data)


def test_gmres_seeded_with_the_dual_norm_solve(monkeypatch):
    # GMRES takes the step's preconditioned right-hand side A^-1 (-r) from
    # the dual norm, or without the estimator from one solve per step,
    # where scipy's gmres solves -r twice before its first iteration.
    # Either way every result is scipy's to the bit.
    def run(gmres, **config):
        solves, cycles = [], []

        def counted(A, order):
            solve = factorise(A, order)
            return lambda b: solves.append(1) or solve(b)

        def cycle_counted(matvec, *args):
            # Each cycle ends with one product for its true residual.
            products = []
            x, iterations, info = gmres(lambda z: products.append(1) or matvec(z), *args)
            cycles.append(len(products) - iterations)
            return x, iterations, info

        with monkeypatch.context() as m:
            m.setattr(solver, "factorise", counted)
            m.setattr(solver, "_gmres", cycle_counted)
            res = uniform_run(get_problem("square-trig"),
                              AmfemConfig(delta=0.05, max_levels=1, **config))
        return res.final, len(solves), sum(cycles)

    for config, rule in (({}, "discretisation"), ({"newton_tol": 1e-9}, "algebraic")):
        final, n_solves, n_cycles = run(solver._gmres, **config)
        reference, n_reference, _ = run(oc.scipy_gmres, **config)
        steps = final.solve.iterations
        assert steps >= 2 and final.solve.rule == rule
        # The guess; the dual norm at each iterate, or else each step's
        # right-hand side; one solve per GMRES iteration and per restart.
        right_hand_sides = steps + 1 if rule == "discretisation" else steps
        assert n_solves == (1 + right_hand_sides + sum(final.solve.krylov_iterations)
                            + n_cycles - steps)
        # scipy's gmres, handed the same Mb, solves -r twice more.
        assert n_reference == n_solves + 2 * steps
        np.testing.assert_array_equal(final.state.coeffs, reference.state.coeffs)
        assert final.solve == reference.solve
        np.testing.assert_array_equal(final.report.eta_sq, reference.report.eta_sq)


# -- the in-house GMRES against scipy's --------------------------------------


def _jacobi(A):
    d = A.diagonal()
    return lambda z: z / d


def _gmres_case(name):
    """(A, b, psolve, atol) of each oracle case; psolve is A's Jacobi
    preconditioner or the identity."""
    rng = np.random.default_rng(11)
    n = 120
    if name in ("jacobi", "restart"):
        # Random nonsymmetric: a dominant diagonal takes a few iterations,
        # a weak one more than 20.
        weight = 0.3 if name == "jacobi" else 1.0
        A = weight * sp.random(n, n, density=0.05, random_state=3) + sp.diags(rng.uniform(1, 4, n))
        return A.tocsr(), rng.standard_normal(n), _jacobi(A), 1e-10
    if name == "breakdown":
        # b = 3 e0 spans, with e1, an invariant subspace of A: the basis
        # vectors are exact and the third Krylov direction is exactly zero.
        A = (sp.random(n, n, density=0.05, random_state=4) + 3 * sp.eye(n)).tolil()
        A[:2, :], A[:, :2] = 0.0, 0.0
        A[0, 0], A[1, 0], A[0, 1], A[1, 1] = 1.5, 2.0, -0.75, 5.0
        return A.tocsr(), 3.0 * np.eye(n)[0], lambda z: z, 1e-12
    if name == "zero":
        A = sp.random(n, n, density=0.05, random_state=5) + sp.eye(n)
        return A.tocsr(), np.zeros(n), lambda z: z, 1e-10
    # A cyclic shift, b = e0: the residual does not fall until n
    # iterations, and restarts every 20 keep it from falling at all.
    A = sp.csr_matrix(np.roll(np.eye(n), 1, axis=0))
    return A, np.eye(n)[0], lambda z: z, 1e-8


@pytest.mark.parametrize("name", ["jacobi", "restart", "breakdown", "zero", "stall"])
def test_gmres_matches_scipy_bit_for_bit(name):
    A, b, psolve, atol = _gmres_case(name)
    expected = oc.scipy_gmres(lambda z: A @ z, b, None, psolve, atol)
    got = solver._gmres(lambda z: A @ z, b, psolve(b), psolve, atol)
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1:] == expected[1:]
    iterations, info = got[1:]
    assert {"jacobi": 0 < iterations <= 20, "restart": iterations > 20, "breakdown": iterations == 2,
            "zero": iterations == 0, "stall": iterations == 20 * solver._GMRES_CYCLES}[name]
    assert info == (solver._GMRES_CYCLES if name == "stall" else 0)
    if name == "stall":
        with pytest.raises(SolverError, match=f"in {iterations} iterations"):
            solver._krylov_solve(lambda z: A @ z, b, psolve(b), psolve, atol)


# Traced peaks of one _krylov_solve call on 3,969 dofs, in rows of 2n
# doubles: 29-35 rows above its k iterations while scipy's gmres reserved
# 21 basis rows, 6.2-7.3 since the basis grows by a row per iteration and
# the bracket's product scatters p and q one at a time, 3.3-4.3 since the
# basis grows after each iteration's products, the Jacobian product writes
# one output row and the preconditioner scales without numpy's buffers.
_KRYLOV_ROWS = 5.0


def test_krylov_solve_traced_peak_grows_with_its_iterations(monkeypatch):
    space = square_space(10)
    data = get_problem("square-trig").data
    row = 2 * space.n_dofs * 8
    krylov = solver._krylov_solve
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            d, steps = krylov(*args)
            peaks.append((tracemalloc.get_traced_memory()[1], steps))
        finally:
            tracemalloc.stop()
        return d, steps

    monkeypatch.setattr(solver, "_krylov_solve", traced)
    newton_solve(space, data)
    newton_solve(space, data, estimator=_eta(data))
    assert len(peaks) >= 4
    for peak, steps in peaks:
        assert peak <= (steps + _KRYLOV_ROWS) * row


# Transients of the kernels that run beside a level's factor, in rows of 2n
# doubles: a call's traced peak less what its result keeps, after a warm-up
# call.  On square_space(8) and (10), when both fields went through each
# kernel at once: apply_residual 11.8 and 8.7, the rounding floor 7.7 (one
# nnz-sized |A|), estimate 12.0 and 11.4, the bracket 16.6 and 12.4 (the
# (nt, 6, 3) shape_hess), its product 4.3 and 4.1, the preconditioner 2.1 and
# 2.0; at most 3.7 and 3.4 one field, one row block and one shape function
# column at a time.  A _krylov_solve of k iterations peaks at k + 4.1 and
# k + 4.3 (k + 6.9 and k + 7.2 before), within _KRYLOV_ROWS at both sizes.
_WINDOW_ROWS = 4.0


def _transient(kernel, *args):
    """Traced peak of one call, after a warm-up call, less what its result keeps."""
    kernel(*args)
    tracemalloc.start()
    try:
        out = kernel(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak - kept


@pytest.mark.parametrize("levels", [8, 10])
def test_newton_window_kernels_stay_within_a_few_rows(levels, monkeypatch):
    space = square_space(levels)
    data = get_problem("square-trig").data
    row = 2 * space.n_dofs * 8
    krylov, calls = solver._krylov_solve, []

    def traced(J, b, Mb, psolve, atol):
        # The Jacobian holds its bracket only while its GMRES solve runs.
        calls.append({"Jacobian product": _transient(J, b),
                      "preconditioner": _transient(psolve, b)})
        tracemalloc.start()
        try:
            d, steps = krylov(J, b, Mb, psolve, atol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (steps + _KRYLOV_ROWS) * row, (peak / row, steps)
        return d, steps

    monkeypatch.setattr(solver, "_krylov_solve", traced)
    state, report = newton_solve(space, data, estimator=_eta(data))
    assert report.converged and len(calls) >= 2

    A, load = assemble_bilaplacian(space), assemble_load(space, data)
    H = [space.element_hessians(c) for c in state.coeffs]
    x = np.random.default_rng(levels).standard_normal(2 * space.n_dofs)
    kernels = {
        "apply_residual": (apply_residual, state, data, A, load),
        "_rounding_floor": (solver._rounding_floor, A, load, state.coeffs),
        "estimate": (estimate, state, data),
        "_volume_terms": (estimator._volume_terms, space, H, data),
        "_edge_terms": (estimator._edge_terms, space.mesh, H),
        "assemble_linearized_bracket": (assemble_linearized_bracket, state),
        "bracket product": (assemble_linearized_bracket(state), x),
    }
    transients = {name: _transient(*call) for name, call in kernels.items()}
    for step in calls:
        transients.update({name: max(step[name], transients.get(name, 0)) for name in step})
    assert len(transients) == 9
    for name, transient in transients.items():
        assert transient <= _WINDOW_ROWS * row, (name, transient / row)


# -- handing freed heap back before each factor --------------------------------

def test_heap_release_changes_no_output(tmp_path, monkeypatch):
    # The adaptive L-shape run to 3,000 dofs, with and without the release
    # (its handle set to None, as where the C library has no malloc_trim).
    def run():
        cfg = AmfemConfig(theta=0.3, delta=0.9, max_levels=40, max_ndofs=3000)
        res = amfem_run(get_problem("lshape-f1"), cfg)
        res.report.to_csv(tmp_path / "report.csv")
        write_mesh(res.final.mesh, tmp_path / "final.morleymesh")
        return [(tmp_path / "report.csv").read_bytes(),
                (tmp_path / "final.morleymesh").read_bytes(), res.final.state.coeffs.tobytes()]

    released = run()
    monkeypatch.setattr(solver, "_malloc_trim", None)
    assert run() == released


_HWM_SCRIPT = """
import sys
from vkmorley import solver
from vkmorley.adaptivity import AmfemConfig, amfem_run
from vkmorley.problems import get_problem
if sys.argv[1] == "kept":
    solver._malloc_trim = None
amfem_run(get_problem("lshape-f1"),
          AmfemConfig(theta=0.3, delta=0.9, max_levels=40, max_ndofs=20_000))
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(solver._malloc_trim is None or not Path("/proc/self/status").exists(),
                    reason="needs glibc's malloc_trim and Linux's VmHWM")
def test_heap_release_lowers_the_peak_of_an_adaptive_run():
    # Each level's factor is freed into the heap, and without the release
    # the next, larger factor grows the heap past it: on the adaptive
    # L-shape run to 20,000 dofs the release saves about 10 %.  The peak
    # is the child's VmHWM: its ru_maxrss starts from the launching
    # process's peak, which a fork (or vfork) and exec carry over.
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    peaks = {}
    for mode in ("released", "kept"):
        proc = subprocess.run([sys.executable, "-c", _HWM_SCRIPT, mode], env=env,
                              capture_output=True, text=True, check=True)
        peaks[mode] = int(proc.stdout.split()[-1])
    assert peaks["released"] <= 0.95 * peaks["kept"], peaks


# -- SuperLU's extension and LAPACK's dlartg without scipy.linalg --------------

_FRESH_SCRIPT = """
import hashlib, importlib.machinery, json, sys, tempfile
import numpy as np
if sys.argv[1] == "no-extension":
    importlib.machinery.EXTENSION_SUFFIXES = []
import vkmorley
from vkmorley import cli, solver
from vkmorley.adaptivity import AmfemConfig, amfem_run
from vkmorley.forms import assemble_bilaplacian
from vkmorley.problems import get_problem
res = amfem_run(get_problem("lshape-f1"),
                AmfemConfig(theta=0.3, delta=0.9, max_levels=40, max_ndofs=300))
with tempfile.TemporaryDirectory() as out:
    code = cli.main(["--problem", "square-poly", "--mode", "axiom-check", "--levels", "3",
                     "--delta", "0.75", "--out", out])
    with open(out + "/axioms.csv", "rb") as fh:
        axioms = fh.read()
linalg = sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse.linalg")))
space = res.final.space
A, b = assemble_bilaplacian(space), np.random.default_rng(3).standard_normal((space.n_dofs, 2))
x = solver.factorise(A, solver.dissection_order(space))(b)
import scipy.sparse.linalg as spla
after = solver.factorise(A, solver.dissection_order(space))(b)
print(json.dumps(dict(
    extension=solver._superlu is not None, linalg=linalg, code=code,
    ndofs=res.report.rows[-1].ndofs, run=hashlib.sha256(b"".join(
        [res.final.state.coeffs.tobytes(), repr([r.eta for r in res.report.rows]).encode(),
         axioms, x.tobytes()])).hexdigest(),
    public_after_import=after.tobytes() == x.tobytes(),
    splu_after_import=bool(np.allclose(spla.splu(A.tocsc()).solve(b), x, rtol=1e-9, atol=0)))))
"""


@cache
def fresh_run(mode):
    """An adaptive lshape-f1 run to about 300 dofs and a 3-level axiom check
    in a new interpreter, then factors after importing scipy.sparse.linalg."""
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FRESH_SCRIPT, mode], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_run_loads_neither_scipy_linalg_nor_scipy_sparse_linalg():
    # Their imports load LAPACK's f2py module, about 8 MB resident; the
    # factor comes from SuperLU's extension module, loaded on its own.
    run = fresh_run("direct")
    assert run["extension"] and run["code"] == 0 and 250 <= run["ndofs"] <= 400
    assert run["linalg"] == []
    # Once scipy.sparse.linalg is imported its splu factors alike.
    assert run["public_after_import"] and run["splu_after_import"]


def test_without_the_extension_a_run_factorises_through_splu_alike():
    run, direct = fresh_run("no-extension"), fresh_run("direct")
    assert not run["extension"] and "scipy.sparse.linalg" in run["linalg"]
    assert run["run"] == direct["run"] and run["ndofs"] == direct["ndofs"]


def test_direct_and_splu_routes_factor_bit_for_bit(monkeypatch):
    space = lshape_adaptive_space()
    A, order = assemble_bilaplacian(space), dissection_order(space)
    b = np.random.default_rng(7).standard_normal((space.n_dofs, 2))
    factors, splu, gstrf = [], spla.splu, solver._superlu.gstrf
    monkeypatch.setattr(spla, "splu", lambda M, **kw: factors.append(splu(M, **kw)) or factors[-1])
    x_public = factorise(A, order)(b)
    # Without scipy.sparse.linalg imported, factorise calls the extension.
    monkeypatch.delitem(sys.modules, "scipy.sparse.linalg")
    monkeypatch.setattr(solver, "_superlu", SimpleNamespace(
        gstrf=lambda *a, **kw: factors.append(gstrf(*a, **kw)) or factors[-1]))
    x_direct = factorise(A, order)(b)
    monkeypatch.undo()
    public, direct = factors
    for name in ("L", "U"):
        for part in ("data", "indices", "indptr"):
            assert (getattr(getattr(public, name), part).tobytes()
                    == getattr(getattr(direct, name), part).tobytes())
    np.testing.assert_array_equal(public.perm_r, direct.perm_r)
    np.testing.assert_array_equal(public.perm_c, direct.perm_c)
    assert x_direct.tobytes() == x_public.tobytes()


def test_dlartg_port_matches_lapack_bit_for_bit():
    from scipy.linalg.lapack import dlartg

    rng = np.random.default_rng(5)
    size = (20_000, 2)
    pairs = rng.choice([-1.0, 1.0], size) * rng.uniform(1, 10, size) * 10.0 ** rng.uniform(
        -300, 300, size)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, -1e-300, 1e300, -1e300,
               1.7e308, -0.5, 3.0, solver._RTMIN, solver._RTMAX, -solver._RTMAX]
    pairs = np.concatenate([pairs, list(itertools.product(special, repeat=2))])
    f, g = np.abs(pairs).T
    inside = (solver._RTMIN < f) & (f < solver._RTMAX) & (solver._RTMIN < g) & (g < solver._RTMAX)
    branch = np.select([g == 0, f == 0, inside], [0, 1, 2], 3)
    assert set(branch.tolist()) == {0, 1, 2, 3}
    got = np.array([solver._dlartg(*pair) for pair in pairs.tolist()])
    want = np.array([dlartg(*pair) for pair in pairs.tolist()])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
