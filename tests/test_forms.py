"""Bilinear/trilinear form assembly against symbolic and quadrature oracles."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmorley.forms import (
    ProblemData,
    apply_residual,
    assemble_bilaplacian,
    assemble_linearized_bracket,
    assemble_load,
    energy_norms,
    frobenius_weighted,
    vk_bracket,
)
from vkmorley.mesh import build_initial_mesh, mesh_from_arrays, uniform_refine
from vkmorley.morley import MorleyField, build_space, interpolate
from vkmorley.problems import get_problem
from vkmorley.quadrature import triangle_points, triangle_rule

import oracles as oc

SQUARE_TRIS = (
    [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
    [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
)


def random_state(space, rng):
    return MorleyField(space, rng.standard_normal((2, space.n_dofs)))


# -- bracket -----------------------------------------------------------------


def test_bracket_reference_values():
    assert vk_bracket(np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])) == 4.0
    assert vk_bracket(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])) == -2.0
    assert vk_bracket(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])) == 2.0


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.tuples(finite, finite, finite), st.tuples(finite, finite, finite))
@settings(max_examples=100)
def test_bracket_is_symmetric(a, b):
    h1, h2 = np.asarray(a), np.asarray(b)
    assert vk_bracket(h1, h2) == vk_bracket(h2, h1)


# -- bilaplacian block -------------------------------------------------------


def test_bilaplacian_zero_action_and_symmetry():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    A = assemble_bilaplacian(space)
    assert np.all(A @ np.zeros(space.n_dofs) == 0.0)
    assert abs(A - A.T).max() <= 1e-12


def test_bilaplacian_stores_no_cancelled_entry():
    # On the uniform square many couplings cancel to exactly zero.  A keeps
    # every other sum of the element matrices, bit for bit.
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    A = assemble_bilaplacian(space)
    H = space.shape_hess
    local = frobenius_weighted(H, space.mesh.areas[:, None]) @ H.mT
    rows, cols = np.broadcast_arrays(space.dof_map[:, :, None], space.dof_map[:, None, :])
    free = (rows >= 0) & (cols >= 0)
    kept = sparse.coo_matrix((local[free], (rows[free], cols[free])), shape=A.shape).tocsr()
    assert np.all(A.data != 0.0)
    assert kept.nnz > A.nnz
    np.testing.assert_array_equal(A.toarray(), kept.toarray())


def test_bilaplacian_owns_exactly_nnz_entries():
    # The COO sum leaves data and indices as views of buffers as long as
    # the triplets; A keeps only what it stores.
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    A = assemble_bilaplacian(space)
    for arr in (A.data, A.indices):
        while arr.base is not None:
            arr = arr.base
        assert np.asarray(arr).size == A.nnz


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_bilaplacian_is_positive_definite(domain):
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh(domain))))
    A = assemble_bilaplacian(space).toarray()
    assert np.linalg.eigvalsh(A).min() > 0.0


def test_single_dof_stiffness_matches_symbolic_oracle():
    space = build_space(build_initial_mesh("square"))
    assert space.n_dofs == 1
    A = assemble_bilaplacian(space).toarray()
    # the one global basis function restricts to the diagonal-edge shape
    # function of each triangle; both sides share the global edge normal
    phi0 = oc.morley_basis(SQUARE_TRIS[0])[4]
    phi1 = oc.morley_basis(SQUARE_TRIS[1])[5]
    want = oc.biharmonic_entry(phi0, phi0, SQUARE_TRIS[0]) + oc.biharmonic_entry(
        phi1, phi1, SQUARE_TRIS[1]
    )
    assert A[0, 0] == pytest.approx(float(want), rel=1e-12)


# -- load vector -------------------------------------------------------------


def test_load_zero_f():
    space = build_space(uniform_refine(build_initial_mesh("square")))
    data = ProblemData(f=lambda x, y: 0.0 * x)
    assert np.all(assemble_load(space, data) == 0.0)


def test_load_second_block_zero_without_g():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    data = ProblemData(f=lambda x, y: np.exp(x) + y)
    load = assemble_load(space, data)
    n = space.n_dofs
    assert np.all(load[n:] == 0.0)
    assert np.any(load[:n] != 0.0)


def test_unit_load_on_single_dof_space_matches_symbolic_oracle():
    space = build_space(build_initial_mesh("square"))
    data = ProblemData(f=lambda x, y: np.ones_like(x))
    load = assemble_load(space, data)
    phi0 = oc.morley_basis(SQUARE_TRIS[0])[4]
    phi1 = oc.morley_basis(SQUARE_TRIS[1])[5]
    want = oc.integrate_triangle(phi0, SQUARE_TRIS[0]) + oc.integrate_triangle(
        phi1, SQUARE_TRIS[1]
    )
    assert load[0] == pytest.approx(float(want), rel=1e-12)
    assert load[1] == 0.0


@pytest.mark.parametrize("field", ["f", "g"])
def test_replaced_load_is_evaluated(field):
    # The registry's joint evaluator stands for its own f and g only, so a
    # load replaced on a copy of its data is the one integrated.
    data = get_problem("square-trig").data
    calls = []

    def new_load(x, y):
        calls.append(x.size)
        return np.exp(x) * y

    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    loads = {"f": data.f, "g": data.g, field: new_load}
    load = assemble_load(build_space(mesh), dataclasses.replace(data, **{field: new_load}))
    assert calls
    plain = ProblemData(**loads, quad_degree=data.quad_degree)
    np.testing.assert_array_equal(load, assemble_load(build_space(mesh), plain))


def test_replaced_exact_derivative_is_evaluated():
    # Likewise the exact solution's joint evaluator, in the error norms.
    exact = get_problem("square-trig").exact
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    state = random_state(space, np.random.default_rng(3))

    def du(x, y):
        du_x, du_y = exact.du(x, y)
        return du_x + 1.0, du_y

    replaced = energy_norms(state, dataclasses.replace(exact, du=du))
    assert replaced == energy_norms(state, dataclasses.replace(exact, du=du, joint=None))
    assert replaced[1] != energy_norms(state, exact)[1]


# -- linearized bracket ------------------------------------------------------


def test_linearized_bracket_zero_state():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    M = assemble_linearized_bracket(oc.zero_state(space))
    assert abs(M @ np.eye(2 * space.n_dofs)).max() == 0.0


def test_linearized_bracket_block_structure():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    rng = np.random.default_rng(12)
    n = space.n_dofs
    M = assemble_linearized_bracket(random_state(space, rng)) @ np.eye(2 * n)
    assert np.all(M[n:, n:] == 0.0)
    np.testing.assert_array_equal(M[n:, :n], -M[:n, n:])


@pytest.mark.parametrize("constrained", [True, False])
def test_linearized_bracket_operator_matches_assembled_matrix(constrained):
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("lshape"))),
                        constrained=constrained)
    state = random_state(space, np.random.default_rng(15))
    n = space.n_dofs
    M = assemble_linearized_bracket(state)
    assert M.shape == (2 * n, 2 * n)
    applied = M @ np.eye(2 * n)
    reference = oc.linearized_bracket_matrix(space, state).toarray()
    scale = np.maximum(abs(reference).max(axis=0), np.finfo(float).tiny)
    assert np.all(abs(applied - reference) <= 1e-14 * scale)


def trilinear(space, psi, theta, phi):
    """Scalar 2 B_pw(psi, theta, phi) through the linearized bracket."""
    M = assemble_linearized_bracket(psi)
    return float(phi.coeffs.ravel() @ (M @ theta.coeffs.ravel()))


def test_trilinear_symmetric_in_first_two_arguments():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    rng = np.random.default_rng(13)
    for _ in range(20):
        psi, theta, phi = (random_state(space, rng) for _ in range(3))
        a = trilinear(space, psi, theta, phi)
        b = trilinear(space, theta, psi, phi)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def element_values(space, coeffs, pts):
    """Values (nt, q) of a field's element polynomials at points (nt, q, 2)."""
    own = np.arange(space.mesh.n_triangles)[:, None]
    return space.poly_values(own, space.element_polys(coeffs)[:, None, :], pts)


def test_trilinear_matches_independent_quadrature():
    # recompute 2 B_pw by degree-8 quadrature from raw element data:
    # brackets of exact Hessians times pointwise test values
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    rng = np.random.default_rng(14)
    psi, theta, phi = (random_state(space, rng) for _ in range(3))

    rule = triangle_rule(8)
    pts = triangle_points(rule, space.mesh.triangle_coords())
    warea = rule.weights[None, :] * space.mesh.areas[:, None]

    def ip(hess_a, hess_b, field_c):
        # integral of [a, b] c over the mesh; the bracket is constant
        br = vk_bracket(hess_a, hess_b)
        vals = element_values(space, field_c.coeffs, pts)
        return float(np.einsum("t,tq,tq->", br, vals, warea))

    Hu = space.element_hessians(psi.u.coeffs)
    Hv = space.element_hessians(psi.v.coeffs)
    Tu = space.element_hessians(theta.u.coeffs)
    Tv = space.element_hessians(theta.v.coeffs)
    b1 = -0.5 * ip(Hu, Tv, phi.u)
    b2 = -0.5 * ip(Hv, Tu, phi.u)
    b3 = -0.5 * ip(Hu, Tu, phi.v)
    want = 2.0 * (b1 + b2 - b3)
    got = trilinear(space, psi, theta, phi)
    assert got == pytest.approx(want, rel=1e-13)


def test_single_element_bracket_entry_hand_value():
    # one unconstrained triangle, state with constant Hessians: the
    # (p, dv) entry is -[u] bracket times the shape integral
    space = build_space(
        mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)]),
        constrained=False,
    )
    u = interpolate(space, lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0 * y))
    v = interpolate(space, lambda x, y: y * y, lambda x, y: (0.0 * x, 2.0 * y))
    state = MorleyField(space, np.stack([u.coeffs, v.coeffs]))
    n = space.n_dofs
    M = assemble_linearized_bracket(state) @ np.eye(2 * n)
    for j in range(6):
        Hj = space.shape_hess[0, j]
        for i in range(6):
            # [u, shape_j] = 2 * hyy_j since H(u) = diag(2, 0)
            want = -2.0 * Hj[2] * space.shape_integral[0, i]
            assert M[i, n + j] == pytest.approx(want, abs=1e-12)


# -- residual ----------------------------------------------------------------


def test_residual_all_zero():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    data = ProblemData(f=lambda x, y: 0.0 * x)
    r = apply_residual(
        oc.zero_state(space), data, assemble_bilaplacian(space), assemble_load(space, data)
    )
    assert np.all(r == 0.0)


def test_residual_at_zero_state_is_minus_load():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    data = ProblemData(f=lambda x, y: 1.0 + x * y, g=lambda x, y: x - y)
    r = apply_residual(
        oc.zero_state(space), data, assemble_bilaplacian(space), assemble_load(space, data)
    )
    np.testing.assert_array_equal(r, -assemble_load(space, data))


def test_residual_includes_quadratic_terms():
    # N(state) - (A-part - load) must equal the bracket contribution
    # computed independently at degree 8
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    rng = np.random.default_rng(15)
    state = random_state(space, rng)
    data = ProblemData(f=lambda x, y: np.ones_like(x))
    A = assemble_bilaplacian(space)
    load = assemble_load(space, data)
    n = space.n_dofs
    x = state.coeffs.ravel()
    linear = np.concatenate([A @ x[:n], A @ x[n:]]) - load
    got = apply_residual(state, data, A, load) - linear

    rule = triangle_rule(8)
    pts = triangle_points(rule, space.mesh.triangle_coords())
    warea = rule.weights[None, :] * space.mesh.areas[:, None]
    Hu = space.element_hessians(state.u.coeffs)
    Hv = space.element_hessians(state.v.coeffs)
    br_uv = vk_bracket(Hu, Hv)
    br_uu = vk_bracket(Hu, Hu)
    want = np.zeros(2 * n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        vals = element_values(space, e, pts)
        want[i] = -np.einsum("t,tq,tq->", br_uv, vals, warea)
        want[n + i] = 0.5 * np.einsum("t,tq,tq->", br_uu, vals, warea)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_include_bracket_false_drops_coupling():
    space = build_space(uniform_refine(uniform_refine(build_initial_mesh("square"))))
    rng = np.random.default_rng(16)
    state = random_state(space, rng)
    data = ProblemData(f=lambda x, y: np.ones_like(x), include_bracket=False)
    A = assemble_bilaplacian(space)
    load = assemble_load(space, data)
    n = space.n_dofs
    x = state.coeffs.ravel()
    want = np.concatenate([A @ x[:n], A @ x[n:]]) - load
    np.testing.assert_array_equal(apply_residual(state, data, A, load), want)


# -- norms -------------------------------------------------------------------


def quadratic_exact(c):
    c0, cx, cy, cxx, cxy, cyy = c
    return SimpleNamespace(
        du=lambda x, y: (cx + 2 * cxx * x + cxy * y, cy + cxy * x + 2 * cyy * y),
        d2u=lambda x, y: (
            2 * cxx * np.ones_like(x),
            cxy * np.ones_like(x),
            2 * cyy * np.ones_like(x),
        ),
        dv=lambda x, y: (0.0 * x, 0.0 * y),
        d2v=lambda x, y: (0.0 * x, 0.0 * x, 0.0 * x),
    )


# Traced peak of the error norms on the square bisected 12 times (8,192
# triangles): 17.7 MB when the rule's points and the exact derivatives
# were evaluated on the whole mesh at once, 7.9 MB in chunks of 2,048
# elements.
def test_energy_norms_traced_peak():
    mesh = build_initial_mesh("square")
    for _ in range(12):
        mesh = uniform_refine(mesh)
    space = build_space(mesh)
    assert space.mesh.n_triangles == 8192
    state = random_state(space, np.random.default_rng(12))
    exact = get_problem("square-trig").exact
    tracemalloc.start()
    try:
        energy_norms(state, exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.0 * 2**20


def test_energy_norms_zero_everything():
    space = build_space(uniform_refine(build_initial_mesh("square")))
    e2, e1, en = energy_norms(oc.zero_state(space), quadratic_exact([0] * 6))
    assert e2 == 0.0 and e1 == 0.0 and en == 0.0


def test_energy_norms_reproduce_interpolated_quadratic():
    space = build_space(
        mesh_from_arrays([(0.0, 0.0), (2.0, 0.5), (0.7, 1.9)], [(0, 1, 2)]),
        constrained=False,
    )
    c = [0.4, -1.0, 2.0, 0.7, -0.3, 1.1]
    q = lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
    dq = lambda x, y: (
        c[1] + 2 * c[3] * x + c[4] * y,
        c[2] + c[4] * x + 2 * c[5] * y,
    )
    u = interpolate(space, q, dq)
    v = interpolate(space, lambda x, y: 0.0 * x, lambda x, y: (0.0 * x, 0.0 * y))
    e2, e1, en = energy_norms(MorleyField(space, np.stack([u.coeffs, v.coeffs])),
                              quadratic_exact(c))
    assert e2 <= 1e-10 and e1 <= 1e-10
    # |||u|||^2 = |K| (4 cxx^2 + 2 cxy^2 + 4 cyy^2)
    area = space.mesh.areas[0]
    want = np.sqrt(area * (4 * c[3] ** 2 + 2 * c[4] ** 2 + 4 * c[5] ** 2))
    assert en == pytest.approx(want, rel=1e-12)
