"""Morley space construction, interpolation, evaluation, prolongation."""

import tracemalloc
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmorley.mesh import MeshError, build_initial_mesh, mesh_from_arrays, refine, uniform_refine
from vkmorley.morley import (
    MorleyField,
    build_space,
    interpolate,
    prolongate,
)

import oracles as oc
from oracles import evaluate

REF_TRI = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
SKEW_TRI = [(0.0, 0.0), (2.0, 0.5), (0.7, 1.9)]


def single_triangle_space(coords):
    return oc.free_space(mesh_from_arrays(coords, [(0, 1, 2)]))


def shape_functions_at(space, pts):
    """Values of the 6 local shape functions of element 0 at points."""
    vals = []
    for i in range(6):
        e = np.zeros(6)
        e[i] = 1.0
        poly = np.einsum("ij,j->i", space.coeffs[0], e)
        vals.append(space.poly_values(0, poly, pts))
    return np.stack(vals, axis=-1)


# -- dof layout --------------------------------------------------------------


def test_dof_counts_on_square_hierarchy():
    m = build_initial_mesh("square")
    assert build_space(m).n_dofs == 1
    m2 = uniform_refine(uniform_refine(m))
    sp2 = build_space(m2)
    assert sp2.n_dofs == 9
    assert np.count_nonzero(sp2.vertex_dof >= 0) == 1
    assert int((~m2.edge_is_boundary).sum()) == 8


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_dof_counts_cross_check(domain):
    # two independent counts: distinct ids in the element maps, and
    # per-id multiplicities (vertex dofs appear once per incident
    # triangle, edge dofs exactly twice)
    m = uniform_refine(uniform_refine(build_initial_mesh(domain)))
    space = build_space(m)
    ids = space.dof_map[space.dof_map >= 0]
    assert sorted(set(ids)) == list(range(space.n_dofs))
    counts = np.bincount(ids, minlength=space.n_dofs)
    for v in np.nonzero(space.vertex_dof >= 0)[0]:
        degree = int(np.sum(np.any(m.tri_vertices == v, axis=1)))
        assert counts[space.vertex_dof[v]] == degree
    for e in np.nonzero(space.edge_dof >= 0)[0]:
        assert counts[space.edge_dof[e]] == 2


# -- local bases -------------------------------------------------------------


def test_tiny_shape_regular_triangle_builds():
    # Bisect the triangles at one corner of the square until the
    # smallest has h below 1e-8.  The duality residual is measured in
    # units free of h, so these shape-regular triangles build.
    mesh = build_initial_mesh("square")
    corner = int(np.argmin(np.abs(mesh.coords).sum(axis=1)))
    while mesh.h.min() >= 1e-8:
        mesh = refine(mesh, np.nonzero((mesh.tri_vertices == corner).any(axis=1))[0])
    space = build_space(mesh)
    assert space.n_dofs > 0


def test_needle_triangle_rejected_by_name():
    # The needle (0, 0), (1, 0), (1 - eps, eps) builds at eps = 1e-6
    # (scaled residual 2.8e-11) and is rejected at eps = 1e-9 (2.0e-8).
    def needle(eps):
        return mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (1.0 - eps, eps)], [(0, 1, 2)])

    build_space(needle(1e-6))
    with pytest.raises(MeshError, match=r"triangle 0: Morley duality residual"):
        build_space(needle(1e-9))


def _square(side):
    return mesh_from_arrays([(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)],
                            [(0, 1, 2), (0, 2, 3)])


@pytest.mark.parametrize("side", [1e154, 1e200])
def test_squares_past_the_float_range_raise_without_a_warning(side):
    # From 1e154 the squared diagonal overflows (where the refinement edges
    # are assigned), and at 1e200 the area too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=r"triangle 0 has a non-finite"):
            build_space(_square(side))


def test_shape_integral_past_the_float_range_named():
    # At 1e153 the areas, 5e305, are finite, and some shape integrals are not.
    mesh = _square(1e153)
    assert np.all(np.isfinite(mesh.areas))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=r"^triangle 0 has a non-finite shape integral$"):
            build_space(mesh)


@pytest.mark.parametrize("coords", [REF_TRI, SKEW_TRI])
def test_duality_identity(coords):
    space = single_triangle_space(coords)
    mesh = space.mesh
    verts = np.asarray(coords)
    vals = shape_functions_at(space, verts)
    np.testing.assert_allclose(vals, np.eye(3, 6), atol=1e-12)
    # gradient of a quadratic is affine, so the edge mean equals the
    # midpoint value
    for k in range(3):
        e = mesh.tri_edges[0, k]
        mid = 0.5 * mesh.coords[mesh.edge_vertices[e]].sum(axis=0)
        for i in range(6):
            unit = np.zeros(6)
            unit[i] = 1.0
            poly = space.coeffs[0] @ unit
            grad = space.poly_gradients(0, poly, mid[None])
            got = float(grad[0] @ mesh.edge_normal[e])
            assert got == pytest.approx(1.0 if i == k + 3 else 0.0, abs=1e-12)


@pytest.mark.parametrize("coords", [REF_TRI, SKEW_TRI])
def test_shape_functions_match_symbolic_oracle(coords):
    space = single_triangle_space(coords)
    basis = oc.morley_basis(coords)
    rng = np.random.default_rng(11)
    bary = rng.dirichlet([1, 1, 1], size=12)
    pts = bary @ np.asarray(coords)
    got = shape_functions_at(space, pts)
    for i in range(6):
        fn = sp.lambdify((oc.X, oc.Y), basis[i], "numpy")
        np.testing.assert_allclose(got[:, i], fn(pts[:, 0], pts[:, 1]), atol=1e-10)


def test_shape_integrals_match_symbolic_oracle():
    space = single_triangle_space(SKEW_TRI)
    basis = oc.morley_basis(SKEW_TRI)
    for i in range(6):
        want = float(oc.integrate_triangle(basis[i], SKEW_TRI))
        assert space.shape_integral[0, i] == pytest.approx(want, abs=1e-12)


def test_hessians_transform_by_rotation_conjugation():
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shift = np.array([0.3, -0.2])
    base = np.asarray(SKEW_TRI)
    moved = base @ R.T + shift
    s0 = single_triangle_space(SKEW_TRI)
    s1 = single_triangle_space([tuple(p) for p in moved])
    for i in range(6):
        hxx, hxy, hyy = oc.shape_hess(s0)[0, i]
        H = np.array([[hxx, hxy], [hxy, hyy]])
        kxx, kxy, kyy = oc.shape_hess(s1)[0, i]
        K = np.array([[kxx, kxy], [kxy, kyy]])
        np.testing.assert_allclose(K, R @ H @ R.T, atol=1e-11)


# -- interpolation -----------------------------------------------------------


def test_interpolate_zero_gives_zero_field():
    space = build_space(uniform_refine(build_initial_mesh("square")))
    f = interpolate(space, lambda x, y: 0.0 * x, lambda x, y: (0.0 * x, 0.0 * y))
    assert np.all(f.coeffs == 0.0)


def test_interpolate_reproduces_quadratics():
    q = lambda x, y: 1.0 + 2.0 * x - 3.0 * y + x * x - x * y + 2.0 * y * y
    dq = lambda x, y: (2.0 + 2.0 * x - y, -3.0 - x + 4.0 * y)
    space = single_triangle_space(SKEW_TRI)
    f = interpolate(space, q, dq)
    rng = np.random.default_rng(5)
    pts = rng.dirichlet([1, 1, 1], size=10) @ np.asarray(SKEW_TRI)
    vals, _, hess = evaluate(f, 0, pts)
    np.testing.assert_allclose(vals, q(pts[:, 0], pts[:, 1]), atol=1e-12)
    np.testing.assert_allclose(hess, [2.0, -1.0, 4.0], atol=1e-12)


def test_interpolate_x_squared_hessian():
    space = single_triangle_space(SKEW_TRI)
    f = interpolate(space, lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0 * y))
    _, _, hess = evaluate(f, 0, np.asarray(SKEW_TRI)[:1])
    np.testing.assert_allclose(hess, [2.0, 0.0, 0.0], atol=1e-12)


def test_integral_mean_identity_clamped_polynomial():
    # the element Hessian of the interpolant equals the element mean of
    # the true Hessian; exact edge means need 5 Gauss points here
    from vkmorley.quadrature import triangle_points

    u = lambda x, y: (x * (1 - x) * y * (1 - y)) ** 2
    P = lambda t: (t * (1 - t)) ** 2
    P1 = lambda t: 2 * t - 6 * t**2 + 4 * t**3
    P2 = lambda t: 2 - 12 * t + 12 * t**2
    du = lambda x, y: (P1(x) * P(y), P(x) * P1(y))

    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    space = build_space(mesh)
    f = oc.interpolate(space, u, du, edge_points=5)
    H = space.element_hessians(f.coeffs)

    rule = oc.gauss_triangle_rule(8)
    pts = triangle_points(rule, mesh.triangle_coords())
    x, y = pts[..., 0], pts[..., 1]
    mean = np.stack(
        [
            rule.weights @ (P2(x) * P(y)).T,
            rule.weights @ (P1(x) * P1(y)).T,
            rule.weights @ (P(x) * P2(y)).T,
        ],
        axis=-1,
    )
    np.testing.assert_allclose(H, mean, atol=1e-12)


# -- evaluation --------------------------------------------------------------


def test_evaluate_zero_field():
    mesh = uniform_refine(build_initial_mesh("square"))
    space = build_space(mesh)
    f = MorleyField(space, np.zeros(space.n_dofs))
    centroid = mesh.triangle_coords()[0].mean(axis=0)
    v, g, h = evaluate(f, 0, centroid[None])
    assert np.all(v == 0) and np.all(g == 0) and np.all(h == 0)


def test_evaluate_rejects_outside_points():
    space = single_triangle_space(REF_TRI)
    f = MorleyField(space, np.zeros(space.n_dofs))
    with pytest.raises(ValueError):
        evaluate(f, 0, np.array([[0.8, 0.8]]))


def test_vertex_continuity_across_elements():
    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    space = build_space(mesh)
    rng = np.random.default_rng(2)
    f = MorleyField(space, rng.standard_normal(space.n_dofs))
    for v in np.nonzero(space.vertex_dof >= 0)[0]:
        owners = np.nonzero(np.any(mesh.tri_vertices == v, axis=1))[0]
        vals = [
            evaluate(f, t, mesh.coords[v][None])[0][0] for t in owners
        ]
        np.testing.assert_allclose(vals, vals[0], atol=1e-10)


def test_edge_normal_mean_continuity():
    # the defining Morley continuity: mean normal derivative matches
    # across interior edges; gradients are affine so the midpoint value
    # is that mean
    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    space = build_space(mesh)
    rng = np.random.default_rng(3)
    f = MorleyField(space, rng.standard_normal(space.n_dofs))
    inner = np.nonzero(~mesh.edge_is_boundary)[0]
    for e in inner:
        mid = 0.5 * mesh.coords[mesh.edge_vertices[e]].sum(axis=0)
        nu = mesh.edge_normal[e]
        t0, t1 = mesh.edge_tris[e]
        _, g0, _ = evaluate(f, t0, mid[None])
        _, g1, _ = evaluate(f, t1, mid[None])
        assert float(g0[0] @ nu) == pytest.approx(float(g1[0] @ nu), abs=1e-10)


def test_reversed_edge_orientation_is_internal_only():
    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    q = lambda x, y: x * x * y + 0.5 * y * y
    dq = lambda x, y: (2.0 * x * y, x * x + y)
    a = interpolate(build_space(mesh), q, dq)
    b = interpolate(oc.reversed_edge_space(mesh), q, dq)
    np.testing.assert_allclose(
        a.space.element_polys(a.coeffs), b.space.element_polys(b.coeffs), atol=1e-12
    )


# -- prolongation ------------------------------------------------------------


def test_prolongate_identity_mesh():
    mesh = uniform_refine(build_initial_mesh("square"))
    space = build_space(mesh)
    rng = np.random.default_rng(4)
    f = MorleyField(space, rng.standard_normal(space.n_dofs))
    g = prolongate(f, space)
    np.testing.assert_array_equal(g.coeffs, f.coeffs)


def test_prolongate_rejects_a_two_step_descendant():
    coarse = build_space(build_initial_mesh("square"))
    fine = build_space(uniform_refine(uniform_refine(coarse.mesh)))
    with pytest.raises(MeshError, match="direct refinement"):
        prolongate(MorleyField(coarse, np.zeros(coarse.n_dofs)), fine)


def test_prolongate_zero_field():
    coarse = build_space(uniform_refine(build_initial_mesh("square")))
    fine = build_space(uniform_refine(coarse.mesh))
    g = prolongate(MorleyField(coarse, np.zeros(coarse.n_dofs)), fine)
    assert np.all(g.coeffs == 0.0)


def test_prolongate_preserves_global_quadratic():
    # interpolating a quadratic gives the quadratic on every element, so
    # prolongation must reproduce it on the children of a refined
    # interior triangle
    q = lambda x, y: 0.3 + 1.2 * x - 0.7 * y + 0.5 * x * x - 0.9 * x * y + 0.4 * y * y
    dq = lambda x, y: (1.2 + x - 0.9 * y, -0.7 - 0.9 * x + 0.8 * y)
    mesh = build_initial_mesh("square")
    for _ in range(4):
        mesh = uniform_refine(mesh)
    cs = oc.free_space(mesh)
    inner = [
        t
        for t in range(mesh.n_triangles)
        if np.all(mesh.vertex_is_boundary[mesh.tri_vertices[t]] == False)  # noqa: E712
    ]
    assert inner, "expected a fully interior triangle at this depth"
    t = inner[0]
    fine_mesh = refine(mesh, [t])
    fs = oc.free_space(fine_mesh)
    g = prolongate(interpolate(cs, q, dq), fs)

    children = [c for c in range(fine_mesh.n_triangles) if fine_mesh.ancestors[c] == t]
    assert len(children) >= 2
    rng = np.random.default_rng(6)
    for c in children:
        pts = rng.dirichlet([1, 1, 1], size=10) @ fine_mesh.triangle_coords()[c]
        vals, _, _ = evaluate(g, c, pts)
        np.testing.assert_allclose(vals, q(pts[:, 0], pts[:, 1]), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    domain=st.sampled_from(["square", "lshape"]),
    pre=st.integers(0, 2),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_prolongate_matches_loop_reference(domain, pre, steps, seed):
    rng = np.random.default_rng(seed)
    coarse, fine = oc.random_descent(rng, domain, pre, steps)
    cs = build_space(coarse)
    fs = build_space(fine)
    f = MorleyField(cs, rng.standard_normal(cs.n_dofs))
    np.testing.assert_array_equal(
        prolongate(f, fs).coeffs, oc.prolongate_loop(f, fs).coeffs
    )


@settings(max_examples=25, deadline=None)
@given(
    domain=st.sampled_from(["square", "lshape"]),
    pre=st.integers(0, 2),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_prolongate_reproduces_quadratic_on_every_fine_triangle(domain, pre, steps, seed):
    # Every NVB fine triangle lies inside one coarse triangle, and an
    # interpolated quadratic is that quadratic on every coarse triangle,
    # so each fine element polynomial must be the quadratic again.
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, 6)
    q = lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
    dq = lambda x, y: (c[1] + 2 * c[3] * x + c[4] * y, c[2] + c[4] * x + 2 * c[5] * y)
    coarse, fine = oc.random_descent(rng, domain, pre, steps)
    fs = oc.free_space(fine)
    g = prolongate(interpolate(oc.free_space(coarse), q, dq), fs)

    bary = rng.dirichlet([1, 1, 1], size=(fine.n_triangles, 4))
    pts = np.einsum("tqk,tkd->tqd", bary, fine.triangle_coords())
    polys = fs.element_polys(g.coeffs)[:, None, :]
    own = np.arange(fine.n_triangles)[:, None]
    vals, grads = fs.poly_values(own, polys, pts), fs.poly_gradients(own, polys, pts)
    x, y = pts[..., 0], pts[..., 1]
    np.testing.assert_allclose(vals, q(x, y), atol=1e-11)
    np.testing.assert_allclose(grads[..., 0], dq(x, y)[0], atol=1e-9)
    np.testing.assert_allclose(grads[..., 1], dq(x, y)[1], atol=1e-9)
    hess = np.broadcast_to([2 * c[3], c[4], 2 * c[5]], (fine.n_triangles, 3))
    np.testing.assert_allclose(fs.element_hessians(g.coeffs), hess, atol=1e-7)


# -- the (u, v) block -------------------------------------------------------

DESCENTS = dict(
    domain=st.sampled_from(["square", "lshape"]),
    pre=st.integers(0, 2),
    steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)


def _random_pair(rng, space):
    return MorleyField(space, rng.standard_normal((2, space.n_dofs)))


def test_state_rows_are_views_of_the_block():
    space = build_space(uniform_refine(build_initial_mesh("square")))
    state = _random_pair(np.random.default_rng(18), space)
    for k, field in enumerate((state.u, state.v)):
        assert field.space is space and field.coeffs.shape == (space.n_dofs,)
        assert np.shares_memory(field.coeffs, state.coeffs)
        field.coeffs[0] = 7.0 + k
    assert state.coeffs[:, 0].tolist() == [7.0, 8.0]


@settings(max_examples=30, deadline=None)
@given(**DESCENTS)
def test_block_element_data_equals_per_field(domain, pre, steps, seed):
    # A block must round exactly like its rows: gather returns a
    # C-contiguous array, and einsum rounds a strided one differently.
    rng = np.random.default_rng(seed)
    _, fine = oc.random_descent(rng, domain, pre, steps)
    space = build_space(fine)
    pair = _random_pair(rng, space)
    block = pair.coeffs
    assert block.shape == (2, space.n_dofs)
    hess = space.element_hessians(block)
    polys = space.element_polys(block)
    pts = fine.triangle_coords()
    own = np.arange(fine.n_triangles)[:, None]
    vals = space.poly_values(own, polys[..., None, :], pts)
    grads = space.poly_gradients(own, polys[..., None, :], pts)
    for k, field in enumerate((pair.u, pair.v)):
        np.testing.assert_array_equal(hess[k], space.element_hessians(field.coeffs))
        np.testing.assert_array_equal(polys[k], space.element_polys(field.coeffs))
        one = polys[k][:, None, :]
        np.testing.assert_array_equal(vals[k], space.poly_values(own, one, pts))
        np.testing.assert_array_equal(grads[k], space.poly_gradients(own, one, pts))


@settings(max_examples=30, deadline=None)
@given(**{**DESCENTS, "steps": st.integers(1, 3)})
def test_prolongate_pair_equals_per_field(domain, pre, steps, seed):
    rng = np.random.default_rng(seed)
    coarse, fine = oc.random_descent(rng, domain, pre, steps)
    cs = build_space(coarse)
    fs = build_space(fine)
    pair = _random_pair(rng, cs)
    moved = prolongate(pair, fs)
    assert isinstance(moved, MorleyField) and moved.space is fs
    assert moved.coeffs.shape == (2, fs.n_dofs)
    for row, field in zip(moved.coeffs, (pair.u, pair.v)):
        np.testing.assert_array_equal(row, prolongate(field, fs).coeffs)
        np.testing.assert_array_equal(row, oc.prolongate_loop(field, fs).coeffs)


@settings(max_examples=30, deadline=None)
@given(**DESCENTS, lead=st.sampled_from([(), (2,), (3, 2)]))
def test_scatter_is_the_transpose_of_gather(domain, pre, steps, seed, lead):
    rng = np.random.default_rng(seed)
    _, fine = oc.random_descent(rng, domain, pre, steps)
    space = build_space(fine)
    x = rng.standard_normal(lead + (space.n_dofs,))
    L = rng.standard_normal(lead + (fine.n_triangles, 6))
    gathered = space.gather(x)
    assert gathered.shape == L.shape and gathered.flags.c_contiguous
    assert np.all(gathered[..., space.dof_map < 0] == 0.0)
    scattered = space.scatter(L)
    assert scattered.shape == x.shape
    assert (scattered * x).sum() == pytest.approx((L * gathered).sum(), rel=1e-12, abs=1e-12)


# Traced peaks of one scatter on the square bisected 10 times (2,048
# triangles, 3,969 dofs), in units of nt * 6 int64 slots: 2.38 (one row)
# and 2.70 (two rows) while each row masked its bins and weights, 1.66 and
# 2.31 with the constrained slots sent to an extra bin that is dropped.
@pytest.mark.parametrize("lead", [(), (2,)])
def test_scatter_traced_peak_holds_no_masked_copies(lead):
    mesh = build_initial_mesh("square")
    for _ in range(10):
        mesh = uniform_refine(mesh)
    space = build_space(mesh)
    nt, n = mesh.n_triangles, space.n_dofs
    L = np.random.default_rng(3).standard_normal(lead + (nt, 6))
    tracemalloc.start()
    try:
        scattered = space.scatter(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = int(np.prod(lead))
    # One int64 bin per slot with its mask; a bincount and the sums per row.
    assert peak <= 9 * 6 * nt + 2 * rows * (n + 1) * 8
    bins = space.dof_map.ravel()
    keep = bins >= 0
    masked = [np.bincount(bins[keep], weights=w[keep], minlength=n)
              for w in L.reshape(-1, 6 * nt)]
    assert scattered.tobytes() == np.reshape(masked, lead + (n,)).tobytes()


# -- the monomial basis ------------------------------------------------------

# Exponents (a, b) of x^a y^b for the six centred monomials, in order.
EXPONENTS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@settings(max_examples=30, deadline=None)
@given(**DESCENTS)
def test_duality_edge_rows_match_hand_written_rows(domain, pre, steps, seed):
    # The edge rows come from ``gradients``; written out monomial by
    # monomial they round alike, so the coefficients are bit-identical.
    _, fine = oc.random_descent(np.random.default_rng(seed), domain, pre, steps)
    space = build_space(fine)
    assert np.array_equal(space.coeffs, oc.duality_coeffs_by_hand(space))


@settings(max_examples=30, deadline=None)
@given(**DESCENTS)
def test_poly_values_and_gradients_match_expansion(domain, pre, steps, seed):
    # A (2,) block of random element quadratics at random points of each
    # triangle, against x^a y^b and its derivatives summed term by term.
    rng = np.random.default_rng(seed)
    _, fine = oc.random_descent(rng, domain, pre, steps)
    space = build_space(fine)
    nt = fine.n_triangles
    polys = rng.standard_normal((2, nt, 1, 6))
    bary = rng.dirichlet([1, 1, 1], size=(nt, 4))
    pts = np.einsum("tqk,tkd->tqd", bary, fine.triangle_coords())
    own = np.arange(nt)[:, None]
    vals = space.poly_values(own, polys, pts)
    grads = space.poly_gradients(own, polys, pts)
    assert vals.shape == (2, nt, 4) and grads.shape == (2, nt, 4, 2)

    h = space.scales[:, None]
    x = (pts[..., 0] - space.centers[:, None, 0]) / h
    y = (pts[..., 1] - space.centers[:, None, 1]) / h
    want_v = np.zeros((2, nt, 4))
    want_g = np.zeros((2, nt, 4, 2))
    for k, (a, b) in enumerate(EXPONENTS):
        c = polys[..., k]
        want_v += c * x**a * y**b
        if a:
            want_g[..., 0] += c * a * x ** (a - 1) * y**b / h
        if b:
            want_g[..., 1] += c * b * x**a * y ** (b - 1) / h
    scale = np.abs(polys).sum(axis=-1)
    np.testing.assert_allclose(vals, want_v, rtol=0, atol=1e-13 * scale.max())
    np.testing.assert_allclose(grads, want_g, rtol=0, atol=1e-13 * (scale / h).max())
