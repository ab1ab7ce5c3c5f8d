"""Batched matmul kernels, moment kernels and whole-array writers against
their references.

Each per-element contraction that the package writes as a stacked
``matmul`` is checked against its ``np.einsum`` form in ``oracles``, and
each kernel that reads the data as per-element moments against its form
over values at every quadrature point, on random newest-vertex descents
of both domains.  The two forms add the
same products in a different order (BLAS may also fuse multiply-adds),
so they agree to rounding: every array must match to ``RTOL`` times its
largest entry, every scalar to ``RTOL`` relative.  The writers must match
the per-entity formatting they replace byte for byte, and the kernels of
a Newton step the forms that handled both fields at once bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles as oc
from vkmorley import morley
from vkmorley.adaptivity import LevelArtifacts, axiom_check
from vkmorley.estimator import EstimatorReport, _edge_terms, estimate, oscillation
from vkmorley.forms import (_bracket_rows, apply_residual, assemble_bilaplacian, assemble_load,
                            assemble_linearized_bracket, energy_norms)
from vkmorley.mesh import (MeshError, ancestor_map, build_initial_mesh, mesh_from_arrays,
                           refine, uniform_refine, write_mesh, write_svg)
from vkmorley.morley import MorleyField, build_space, reduce_moments
from vkmorley.problems import get_problem
from vkmorley.quadrature import triangle_points, triangle_rule
from vkmorley.solver import _rounding_floor

# About 450 float64 epsilons; measured at most 1.2e-15 over 200 descents
# (the error norms).
RTOL = 1e-13

DESCENTS = dict(
    domain=st.sampled_from(["square", "lshape"]),
    pre=st.integers(0, 2),
    steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)


def _close(got, want, scale=None):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if scale is None:
        scale = np.abs(want).max() if want.size else 0.0
    assert np.all(np.abs(got - want) <= RTOL * scale), np.abs(got - want).max() / scale


def _pair(rng, space):
    return MorleyField(space, rng.standard_normal((2, space.n_dofs)))


@settings(max_examples=25, deadline=None)
@given(**DESCENTS)
def test_matmul_kernels_match_their_einsum_forms(domain, pre, steps, seed):
    rng = np.random.default_rng(seed)
    coarse, fine = oc.random_descent(rng, domain, pre, steps)
    space = build_space(fine)
    # Loads with no symmetry, so that neither the load vector nor the
    # oscillation vanishes up to rounding.
    f = lambda x, y: np.exp(x) * np.cos(3 * y) + x * y
    data = oc.load_data(f, lambda x, y: np.sin(2 * x + y), quad_degree=6)

    for degree in (4, 6):
        rule = triangle_rule(degree)
        _close(triangle_points(rule, fine.triangle_coords()),
               oc.triangle_points_einsum(rule, fine.triangle_coords()))
    _close(space.shape_integral, oc.shape_integral_einsum(space))
    _close(assemble_bilaplacian(space).toarray(),
           space.scatter_matrix(lambda t: oc.bilaplacian_elements_einsum(space)[t]).toarray())
    _close(assemble_load(space, data), oc.load_einsum(space, data))
    # The oscillation is ||f||^2 minus the projection's share of it, so
    # it is exact only up to rounding of h^4 ||f||^2.
    rule = triangle_rule(4)
    pts = oc.triangle_points_einsum(rule, fine.triangle_coords())
    f_sq = fine.areas**3 * (f(pts[..., 0], pts[..., 1])**2 @ rule.weights)
    for order in (0, 1, 2):
        _close(oscillation(space, oc.load_data(f), order),
               oc.oscillation_einsum(space, f, order, 4), f_sq.max())

    pair = _pair(rng, space)
    for coeffs in (pair.coeffs, pair.u.coeffs):
        _close(space.element_polys(coeffs), oc.element_polys_einsum(space, coeffs))
    exact = get_problem("square-trig").exact
    np.testing.assert_allclose(energy_norms(pair, exact),
                               oc.energy_norms_einsum(space, pair, exact), rtol=RTOL)

    def level(mesh):
        s = build_space(mesh)
        state = _pair(rng, s)
        return LevelArtifacts(mesh, s, state, estimate(state, data), None)

    lc, lf = level(coarse), level(fine)
    d = (lf.space.element_hessians(lf.state.coeffs)
         - lc.space.element_hessians(lc.state.coeffs)[:, ancestor_map(coarse, fine)])
    assert axiom_check(oc.axiom_level(lc), oc.axiom_level(lf)).delta == pytest.approx(
        oc.hessian_distance_einsum(d, fine.areas), rel=RTOL)


@settings(max_examples=25, deadline=None)
@given(**DESCENTS, scale=st.sampled_from([1e-3, 1.0, 1e2]), with_g=st.booleans())
def test_moment_kernels_match_their_pointwise_forms(domain, pre, steps, seed, scale, with_g):
    # The load, the volume terms and the oscillation read f and g as
    # per-element moments; their oracles sum over the values at every
    # quadrature point.  Both are exact reorderings of one quadrature, so
    # they agree to RTOL (measured at most 2.3e-15 elementwise on the
    # volume terms over 200 descents).  The state's scale sets how far
    # the brackets dominate the data.
    rng = np.random.default_rng(seed)
    _, fine = oc.random_descent(rng, domain, pre, steps)
    space = build_space(fine)
    f = lambda x, y: np.exp(x) * np.cos(3 * y) + x * y
    data = oc.load_data(f, (lambda x, y: np.sin(2 * x + y)) if with_g else None, quad_degree=6)

    _close(assemble_load(space, data), oc.load_pointwise(space, data))
    block = scale * rng.standard_normal((2, space.n_dofs))
    pair = MorleyField(space, block)
    want = oc.volume_terms_pointwise(space, pair, data)
    np.testing.assert_allclose(estimate(pair, data).mu_sq, want, rtol=RTOL)
    # The pointwise oscillation is ||f||^2 minus the projection's share
    # of it, exact only up to rounding of h^4 ||f||^2.
    rule = triangle_rule(4)
    pts = oc.triangle_points_einsum(rule, fine.triangle_coords())
    f_sq = fine.areas**3 * (f(pts[..., 0], pts[..., 1])**2 @ rule.weights)
    for order in (0, 1, 2):
        _close(oscillation(space, oc.load_data(f), order),
               oc.oscillation_pointwise(space, f, order, 4), f_sq.max())


# -- writers -------------------------------------------------------------

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3]
floats = st.floats(width=64) | st.sampled_from(EDGE_FLOATS)
ids = st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2**31, 2**53 + 1, 2**63 - 1])


class _Table:
    """What write_mesh and write_svg read of a Mesh, from arbitrary arrays."""

    def __init__(self, coords, tri_vertices, tri_ref_edge):
        self.coords, self.tri_vertices, self.tri_ref_edge = coords, tri_vertices, tri_ref_edge
        self.n_vertices, self.n_triangles = len(coords), len(tri_vertices)


@settings(max_examples=25, deadline=None)
@given(**DESCENTS, with_g=st.booleans())
def test_newton_window_kernels_match_their_both_field_forms(domain, pre, steps, seed, with_g):
    # Bit for bit: the kernels gather, scatter and multiply one field, one
    # vector, one shape function column or one row block at a time.
    rng = np.random.default_rng(seed)
    _, mesh = oc.random_descent(rng, domain, pre, steps)
    space = build_space(mesh)
    state = _pair(rng, space)
    data = oc.load_data(lambda x, y: np.sin(x + 2 * y),
                        (lambda x, y: x * y - 0.3) if with_g else None)
    A = assemble_bilaplacian(space)
    load = assemble_load(space, data)
    H = [space.element_hessians(c) for c in state.coeffs]
    assert np.stack(H).tobytes() == oc.element_hessians_stacked(space, state.coeffs).tobytes()
    for Hw in H:
        assert _bracket_rows(space, Hw).tobytes() == oc.bracket_rows_stacked(space, Hw).tobytes()
    x = rng.standard_normal(2 * space.n_dofs)
    assert (assemble_linearized_bracket(state)(x).tobytes()
            == oc.linearized_bracket_stacked(state, x).tobytes())
    assert (apply_residual(state, data, A, load).tobytes()
            == oc.residual_stacked(state, data, A, load).tobytes())
    assert _edge_terms(mesh, H).tobytes() == oc.edge_terms_stacked(mesh, np.stack(H)).tobytes()
    assert _rounding_floor(A, load, state.coeffs) == oc.rounding_floor_whole(A, load, state.coeffs)


@st.composite
def tables(draw):
    nv = draw(st.integers(1, 12))
    nt = draw(st.integers(0, 12))
    coords = draw(hnp.arrays(np.float64, (nv, 2), elements=floats))
    tris = draw(hnp.arrays(np.int64, (nt, 3), elements=ids))
    ref = draw(hnp.arrays(np.int64, nt, elements=ids))
    return _Table(coords, tris, ref)


def _vertex_ids_in_range(table):
    # write_svg indexes coords by the triangles' vertex ids.
    table.tri_vertices = table.tri_vertices % table.n_vertices
    return table


def _same_bytes(tmp_path, new, old, *args):
    new(*args, tmp_path / "new")
    old(*args, tmp_path / "old")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_write_mesh_matches_per_row_writer(tmp_path_factory, table):
    _same_bytes(tmp_path_factory.mktemp("mesh"), write_mesh, oc.write_mesh_rows, table)


@settings(max_examples=60, deadline=None)
@given(table=tables().map(_vertex_ids_in_range))
def test_write_svg_matches_per_row_writer(tmp_path_factory, table):
    with np.errstate(all="ignore"):
        _same_bytes(tmp_path_factory.mktemp("svg"), write_svg, oc.write_svg_rows, table)


@settings(max_examples=60, deadline=None)
@given(cols=st.integers(0, 12).flatmap(
    lambda n: hnp.arrays(np.float64, (4, n), elements=floats)))
def test_estimator_csv_matches_csv_writer(tmp_path_factory, cols):
    report = EstimatorReport(eta_sq=cols[0], mu_sq=cols[1], osc_sq=cols[2], areas=cols[3])
    _same_bytes(tmp_path_factory.mktemp("csv"), EstimatorReport.to_csv,
                oc.estimator_csv_rows, report)


def test_writers_on_edge_values_and_a_real_mesh(tmp_path):
    edge = np.array(EDGE_FLOATS)
    table = _Table(np.column_stack([edge, edge[::-1]]),
                   np.array([[0, 1, 2], [2**62, 3, 2**63 - 1]]), np.array([2, 2**40]))
    _same_bytes(tmp_path, write_mesh, oc.write_mesh_rows, table)
    report = EstimatorReport(*np.stack([edge, edge[::-1], np.roll(edge, 3), -edge]))
    _same_bytes(tmp_path, EstimatorReport.to_csv, oc.estimator_csv_rows, report)
    assert (tmp_path / "new").read_bytes().count(b"\r\n") == len(edge) + 1

    mesh = oc.random_descent(np.random.default_rng(3), "lshape", 2, 2)[1]
    _same_bytes(tmp_path, write_mesh, oc.write_mesh_rows, mesh)
    _same_bytes(tmp_path, write_svg, oc.write_svg_rows, mesh)


# -- element chunks ----------------------------------------------------------


@pytest.fixture(scope="module")
def chunked_levels():
    # An adaptive L-shape pair whose fine mesh spans several chunks, the
    # last one partial, with a random (u, v) pair on each level.
    coarse = build_initial_mesh("lshape")
    while coarse.n_triangles <= 2 * morley._CHUNK:
        coarse = uniform_refine(coarse)
    fine = refine(coarse, np.arange(0, coarse.n_triangles, 5))
    assert fine.n_triangles % morley._CHUNK != 0
    rng = np.random.default_rng(23)
    data = get_problem("square-trig").data
    levels = []
    for mesh in (coarse, fine):
        space = build_space(mesh)
        state = _pair(rng, space)
        levels.append(LevelArtifacts(mesh, space, state, estimate(state, data), None))
    return levels


def _whole_mesh_moments(space, data):
    rule = triangle_rule(data.quad_degree)
    pts = triangle_points(rule, space.mesh.triangle_coords())
    xi = space.local_coords(np.arange(space.mesh.n_triangles)[:, None], pts)
    return [reduce_moments(np.broadcast_to(values, pts.shape[:-1]),
                           xi[..., 0], xi[..., 1], rule.weights)
            for values in data.loads(pts[..., 0], pts[..., 1])]


def test_chunked_moments_equal_one_whole_mesh_reduction(chunked_levels):
    # The registry's loads (square-trig) and loads built from separate f
    # and g alike.
    space = build_space(chunked_levels[1].mesh)
    trig = get_problem("square-trig").data
    plain = oc.load_data(lambda x, y: np.exp(x) * np.cos(3 * y), lambda x, y: x * y)
    for data in (trig, plain):
        for m, want in zip(data.moments(space), _whole_mesh_moments(space, data), strict=True):
            assert np.array_equal(m, want)


def test_chunked_oscillation_equals_one_chunk(chunked_levels, monkeypatch):
    space = build_space(chunked_levels[1].mesh)
    data = get_problem("square-trig").data
    chunked = [oscillation(space, data, order) for order in (1, 2)]
    space.release_quadrature()
    monkeypatch.setattr(morley, "_CHUNK", space.mesh.n_triangles)
    for order, got in zip((1, 2), chunked):
        assert np.array_equal(got, oscillation(space, data, order))


def test_chunked_energy_norms_match_the_einsum_form(chunked_levels):
    exact = get_problem("square-trig").exact
    for level in chunked_levels:
        np.testing.assert_allclose(energy_norms(level.state, exact),
                                   oc.energy_norms_einsum(level.space, level.state, exact),
                                   rtol=1e-13)


def test_energy_norms_are_chunk_invariant(chunked_levels, monkeypatch):
    # Both floats, byte for byte, for chunks of 7 elements, of 512 and of
    # the whole mesh: each element's terms are reduced within the element
    # and the elements summed once.
    exact = get_problem("square-trig").exact
    for level in chunked_levels:
        norms = []
        for chunk in (7, 512, level.mesh.n_triangles):
            monkeypatch.setattr(morley, "_CHUNK", chunk)
            norms.append(energy_norms(level.state, exact))
        assert norms[0] == norms[1] == norms[2]


def _uniform(domain, depth):
    mesh = build_initial_mesh(domain)
    for _ in range(depth):
        mesh = uniform_refine(mesh)
    return mesh


@pytest.mark.parametrize("case", ["one chunk", "four chunks", "graded"])
def test_chunked_setup_equals_the_whole_mesh_build(case, chunked_levels):
    # The shape data and A's arrays, byte for byte, on a mesh of one chunk,
    # of exactly four, and on a graded one whose last chunk is partial.
    if case == "graded":
        mesh = chunked_levels[1].mesh
        assert mesh.n_triangles > morley._CHUNK and mesh.n_triangles % morley._CHUNK
    else:
        # The square's 2 triangles, bisected `depth` times, are 2^(depth+1).
        depth = 3 if case == "one chunk" else int(np.log2(2 * morley._CHUNK))
        mesh = _uniform("square", depth)
        assert mesh.n_triangles == (16 if case == "one chunk" else 4 * morley._CHUNK)
    space = build_space(mesh)
    coeffs, shape_integral = oc.local_bases_whole(space)
    assert space.coeffs.tobytes() == coeffs.tobytes()
    assert space.shape_integral.tobytes() == shape_integral.tobytes()
    A, want = assemble_bilaplacian(space), oc.bilaplacian_whole(space)
    for name in ("data", "indices", "indptr"):
        assert getattr(A, name).tobytes() == getattr(want, name).tobytes(), name


def test_needle_in_a_later_chunk_is_named(monkeypatch):
    # Triangle 0 is sound; triangle 1, a needle of width 1e-9 across their
    # shared edge, is in the second of two one-triangle chunks.  The
    # message is the one a single chunk gives.
    eps = 1e-9
    mesh = mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (1.0 - eps, eps)],
                            [(0, 2, 1), (0, 1, 3)])
    messages = []
    for chunk in (1, 2):
        monkeypatch.setattr(morley, "_CHUNK", chunk)
        with pytest.raises(MeshError, match=r"^triangle 1: Morley duality residual") as exc:
            build_space(mesh)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
