"""Mesh construction, bisection refinement, and partition bookkeeping."""

import gc
import re
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmorley.mesh import (
    Mesh,
    MeshError,
    build_initial_mesh,
    mesh_from_arrays,
    mesh_partition,
    read_mesh,
    refine,
    uniform_refine,
    validate,
    write_mesh,
    write_svg,
)

import oracles as oc
from oracles import interior_angles


def assert_conforming(mesh):
    """Brute force: no vertex may lie in the interior of any edge."""
    coords = mesh.coords
    for e in range(mesh.n_edges):
        p, q = mesh.edge_vertices[e]
        a, b = coords[p], coords[q]
        for v in range(mesh.n_vertices):
            if v == p or v == q:
                continue
            c = coords[v]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            dot = (c[0] - a[0]) * (b[0] - a[0]) + (c[1] - a[1]) * (b[1] - a[1])
            ab2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
            if abs(cross) < 1e-12 * ab2 and 1e-12 < dot / ab2 < 1 - 1e-12:
                raise AssertionError(f"vertex {v} hangs on edge {e}")


def angle_classes(mesh, decimals=9):
    return set(np.round(interior_angles(mesh), decimals).ravel())


# -- initial meshes ----------------------------------------------------------


def test_square_initial_mesh():
    m = build_initial_mesh("square")
    assert m.n_vertices == 4 and m.n_triangles == 2
    assert m.areas.sum() == pytest.approx(1.0, abs=1e-15)
    # both refinement edges are the shared diagonal
    for t in range(2):
        k = m.tri_ref_edge[t]
        i, j = sorted(np.delete(m.tri_vertices[t], k))
        assert {i, j} == {0, 2}
    validate(m)


def test_lshape_initial_mesh():
    m = build_initial_mesh("lshape")
    assert m.n_triangles == 6
    assert m.areas.sum() == pytest.approx(3.0, abs=1e-15)
    # right isoceles triangles, hypotenuses through the corner at (0,0)
    corner = np.nonzero((m.coords[:, 0] == 0.0) & (m.coords[:, 1] == 0.0))[0]
    assert len(corner) == 1
    assert np.all(np.any(m.tri_vertices == corner[0], axis=1))
    validate(m)


def test_unknown_domain_errors():
    with pytest.raises(MeshError):
        build_initial_mesh("pentagon")


def test_file_with_hanging_node_errors(tmp_path):
    # vertex 4 sits mid-hypotenuse of triangle 1 but only triangle 0 uses it
    f = tmp_path / "hanging.morleymesh"
    f.write_text(
        "morleymesh 1\n"
        "vertices 5\n"
        "0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
        "triangles 3\n"
        "0 1 4 1\n1 2 4 2\n0 2 3 1\n"
    )
    with pytest.raises(MeshError, match="hanging"):
        build_initial_mesh(str(f))


def test_validate_rejects_duplicate_vertex_coordinates():
    # vertex 4 repeats vertex 1's position; the two triangles share no edge
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
    m = mesh_from_arrays(coords, [(0, 1, 2), (4, 3, 2)])
    with pytest.raises(MeshError, match="^duplicate vertex coordinates$"):
        validate(m)


def test_validate_names_the_hanging_vertex_and_its_edge():
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    m = mesh_from_arrays(coords, [(0, 1, 4), (1, 2, 4), (0, 2, 3)])
    edge = [tuple(e) for e in m.edge_vertices.tolist()].index((0, 2))
    with pytest.raises(MeshError, match=f"^hanging vertex 4 on edge {edge}$"):
        validate(m)


def test_validate_rejects_a_boundary_that_is_not_one_loop():
    # two triangles touching only at vertex 0 (a bow tie)
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    m = mesh_from_arrays(coords, [(0, 1, 2), (0, 3, 4)])
    with pytest.raises(MeshError, match="^boundary is not a closed loop at vertex 0$"):
        validate(m)


@pytest.mark.parametrize("coords", [[(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)],
                                    [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)]],
                         ids=["inside", "apart"])
def test_validate_rejects_pieces_that_share_no_edge(coords):
    # A small triangle inside a large one, and two triangles apart: every
    # boundary vertex has two boundary edges, and no edge folds.
    m = mesh_from_arrays(coords, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(MeshError, match="^2 boundary loops run counterclockwise"):
        validate(m)


def test_validate_accepts_a_square_with_a_square_hole():
    # The hole's boundary loop runs clockwise.
    coords = [(0, 0), (3, 0), (3, 3), (0, 3), (1, 1), (2, 1), (2, 2), (1, 2)]
    tris = [(0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5), (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7)]
    m = mesh_from_arrays(coords, tris)
    validate(m)
    oc.validate_loop(m)
    assert m.areas.sum() == 8.0


def _validate_message(check, mesh):
    try:
        check(mesh)
    except MeshError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(["square", "lshape"]), pre=st.integers(0, 2),
       steps=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), coarse_triangles=st.booleans(),
       duplicate=st.booleans(), negative_zero=st.booleans(), repeat=st.booleans())
def test_validate_matches_loop_oracle(domain, pre, steps, seed, coarse_triangles, duplicate,
                                      negative_zero, repeat):
    # Subsets break the boundary loop; a copied vertex position and -0.0
    # coordinates test exact equality; a kept triangle listed twice folds
    # unless one of its edges is then shared by three triangles.  A mesh
    # holds only the vertices its triangles use, so the kept triangles'
    # vertices are renumbered in order.
    rng = np.random.default_rng(seed)
    coarse, fine = oc.random_descent(rng, domain, pre, steps)
    tris = (coarse if coarse_triangles else fine).tri_vertices
    keep = np.sort(rng.choice(len(tris), size=rng.integers(1, len(tris) + 1), replace=False))
    if repeat:
        keep = np.append(keep, keep[rng.integers(len(keep))])
    used, kept = np.unique(tris[keep], return_inverse=True)
    coords = fine.coords[used]
    if duplicate:
        i, j = rng.integers(0, len(coords), 2)
        coords[i] = coords[j]
    if negative_zero:
        coords[coords == 0.0] = -0.0
    try:
        mesh = mesh_from_arrays(coords, kept)
    except MeshError:
        return
    assert _validate_message(validate, mesh) == _validate_message(oc.validate_loop, mesh)


def test_mesh_from_arrays_rejects_a_vertex_on_no_triangle():
    # Such a vertex would get a free dof on no triangle, and a zero row in A.
    coords = [(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (1.0, 1.0), (0.0, 1.0)]
    with pytest.raises(MeshError, match="^vertex 2 is used by no triangle$"):
        mesh_from_arrays(coords, [(0, 1, 3), (0, 3, 4)])
    assert mesh_from_arrays(coords, [(0, 1, 3), (0, 3, 4), (1, 2, 3)]).n_vertices == 5


@pytest.mark.parametrize("bad", [5, -1])
def test_mesh_from_arrays_rejects_vertex_ids_out_of_range(bad):
    with pytest.raises(MeshError, match="vertex index out of range"):
        mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, bad)])


# -- refinement --------------------------------------------------------------


def test_refine_nothing_is_identity():
    m = build_initial_mesh("square")
    r = refine(m, [])
    assert oc.mesh_equals(r, m)
    assert r is not m


def test_single_triangle_bisection():
    m = mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    r = refine(m, [0])
    assert r.n_triangles == 2 and r.n_vertices == 4
    mid = r.coords[3]
    # children's refinement edges lie opposite the new midpoint vertex
    for t in range(2):
        k = r.tri_ref_edge[t]
        opposite = np.delete(r.tri_vertices[t], k)
        assert 3 in r.tri_vertices[t]
        assert 3 not in opposite
    assert np.all(r.areas == m.areas[0] / 2.0)
    assert mid[0] + mid[1] == pytest.approx(1.0)
    assert_conforming(r)


def test_completion_bisects_neighbour():
    # both refinement edges default to the diagonal: marking one triangle
    # puts a midpoint on the neighbour's edge, so completion splits it too
    m = build_initial_mesh("square")
    r = refine(m, [0])
    assert r.n_triangles == 4
    assert_conforming(r)
    validate(r)


def test_completion_cascades_through_incompatible_neighbour():
    # neighbour's refinement edge is a boundary leg; resolving the hanging
    # midpoint on the diagonal takes two bisections of the neighbour
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    m = Mesh(coords, [(0, 1, 2), (0, 2, 3)], [1, 0])
    r = refine(m, [0])
    assert r.n_triangles == 5
    assert_conforming(r)
    validate(r)


def test_uniform_refine_doubles_compatible_mesh():
    m = build_initial_mesh("square")
    r = uniform_refine(m)
    assert r.n_triangles == 4
    r6 = uniform_refine(build_initial_mesh("lshape"))
    assert r6.n_triangles == 12


def test_uniform_refine_twice_preserves_similarity():
    m = build_initial_mesh("square")
    r = uniform_refine(uniform_refine(m))
    assert r.n_triangles == 8
    ang = np.sort(interior_angles(r), axis=1)
    want = np.array([np.pi / 4, np.pi / 4, np.pi / 2])
    np.testing.assert_allclose(ang, np.broadcast_to(want, ang.shape), atol=1e-12)


def test_child_areas_exactly_halve():
    m = build_initial_mesh("lshape")
    r = uniform_refine(m)
    for t in range(r.n_triangles):
        parent = r.ancestors[t]
        gens = r.tri_generation[t] - m.tri_generation[parent]
        assert r.areas[t] == m.areas[parent] / 2.0**gens


def test_refinement_is_deterministic():
    m = uniform_refine(build_initial_mesh("lshape"))
    assert oc.mesh_equals(refine(m, [0, 3, 5]), refine(m, [0, 3, 5]))


def test_marked_out_of_range_errors():
    m = build_initial_mesh("square")
    with pytest.raises(MeshError):
        refine(m, [2])
    with pytest.raises(MeshError):
        refine(m, [-1])


def test_boolean_and_fractional_marks_rejected():
    m = uniform_refine(uniform_refine(build_initial_mesh("square")))
    assert m.n_triangles == 8
    mask = np.zeros(8, dtype=bool)
    only_5 = mask.copy()
    only_5[5] = True
    for bad in (mask, only_5, list(only_5), [0.9], np.array([1.0])):
        with pytest.raises(MeshError, match="integer"):
            refine(m, bad)
    assert oc.mesh_equals(refine(m, []), m)
    assert oc.mesh_equals(refine(m, range(0)), m)
    assert refine(m, range(8)).n_triangles == 16
    assert oc.mesh_equals(refine(m, [5, 5]), refine(m, np.array([5], dtype=np.uint8)))


def _triangle_records(mesh):
    corners = mesh.coords[mesh.tri_vertices].reshape(-1, 6)
    return sorted(zip(map(tuple, corners), mesh.tri_ref_edge.tolist(),
                      mesh.tri_generation.tolist(), mesh.ancestors.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    domain=st.sampled_from(["square", "lshape"]),
    relabel=st.booleans(),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_refine_matches_queue_oracle(domain, relabel, steps, seed):
    rng = np.random.default_rng(seed)
    mesh = build_initial_mesh(domain)
    if relabel:
        # Random, generally incompatible, initial refinement edges.
        ref = rng.integers(0, 3, mesh.n_triangles)
        mesh = Mesh(mesh.coords, mesh.tri_vertices, ref)
    for _ in range(steps):
        n = mesh.n_triangles
        marked = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        fine, want = refine(mesh, marked), oc.refine_queue(mesh, marked)
        assert _triangle_records(fine) == _triangle_records(want)
        np.testing.assert_array_equal(fine.coords[: mesh.n_vertices], mesh.coords)
        np.testing.assert_array_equal(want.coords[: mesh.n_vertices], mesh.coords)
        tri_edges, edge_vertices, edge_tris = oc.edge_table_loop(fine.tri_vertices)
        np.testing.assert_array_equal(fine.tri_edges, tri_edges)
        np.testing.assert_array_equal(fine.edge_vertices, edge_vertices)
        np.testing.assert_array_equal(fine.edge_tris, edge_tris)
        mesh = fine


def test_edge_shared_by_three_triangles_rejected():
    coords = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)]
    tris = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
    with pytest.raises(MeshError, match="shared by 3 triangles"):
        mesh_from_arrays(coords, tris)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_randomized_refinement_stays_conforming(domain):
    rng = np.random.default_rng(7)
    init = build_initial_mesh(domain)
    m = init
    total = init.areas.sum()
    for _ in range(5):
        n = m.n_triangles
        marked = rng.choice(n, size=max(1, n // 4), replace=False)
        m = refine(m, marked)
        validate(m)
        assert m.areas.sum() == pytest.approx(total, rel=1e-14)
    assert_conforming(m)
    assert len(angle_classes(m)) <= 8 * init.n_triangles


def test_angle_rows_sum_to_pi():
    m = uniform_refine(build_initial_mesh("lshape"))
    np.testing.assert_allclose(interior_angles(m).sum(axis=1), np.pi, atol=1e-12)


# -- partition ---------------------------------------------------------------


def test_partition_of_identical_meshes():
    m = uniform_refine(build_initial_mesh("square"))
    common, coarse_only, fine_only, anc = mesh_partition(m, m)
    assert list(common) == list(range(m.n_triangles))
    assert len(coarse_only) == 0 and len(fine_only) == 0


def test_partition_after_uniform_refinement():
    m = build_initial_mesh("square")
    f = uniform_refine(m)
    common, coarse_only, fine_only, anc = mesh_partition(m, f)
    assert len(common) == 0
    assert list(coarse_only) == [0, 1]
    assert len(fine_only) == 4
    assert len(anc) == f.n_triangles
    assert set(anc[fine_only]) == set(coarse_only)


def test_partition_when_completion_refines_everything():
    m = build_initial_mesh("square")
    f = refine(m, [0])
    common, coarse_only, fine_only, _ = mesh_partition(m, f)
    assert len(common) == 0
    assert list(coarse_only) == [0, 1]
    assert len(fine_only) == 4


def test_partition_keeps_untouched_triangles():
    m = uniform_refine(uniform_refine(build_initial_mesh("square")))
    f = refine(m, [0])
    common, coarse_only, fine_only, anc = mesh_partition(m, f)
    assert len(common) + len(coarse_only) == m.n_triangles
    for c in coarse_only:
        kids = np.nonzero(anc == c)[0]
        assert len(kids) >= 2
        assert f.areas[kids].sum() == pytest.approx(m.areas[c], rel=1e-14)


def test_partition_across_two_refinement_steps():
    # The package relates a mesh only to its one-step refinement; the
    # oracle composes the two steps into one.
    m = build_initial_mesh("square")
    f1 = uniform_refine(m)
    f = oc.reparent(m, [f1, uniform_refine(f1)])
    common, coarse_only, fine_only, _ = mesh_partition(m, f)
    assert len(common) == 0
    assert len(fine_only) == 8


def test_partition_requires_descendant():
    a = build_initial_mesh("square")
    b = build_initial_mesh("lshape")
    with pytest.raises(MeshError):
        mesh_partition(a, b)


def test_partition_rejects_a_two_step_descendant():
    # Ancestry spans one refine() call: a grandchild is refused by name,
    # not indexed with the wrong ancestor map.
    m = build_initial_mesh("square")
    with pytest.raises(MeshError, match="direct refinement"):
        mesh_partition(m, uniform_refine(uniform_refine(m)))


def test_refined_mesh_keeps_no_ancestor_alive():
    mesh = build_initial_mesh("lshape")
    initial = weakref.ref(mesh)
    for _ in range(5):
        mesh = refine(mesh, [0])
    gc.collect()
    assert initial() is None
    assert mesh.parent() is None


@settings(max_examples=40, deadline=None)
@given(
    domain=st.sampled_from(["square", "lshape"]),
    pre=st.integers(0, 2),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_descent_is_conforming_nested_and_partitioned(domain, pre, steps, seed):
    coarse, fine = oc.random_descent(np.random.default_rng(seed), domain, pre, steps)
    validate(fine)
    assert fine.areas.sum() == pytest.approx(coarse.areas.sum(), rel=1e-14)

    common, coarse_only, fine_only, anc = mesh_partition(coarse, fine)
    # Ancestry: each fine centroid lies in its ancestor, and the
    # children of every coarse triangle tile it.
    tri = coarse.triangle_coords()[anc]
    T = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=-1)
    centroid = fine.triangle_coords().mean(axis=1)
    lam = np.linalg.solve(T, (centroid - tri[:, 0])[..., None])[..., 0]
    bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
    assert np.all(bary > -1e-12)
    child_area = np.bincount(anc, weights=fine.areas, minlength=coarse.n_triangles)
    np.testing.assert_allclose(child_area, coarse.areas, rtol=1e-13)

    # The id arrays are sorted and partition both meshes.
    for ids in (common, coarse_only, fine_only):
        assert np.all(np.diff(ids) > 0)
    np.testing.assert_array_equal(np.union1d(common, coarse_only), np.arange(coarse.n_triangles))
    assert len(common) + len(coarse_only) == coarse.n_triangles
    fine_common = np.setdiff1d(np.arange(fine.n_triangles), fine_only)
    assert len(fine_common) + len(fine_only) == fine.n_triangles
    np.testing.assert_array_equal(np.sort(anc[fine_common]), common)
    assert set(anc[fine_only]) == set(coarse_only)


# -- serialization -----------------------------------------------------------


def test_mesh_file_roundtrip(tmp_path):
    m = refine(uniform_refine(build_initial_mesh("lshape")), [0, 4])
    path = tmp_path / "m.morleymesh"
    write_mesh(m, path)
    back = read_mesh(path)
    assert oc.mesh_equals(back, m)


def test_read_mesh_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.morleymesh"
    named = f"^{re.escape(str(bad))}: "  # Mesh and validate errors name the file too
    bad.write_text("not a mesh\n")
    with pytest.raises(MeshError):
        read_mesh(bad)
    bad.write_text("morleymesh 1\nvertices 1\n0 0\ntriangles 1\n0 0 0 5\n")
    with pytest.raises(MeshError):
        read_mesh(bad)
    # The unit square's two triangles and a vertex at (5, 5) that neither uses.
    bad.write_text("morleymesh 1\nvertices 5\n0 0\n1 0\n1 1\n0 1\n5 5\n"
                   "triangles 2\n0 1 2 1\n0 2 3 2\n")
    with pytest.raises(MeshError, match=named + "vertex 4 is used by no triangle$"):
        read_mesh(bad)
    for counts in ("vertices -1\ntriangles 0\n", "vertices 0\ntriangles 0\n",
                   "vertices 3\n0 0\n1 0\n0 1\ntriangles 0\n"):
        bad.write_text("morleymesh 1\n" + counts)
        with pytest.raises(MeshError, match="at least"):
            read_mesh(bad)
    # A triangle listed twice, and a third triangle folded over two others:
    # each pair lies on one side of the edge it shares.
    bad.write_text("morleymesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2 0\n0 1 2 0\n")
    with pytest.raises(MeshError, match=named + "triangles 0 and 1 overlap across edge 0$"):
        read_mesh(bad)
    bad.write_text("morleymesh 1\nvertices 4\n0 0\n1 0\n0 1\n1 1\n"
                   "triangles 3\n0 1 2 0\n1 3 2 0\n0 1 3 0\n")
    with pytest.raises(MeshError, match=named + "triangles 0 and 2 overlap across edge 2$"):
        read_mesh(bad)
    # Bytes that are not UTF-8 text.
    bad.write_bytes(bytes(np.random.default_rng(5).integers(128, 256, 300, dtype=np.uint8)))
    with pytest.raises(MeshError, match="not a text file"):
        read_mesh(bad)


def test_unreadable_mesh_file_raises_mesh_error(tmp_path):
    missing = tmp_path / "missing.morleymesh"
    with pytest.raises(MeshError, match="^cannot read mesh file .*missing.morleymesh: "):
        build_initial_mesh(str(missing))
    with pytest.raises(MeshError, match="^cannot read mesh file .*: .*directory"):
        read_mesh(tmp_path)


def test_read_mesh_rejects_truncated_file(tmp_path):
    m = uniform_refine(build_initial_mesh("square"))
    path = tmp_path / "m.morleymesh"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    for keep in (2, 2 + m.n_vertices, len(lines) - 1):
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(MeshError, match="ends after"):
            read_mesh(path)


def test_read_mesh_rejects_lines_after_the_triangles(tmp_path):
    path = tmp_path / "m.morleymesh"
    head = "morleymesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2 0\n"
    path.write_text(head + "\n")
    assert read_mesh(path).n_triangles == 1
    path.write_text(head + "1 2 0 0\n\ngarbage here\n")
    with pytest.raises(MeshError, match="unexpected line '1 2 0 0' after the last triangle"):
        read_mesh(path)
    path.write_text(head + "garbage here\n")
    with pytest.raises(MeshError, match="unexpected line 'garbage here'"):
        read_mesh(path)


def test_non_finite_coordinates_rejected(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(MeshError, match="non-finite"):
            mesh_from_arrays([(0, 0), (1, 0), (bad, 1)], [(0, 1, 2)])
    path = tmp_path / "nan.morleymesh"
    path.write_text("morleymesh 1\nvertices 3\n0 0\n1 0\nnan 1\ntriangles 1\n0 1 2 0\n")
    with pytest.raises(MeshError, match="non-finite"):
        read_mesh(path)


def test_svg_output(tmp_path):
    m = uniform_refine(build_initial_mesh("square"))
    path = tmp_path / "m.svg"
    write_svg(m, path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == m.n_triangles
