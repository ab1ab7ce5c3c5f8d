"""Independent oracles for the unit tests.

The symbolic oracles are computed with sympy in exact arithmetic and
deliberately avoid the package's own basis and assembly code paths, so
agreement is evidence rather than tautology.  ``prolongate_loop`` is the
per-entity reference for the batched ``vkmorley.morley.prolongate``,
``refine_queue`` for the array ``vkmorley.mesh.refine`` and
``edge_table_loop`` for the edge table ``Mesh`` builds,
``validate_loop`` for the array ``vkmorley.mesh.validate`` (fold
and boundary-loop checks included), and
``linearized_bracket_matrix`` assembles the matrix that
``vkmorley.forms.assemble_linearized_bracket`` applies element by
element, and ``operator_matrix`` builds the matrix of any such product
column by column.  ``dissection_order_recursive`` is the subset-at-a-time
reference for the level-synchronous ``vkmorley.solver.dissection_order``,
``triangle_bisect`` its single split, in loops over every allowed cut,
and ``median_bisect`` the median cut along the longer extent that the
order took before it searched.
``reversed_edge_space`` builds a space under the opposite edge-normal
convention, for tests that the convention stays internal,
``reparent`` composes several refinement steps into one, and
``random_descent`` draws random marked NVB refinements.
``backtrack_keep_all`` is the damping loop that kept every trial, the
reference for ``vkmorley.solver._backtrack``, and ``scipy_gmres`` calls
``scipy.sparse.linalg.gmres`` as ``vkmorley.solver._gmres`` is called.
``duality_coeffs_by_hand`` keeps the duality system's edge rows written
out monomial by monomial, and ``monomial_gradients`` the gradients of
element quadratics from a derivative table, both apart from
``vkmorley.morley.gradients``.  ``local_bases_whole`` and
``bilaplacian_whole`` build the shape data and the stiffness sum over
the whole mesh at once, as the package did before it walked the mesh in
element chunks.  The ``*_einsum``
functions keep the ``np.einsum`` forms of the per-element contractions
that the package now writes as batched ``matmul`` (quadrature points,
bilaplacian element matrices, load, oscillation, shape integrals,
element polynomials, error norms and the axiom distance), and the
``*_rows`` writers the per-entity formatting of the mesh, SVG and
estimator files that the package now builds from whole arrays.  The
``*_pointwise`` functions keep the load, the estimator's volume terms
and the oscillation as sums over data values at every quadrature point,
which the package now reads from per-element moments.  ``shape_hess``
holds every shape function's Hessian rows at once, and the ``*_stacked``
functions keep the Newton-window kernels as they handled both fields at
once, through it and broadcast products, and
``rounding_floor_whole`` the floor through one nnz-sized |A|.
``gauss_triangle_rule`` is a collapsed Gauss product rule of any degree,
the reference above the package's tabulated degrees, and
``dunavant_expand`` the hand-written permutation table that expanded
the tabulated Dunavant orbits before they came from ``itertools``;
``gauss_edge_rule`` the Gauss-Legendre edge rule of any number of points
beside the package's 3-point one, ``interpolate`` the Morley interpolant
with edge means of that many points, and
``discrete_h2_seminorm`` and ``axiom_partition_norms`` the norms that
the package forms but does not return.  ``axiom_level`` reduces a
solved level to the ``AxiomLevel`` that ``axiom_check`` reads.  ``free_space`` renumbers a space
with every dof free, boundary ones too.  ``zero_state``
is the zero deflection/stress pair.  ``evaluate``,
``interior_angles`` and ``mesh_equals`` are inspection tools for
fields and meshes.  ``load_data`` builds a ``ProblemData`` from separate
f and g.  ``EXACT_FIELDS`` holds the exact u, v and bilaplacians of the
registry's manufactured pairs, which the solver never reads, and
``check_problem`` checks a registry entry's exact derivatives and loads
against them.
"""

import copy
import csv
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
import sympy as sp

from vkmorley.adaptivity import AxiomLevel
from vkmorley.estimator import restrict_estimator
from vkmorley.forms import ProblemData, frobenius_weighted, vk_bracket
from vkmorley.mesh import (
    _LOCAL_EDGES,
    _SVG_WIDTH,
    Mesh,
    MeshError,
    build_initial_mesh,
    ancestor_map,
    mesh_partition,
    refine,
    uniform_refine,
)
from vkmorley.morley import _DUALITY_TOL, MorleyField, build_space, gradients, hessians, monomials
from vkmorley.morley import interpolate as morley_interpolate
from vkmorley.problems import _poly_axis, _trig_axis
from vkmorley.quadrature import TriangleRule, triangle_rule
from vkmorley.solver import _GMRES_CYCLES, _ND_LEAF

X, Y = sp.symbols("x y")
MONOMIALS = (sp.Integer(1), X, Y, X**2, X * Y, Y**2)


def triangle_area(coords):
    (x0, y0), (x1, y1), (x2, y2) = coords
    return sp.Rational(1, 2) * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def edge_normal(coords, k):
    """Unit normal of the edge opposite vertex k.

    Orientation follows the global convention: the edge runs from its
    lower-index endpoint to the higher one, and the normal is the
    tangent rotated a quarter turn counterclockwise.
    """
    i, j = sorted({0, 1, 2} - {k})
    ax, ay = coords[i]
    bx, by = coords[j]
    dx, dy = bx - ax, by - ay
    length = sp.sqrt(dx * dx + dy * dy)
    return sp.simplify(-dy / length), sp.simplify(dx / length)


def morley_basis(coords):
    """Six local shape functions on one triangle, as sympy expressions.

    Degrees of freedom: values at the three vertices, then the mean
    normal derivative over the edge opposite each vertex.
    """
    coords = [(sp.nsimplify(p[0]), sp.nsimplify(p[1])) for p in coords]
    t = sp.symbols("t")
    rows = []
    for k in range(3):
        px, py = coords[k]
        rows.append([m.subs({X: px, Y: py}) for m in MONOMIALS])
    for k in range(3):
        i, j = sorted({0, 1, 2} - {k})
        ax, ay = coords[i]
        bx, by = coords[j]
        nx, ny = edge_normal(coords, k)
        row = []
        for m in MONOMIALS:
            nd = sp.diff(m, X) * nx + sp.diff(m, Y) * ny
            on_edge = nd.subs({X: ax + t * (bx - ax), Y: ay + t * (by - ay)})
            row.append(sp.integrate(sp.expand(on_edge), (t, 0, 1)))
        rows.append(row)
    D = sp.Matrix(rows)
    C = D.inv()
    return [
        sp.expand(sum(C[m, i] * MONOMIALS[m] for m in range(6))) for i in range(6)
    ]


def integrate_triangle(expr, coords):
    """Exact integral of expr(x, y) over the triangle."""
    coords = [(sp.nsimplify(p[0]), sp.nsimplify(p[1])) for p in coords]
    u, v = sp.symbols("u v")
    (x0, y0), (x1, y1), (x2, y2) = coords
    xm = x0 + u * (x1 - x0) + v * (x2 - x0)
    ym = y0 + u * (y1 - y0) + v * (y2 - y0)
    jac = sp.Abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    inner = sp.integrate(sp.expand(expr.subs({X: xm, Y: ym})), (u, 0, 1 - v))
    return sp.integrate(inner, (v, 0, 1)) * jac


def hessian(expr):
    return (
        sp.diff(expr, X, 2),
        sp.diff(expr, X, Y),
        sp.diff(expr, Y, 2),
    )


def biharmonic_entry(phi, psi, coords):
    """Exact full-Hessian inner product of two polynomials over a triangle."""
    hxx1, hxy1, hyy1 = hessian(phi)
    hxx2, hxy2, hyy2 = hessian(psi)
    integrand = hxx1 * hxx2 + 2 * hxy1 * hxy2 + hyy1 * hyy2
    return integrate_triangle(integrand, coords)


def monomial_integral_reference(a, b):
    """Exact integral of x^a y^b over the unit reference triangle."""
    return sp.Rational(
        sp.factorial(a) * sp.factorial(b), sp.factorial(a + b + 2)
    )


def prolongate_loop(coarse_field, fine_space):
    """Coarse-to-fine Morley transfer, one fine vertex and edge at a time.

    Each fine dof is the mean, over the distinct coarse ancestors of its
    incident fine triangles taken in ascending id order, of the coarse
    value (vertices) or the coarse normal derivative at the midpoint
    (edges).
    """
    cspace = coarse_field.space
    cmesh = cspace.mesh
    fmesh = fine_space.mesh
    if fmesh is cmesh:
        return MorleyField(fine_space, coarse_field.coeffs.copy())
    anc = ancestor_map(cmesh, fmesh)
    polys = cspace.element_polys(coarse_field.coeffs)

    vert_tris = [[] for _ in range(fmesh.n_vertices)]
    for t in range(fmesh.n_triangles):
        for v in fmesh.tri_vertices[t]:
            vert_tris[v].append(t)

    coeffs = np.zeros(fine_space.n_dofs)

    for v in np.nonzero(fine_space.vertex_dof >= 0)[0]:
        ancestors = sorted({int(anc[t]) for t in vert_tris[v]})
        pt = fmesh.coords[v]
        total = 0.0
        for a in ancestors:
            total += float(cspace.poly_values(a, polys[a], pt[None, :])[0])
        coeffs[fine_space.vertex_dof[v]] = total / len(ancestors)

    for e in np.nonzero(fine_space.edge_dof >= 0)[0]:
        tris = [int(t) for t in fmesh.edge_tris[e] if t >= 0]
        ancestors = sorted({int(anc[t]) for t in tris})
        mid = 0.5 * (
            fmesh.coords[fmesh.edge_vertices[e, 0]] + fmesh.coords[fmesh.edge_vertices[e, 1]]
        )
        nu = fmesh.edge_normal[e]
        total = 0.0
        for a in ancestors:
            total += float(cspace.poly_gradients(a, polys[a], mid[None, :])[0] @ nu)
        coeffs[fine_space.edge_dof[e]] = total / len(ancestors)

    return MorleyField(fine_space, coeffs)


def refine_queue(mesh, marked):
    """Newest-vertex bisection one triangle at a time, with a work queue.

    The per-entity reference for ``vkmorley.mesh.refine``: marked
    triangles are bisected at their refinement edge, and a completion
    queue bisects any triangle with a hanging midpoint on one of its
    edges until none is left.  Vertices and triangles are appended in
    the order the queue creates them.
    """
    marked_set = set(int(t) for t in marked)
    marked = sorted(marked_set)
    if marked and (marked[0] < 0 or marked[-1] >= mesh.n_triangles):
        raise MeshError("marked triangle id out of range")
    if not marked:
        return Mesh(
            mesh.coords.copy(),
            mesh.tri_vertices.copy(),
            mesh.tri_ref_edge.copy(),
            mesh.tri_generation.copy(),
            np.arange(mesh.n_triangles, dtype=np.int64),
            parent=mesh,
        )

    verts: list[tuple[float, float]] = [tuple(p) for p in mesh.coords]
    tri_v: list[tuple[int, int, int]] = [tuple(v) for v in mesh.tri_vertices]
    tri_r: list[int] = [int(r) for r in mesh.tri_ref_edge]
    tri_g: list[int] = [int(g) for g in mesh.tri_generation]
    tri_a: list[int] = list(range(mesh.n_triangles))
    alive: list[bool] = [True] * mesh.n_triangles

    edge_map: dict[tuple[int, int], list[int]] = {}
    for t, (v0, v1, v2) in enumerate(tri_v):
        for p, q in ((v1, v2), (v2, v0), (v0, v1)):
            key = (p, q) if p < q else (q, p)
            edge_map.setdefault(key, []).append(t)

    midpoint: dict[tuple[int, int], int] = {}
    queue: deque[int] = deque(marked)
    budget = 64 * (mesh.n_triangles + len(marked) + 16)
    nbisect = 0

    def hanging(t: int) -> bool:
        v0, v1, v2 = tri_v[t]
        for p, q in ((v1, v2), (v2, v0), (v0, v1)):
            key = (p, q) if p < q else (q, p)
            if key in midpoint:
                return True
        return False

    def bisect(t: int) -> None:
        nonlocal nbisect
        nbisect += 1
        k = tri_r[t]
        v = tri_v[t]
        r, p, q = v[k], v[(k + 1) % 3], v[(k + 2) % 3]
        key = (p, q) if p < q else (q, p)
        m = midpoint.get(key)
        if m is None:
            xp, yp = verts[p]
            xq, yq = verts[q]
            verts.append(((xp + xq) / 2.0, (yp + yq) / 2.0))
            m = len(verts) - 1
            midpoint[key] = m
        alive[t] = False
        for a, b in ((v[1], v[2]), (v[2], v[0]), (v[0], v[1])):
            ekey = (a, b) if a < b else (b, a)
            edge_map[ekey].remove(t)
        gen = tri_g[t] + 1
        anc = tri_a[t]
        for child_v, child_r in (((r, p, m), 2), ((r, m, q), 1)):
            c = len(tri_v)
            tri_v.append(child_v)
            tri_r.append(child_r)
            tri_g.append(gen)
            tri_a.append(anc)
            alive.append(True)
            for a, b in (
                (child_v[1], child_v[2]),
                (child_v[2], child_v[0]),
                (child_v[0], child_v[1]),
            ):
                ekey = (a, b) if a < b else (b, a)
                edge_map.setdefault(ekey, []).append(c)
            if hanging(c):
                queue.append(c)
        for n in list(edge_map[key]):
            if alive[n]:
                queue.append(n)

    while queue:
        t = queue.popleft()
        if not alive[t]:
            continue
        if t >= mesh.n_triangles or t not in marked_set:
            # Completion entry: bisect only while a hanging vertex remains.
            if not hanging(t):
                continue
        if nbisect >= budget:
            raise MeshError("refinement closure did not terminate")
        bisect(t)

    keep = [t for t in range(len(tri_v)) if alive[t]]
    tv = np.asarray([tri_v[t] for t in keep], dtype=np.int64)
    return Mesh(
        np.asarray(verts, dtype=float),
        tv,
        np.asarray([tri_r[t] for t in keep], dtype=np.int64),
        np.asarray([tri_g[t] for t in keep], dtype=np.int64),
        np.asarray([tri_a[t] for t in keep], dtype=np.int64),
        parent=mesh,
    )


def edge_table_loop(tri_vertices):
    """``Mesh`` topology built with a dict, one (triangle, local edge) at a time.

    Returns (tri_edges, edge_vertices, edge_tris) with edges numbered by
    first occurrence and endpoints sorted, the reference for
    ``Mesh._build_topology``.
    """
    edge_ids = {}
    edge_pairs = []
    edge_adj = []
    tri_edges = np.empty((len(tri_vertices), 3), dtype=np.int64)
    for t, (v0, v1, v2) in enumerate(tri_vertices):
        for k, (p, q) in enumerate(((v1, v2), (v2, v0), (v0, v1))):
            key = (int(p), int(q)) if p < q else (int(q), int(p))
            e = edge_ids.get(key)
            if e is None:
                e = len(edge_pairs)
                edge_ids[key] = e
                edge_pairs.append(key)
                edge_adj.append([])
            edge_adj[e].append(t)
            tri_edges[t, k] = e
    edge_tris = np.full((len(edge_pairs), 2), -1, dtype=np.int64)
    for e, adj in enumerate(edge_adj):
        edge_tris[e, : len(adj)] = adj
    return tri_edges, np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2), edge_tris


def linearized_bracket_matrix(space, state):
    """Assembled 2n x 2n linearized bracket, through COO triplets.

    Row blocks are test functions (p, q), column blocks the direction
    (du, dv); each element adds SI_K (x) br_K outer products, with the
    constrained slots dropped.
    """
    n = space.n_dofs
    SI = space.shape_integral
    br_u = vk_bracket(space.element_hessians(state.u.coeffs)[:, None, :], shape_hess(space))
    br_v = vk_bracket(space.element_hessians(state.v.coeffs)[:, None, :], shape_hess(space))
    dm = space.dof_map
    rows = np.broadcast_to(dm[:, :, None], (len(dm), 6, 6))
    cols = np.broadcast_to(dm[:, None, :], (len(dm), 6, 6))
    mask = (rows >= 0) & (cols >= 0)
    blocks = (
        (0, 0, -np.einsum("ti,tj->tij", SI, br_v)),
        (0, n, -np.einsum("ti,tj->tij", SI, br_u)),
        (n, 0, np.einsum("ti,tj->tij", SI, br_u)),
    )
    r = np.concatenate([rows[mask] + ro for ro, _, _ in blocks])
    c = np.concatenate([cols[mask] + co for _, co, _ in blocks])
    vals = np.concatenate([local[mask] for _, _, local in blocks])
    return sparse.coo_matrix((vals, (r, c)), shape=(2 * n, 2 * n)).tocsr()


def operator_matrix(matvec, size):
    """The dense size x size matrix of a product x -> Mx, applied to each
    unit vector in turn."""
    return np.column_stack([matvec(e) for e in np.eye(size)])


def split_sides(space, left, right, numbered):
    """(L, R, S) of a cut into triangles left and right: the sorted dofs not
    yet numbered (numbered, a mask over every dof) on triangles of the left
    half only, of the right half only, and of both halves."""
    on_left, on_right = (set(space.dof_map[side].ravel()) for side in (left, right))
    return tuple(np.array(sorted(d for d in dofs if d >= 0 and not numbered[d]), dtype=np.int64)
                 for dofs in (on_left - on_right, on_right - on_left, on_left & on_right))


def cut_ratio(space, left, right, numbered):
    """A cut's ratio |S| / min(|L|, |R|) as the pair (|S|, min(|L|, |R|))."""
    only_left, only_right, separator = split_sides(space, left, right, numbered)
    return len(separator), min(len(only_left), len(only_right))


def lower_ratio(a, b):
    """Whether the ratio a = (s, m) is below b, as integer products; a ratio
    with m = 0 is above every other."""
    return a[1] > 0 and (b[1] == 0 or a[0] * b[1] < b[0] * a[1])


def triangle_bisect(space, tris, numbered):
    """Split a triangle subset into (left, right, separator) at its best cut.

    On each of four centroid projections, x + y, x - y, x and y, the
    triangles are ranked, ties by triangle id, and a cut takes the first k
    as the left half.  Of the cuts within m // 5 of the median m // 2 of
    the m triangles, tried nearest the median first, then on the
    projections in that order, then the smaller k first, the first with
    the least ``cut_ratio`` is taken.
    """
    tris = np.sort(tris)
    x, y = space.centers[tris, 0], space.centers[tris, 1]
    half, spread = len(tris) // 2, len(tris) // 5
    best = None
    for dist in range(spread + 1):
        for key in (x + y, x - y, x, y):
            ranked = tris[np.argsort(key, kind="stable")]
            for k in sorted({half - dist, half + dist}):
                ratio = cut_ratio(space, ranked[:k], ranked[k:], numbered)
                if best is None or lower_ratio(ratio, best[0]):
                    best = ratio, ranked[:k], ranked[k:]
    _, left, right = best
    return left, right, split_sides(space, left, right, numbered)[2]


def median_bisect(space, tris, numbered):
    """The median cut: the triangles are sorted stably by centroid along the
    longer extent of their centroids and cut at the median triangle.
    Returns (left, right, separator) as ``triangle_bisect`` does."""
    pts = space.centers[tris]
    axis = int(np.ptp(pts[:, 1]) > np.ptp(pts[:, 0]))
    ranked = tris[np.argsort(pts[:, axis], kind="stable")]
    half = len(tris) // 2
    left, right = ranked[:half], ranked[half:]
    return left, right, split_sides(space, left, right, numbered)[2]


def open_dofs(space, tris, numbered):
    """The sorted dofs on triangles tris that are not yet numbered."""
    dofs = np.unique(space.dof_map[tris])
    dofs = dofs[dofs >= 0]
    return dofs[~numbered[dofs]]


def dissection_order_recursive(space):
    """Nested dissection one triangle subset at a time: the left half's
    dofs, the right half's, then the separator, recursively, down to
    leaves of at most ``_ND_LEAF`` dofs."""
    numbered = np.zeros(space.n_dofs, dtype=bool)
    pieces = []

    def order(tris):
        dofs = open_dofs(space, tris, numbered)
        if len(dofs) <= _ND_LEAF:
            numbered[dofs] = True
            pieces.append(dofs)
            return
        left, right, separator = triangle_bisect(space, tris, numbered)
        numbered[separator] = True
        order(left)
        order(right)
        pieces.append(separator)

    order(np.arange(space.mesh.n_triangles))
    return np.concatenate(pieces)


def validate_loop(mesh):
    """Per-entity ``validate``: a coordinate dict, then loops over edges."""
    index = {(float(x), float(y)): i for i, (x, y) in enumerate(mesh.coords)}
    if len(index) != mesh.n_vertices:
        raise MeshError("duplicate vertex coordinates")
    for e in range(mesh.n_edges):
        p, q = mesh.edge_vertices[e]
        mid = (
            (mesh.coords[p, 0] + mesh.coords[q, 0]) / 2.0,
            (mesh.coords[p, 1] + mesh.coords[q, 1]) / 2.0,
        )
        if mid in index:
            raise MeshError(f"hanging vertex {index[mid]} on edge {e}")
    counts = np.zeros(mesh.n_vertices, dtype=int)
    for e in np.nonzero(mesh.edge_is_boundary)[0]:
        counts[mesh.edge_vertices[e]] += 1
    bad = np.nonzero((counts != 0) & (counts != 2))[0]
    if len(bad):
        raise MeshError(f"boundary is not a closed loop at vertex {int(bad[0])}")
    for e in np.nonzero(~mesh.edge_is_boundary)[0]:
        # The directed edge each of its two triangles runs along, counterclockwise.
        runs = []
        for t in mesh.edge_tris[e]:
            k = list(mesh.tri_edges[t]).index(e)
            runs.append(tuple(mesh.tri_vertices[t, _LOCAL_EDGES[k]]))
        if runs[0] == runs[1]:
            t0, t1 = mesh.edge_tris[e]
            raise MeshError(f"triangles {t0} and {t1} overlap across edge {e}")
    # Walk each boundary loop along the way its triangles run, summing its
    # shoelace terms.
    step = {}
    for e in np.nonzero(mesh.edge_is_boundary)[0]:
        t = mesh.edge_tris[e, 0]
        k = list(mesh.tri_edges[t]).index(e)
        p, q = mesh.tri_vertices[t, _LOCAL_EDGES[k]]
        step[int(p)] = int(q)
    counterclockwise = 0
    while step:
        p, twice_area = next(iter(step)), 0.0
        while p in step:
            q = step.pop(p)
            (xp, yp), (xq, yq) = mesh.coords[p], mesh.coords[q]
            twice_area += xp * yq - xq * yp
            p = q
        counterclockwise += twice_area > 0.0
    if counterclockwise > 1:
        raise MeshError(f"{counterclockwise} boundary loops run counterclockwise: the mesh has "
                        "pieces that overlap or lie apart")


def free_space(mesh):
    """The Morley space on mesh renumbered with every vertex and edge dof
    free, boundary ones too: vertices first, then edges, in id order."""
    space = build_space(mesh)
    nv = mesh.n_vertices
    space.vertex_dof = np.arange(nv)
    space.edge_dof = nv + np.arange(mesh.n_edges)
    space.n_dofs = nv + mesh.n_edges
    space.dof_map = np.concatenate([space.vertex_dof[mesh.tri_vertices],
                                    space.edge_dof[mesh.tri_edges]], axis=1)
    return space


def zero_state(space):
    """The zero deflection/stress pair on a space."""
    n = space.n_dofs
    return MorleyField(space, np.zeros((2, n)))


def reversed_edge_space(mesh):
    """Morley space on a shallow copy of mesh with every edge reversed.

    The copy's edge normals and tangents are negated; mesh itself is
    left untouched.
    """
    flipped = copy.copy(mesh)
    flipped.edge_normal = -mesh.edge_normal
    flipped.edge_tangent = -mesh.edge_tangent
    return build_space(flipped)


def reparent(coarse, meshes):
    """The last of ``meshes`` rebuilt as a direct refinement of ``coarse``.

    ``meshes`` are successive refine() results starting from ``coarse``;
    the rebuilt mesh maps each triangle to its ancestor in ``coarse`` and
    has ``coarse`` as its parent, so the package's one-step ancestry
    relates the two.  No meshes: ``coarse`` itself.
    """
    if not meshes:
        return coarse
    fine, anc = coarse, np.arange(coarse.n_triangles, dtype=np.int64)
    for child in meshes:
        fine, anc = child, anc[ancestor_map(fine, child)]
    return Mesh(fine.coords, fine.tri_vertices, fine.tri_ref_edge, fine.tri_generation, anc,
                parent=coarse)


def random_descent(rng, domain, pre, steps):
    """A coarse mesh and a descendant after ``steps`` random marked refinements,
    reparented onto the coarse mesh (``reparent``)."""
    coarse = build_initial_mesh(domain)
    for _ in range(pre):
        coarse = uniform_refine(coarse)
    meshes = []
    for _ in range(steps):
        fine = meshes[-1] if meshes else coarse
        n = fine.n_triangles
        meshes.append(refine(fine, rng.choice(n, size=rng.integers(1, n + 1), replace=False)))
    return coarse, reparent(coarse, meshes)


def evaluate(field, t, points, tol=1e-10):
    """Evaluate a Morley field inside one triangle.

    Returns (values, gradients, hessian) where hessian is the constant
    (hxx, hxy, hyy) row of the element.  Points outside the triangle
    (barycentric coordinate below -tol) raise ValueError.
    """
    space = field.space
    mesh = space.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tri = mesh.coords[mesh.tri_vertices[t]]
    T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    lam12 = np.linalg.solve(T, (pts - tri[0]).T).T
    bary = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
    if np.any(bary < -tol):
        raise ValueError(f"point outside triangle {t}")

    polys = space.element_polys(field.coeffs)[t]
    val = space.poly_values(t, polys, pts)
    grad = space.poly_gradients(t, polys, pts)
    hess = space.element_hessians(field.coeffs)[t]
    if np.ndim(points) == 1:
        return val[0], grad[0], hess
    return val, grad, hess


def interior_angles(mesh):
    """All interior angles in radians, shape (ntri, 3)."""
    pts = mesh.triangle_coords()
    out = np.empty((mesh.n_triangles, 3))
    for k in range(3):
        u = pts[:, (k + 1) % 3] - pts[:, k]
        v = pts[:, (k + 2) % 3] - pts[:, k]
        dot = np.einsum("ij,ij->i", u, v)
        cr = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        out[:, k] = np.arctan2(np.abs(cr), dot)
    return out


def mesh_equals(a, b):
    """Bit-identical coordinates and connectivity (ancestry ignored)."""
    return (
        a.coords.shape == b.coords.shape
        and np.array_equal(a.coords, b.coords)
        and np.array_equal(a.tri_vertices, b.tri_vertices)
        and np.array_equal(a.tri_ref_edge, b.tri_ref_edge)
    )


def load_data(f, g=None, **options):
    """ProblemData whose loads evaluate the separate callables f and g
    (None for a zero g)."""
    return ProblemData(lambda x, y: (f(x, y), None if g is None else g(x, y)), **options)


def _separable_fields(axis):
    """u = v = S(x) S(y) and their bilaplacian, from the axis factors
    (S, S1, S2, S4) of ``vkmorley.problems``."""
    def u(x, y):
        return axis(x)[0] * axis(y)[0]

    def lap2(x, y):
        (S, _, S2, S4), (T, _, T2, T4) = axis(x), axis(y)
        return S4 * T + 2.0 * S2 * T2 + S * T4

    return SimpleNamespace(u=u, v=u, lap2_u=lap2, lap2_v=lap2)


EXACT_FIELDS = {"square-poly": _separable_fields(_poly_axis),
                "square-trig": _separable_fields(_trig_axis),
                "biharm-linear": _separable_fields(_poly_axis)}


def check_problem(problem, n_samples=64, seed=7):
    """Max strong-residual and boundary defect of the exact data.

    Returns the largest absolute defect found; raises nothing.  Only
    meaningful for problems with an exact solution.
    """
    if problem.exact is None:
        return 0.0
    rng = np.random.default_rng(seed)
    if problem.domain == "square":
        x = rng.uniform(0.05, 0.95, n_samples)
        y = rng.uniform(0.05, 0.95, n_samples)
    else:
        raise ValueError(f"no sampler for domain {problem.domain!r}")
    ex = EXACT_FIELDS[problem.name]
    _, (uxx, uxy, uyy), _, (vxx, vxy, vyy) = problem.exact(x, y)
    if problem.data.include_bracket:
        br_uv = uxx * vyy + uyy * vxx - 2.0 * uxy * vxy
        br_uu = 2.0 * (uxx * uyy - uxy**2)
    else:
        br_uv = br_uu = np.zeros_like(x)
    f, g = problem.data.loads(x, y)
    r1 = ex.lap2_u(x, y) - br_uv - f
    gv = g if g is not None else 0.0
    r2 = ex.lap2_v(x, y) + 0.5 * br_uu - gv
    defect = max(float(np.abs(r1).max()), float(np.abs(r2).max()))

    # Clamped data on the boundary of the unit square.
    s = rng.uniform(0.0, 1.0, n_samples)
    zero = np.zeros_like(s)
    one = np.ones_like(s)
    for bx, by in ((s, zero), (s, one), (zero, s), (one, s)):
        defect = max(defect, float(np.abs(ex.u(bx, by)).max()))
        gx, gy = problem.exact(bx, by)[0]
        defect = max(defect, float(np.abs(gx).max()), float(np.abs(gy).max()))
    return defect


# -- both-field references for the Newton-window kernels ---------------------


def shape_hess(space):
    """(nt, 6, 3): one Hessian row per shape function, from the space's coefficients."""
    return hessians(np.swapaxes(space.coeffs, 1, 2), space.scales[:, None])


def element_hessians_stacked(space, coeffs):
    return hessians(space.element_polys(coeffs), space.scales)


def bracket_rows_stacked(space, Hw):
    """[w, shape_j] (nt, 6) against every row of ``shape_hess`` at once."""
    return vk_bracket(Hw[:, None, :], shape_hess(space))


def linearized_bracket_stacked(state, x):
    space, n = state.space, state.space.n_dofs
    SI = space.shape_integral
    H = element_hessians_stacked(space, state.coeffs)
    br_u, br_v = vk_bracket(H[..., None, :], shape_hess(space))
    du, dv = space.gather(np.reshape(x, (2, n)))
    p = -np.einsum("tj,tj->t", br_v, du) - np.einsum("tj,tj->t", br_u, dv)
    q = np.einsum("tj,tj->t", br_u, du)
    return np.concatenate([space.scatter(w[:, None] * SI) for w in (p, q)])


def residual_stacked(state, data, A, load):
    space, C = state.space, state.coeffs
    r = (A @ C.T).T.ravel() - load
    if data.include_bracket:
        Hu, Hv = element_hessians_stacked(space, C)
        br = np.stack([-vk_bracket(Hu, Hv), 0.5 * vk_bracket(Hu, Hu)])
        r += space.scatter(br[..., None] * space.shape_integral).ravel()
    return r


def edge_terms_stacked(mesh, H):
    """``vkmorley.estimator._edge_terms`` on the (2, nt, 3) block of both fields."""
    tau = mesh.edge_tangent
    t0, t1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    inner = t1 >= 0
    H0, H1 = H[:, t0], H[:, np.where(inner, t1, 0)]
    jx0 = H0[..., 0] * tau[:, 0] + H0[..., 1] * tau[:, 1]
    jy0 = H0[..., 1] * tau[:, 0] + H0[..., 2] * tau[:, 1]
    jx1 = np.where(inner, H1[..., 0] * tau[:, 0] + H1[..., 1] * tau[:, 1], 0.0)
    jy1 = np.where(inner, H1[..., 1] * tau[:, 0] + H1[..., 2] * tau[:, 1], 0.0)
    jump_sq = ((jx0 - jx1) ** 2 + (jy0 - jy1) ** 2).sum(axis=0)
    return np.sqrt(mesh.areas) * (mesh.edge_length * jump_sq)[mesh.tri_edges].sum(axis=1)


def rounding_floor_whole(A, load, x):
    absA = type(A)((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    ax = (absA @ np.abs(np.reshape(x, (2, -1)).T)).T.ravel()
    return np.finfo(float).eps * float(np.linalg.norm(ax + np.abs(load)))


# -- einsum references for the batched matmul kernels ------------------------

FROB = np.array([1.0, 2.0, 1.0])


def gauss_triangle_rule(degree):
    """A collapsed (Duffy) Gauss-Legendre product rule exact to degree, as a
    ``TriangleRule``: x = s, y = t (1 - s) maps the unit square onto the
    reference triangle, and (degree + 3) // 2 points per axis integrate
    the degree + 1 polynomial in s that the Jacobian 1 - s makes of it."""
    nodes, w = np.polynomial.legendre.leggauss((degree + 3) // 2)
    s, t = np.meshgrid(0.5 * (nodes + 1.0), 0.5 * (nodes + 1.0), indexing="ij")
    x, y = s.ravel(), (t * (1.0 - s)).ravel()
    weights = 0.5 * np.outer(w, w).ravel() * (1.0 - s.ravel())
    return TriangleRule(degree, np.stack([1.0 - x - y, x, y], axis=1), weights)


def dunavant_expand(subpoints, subweights):
    """Expand compressed (a, b, c)/weight pairs into full point sets by a
    hand-written table: a triple with b == c generates its 3 cyclic
    permutations, a triple with distinct entries all 6."""
    bary = []
    weights = []
    for (a, b, c), w in zip(subpoints, subweights):
        if abs(b - c) < 1e-14:
            perms = [(a, b, b), (b, a, b), (b, b, a)]
        else:
            perms = [
                (a, b, c), (a, c, b), (b, a, c),
                (b, c, a), (c, a, b), (c, b, a),
            ]
        for p in perms:
            bary.append(p)
            weights.append(w)
    return np.asarray(bary, dtype=float), np.asarray(weights, dtype=float)


def gauss_edge_rule(npoints):
    """Gauss-Legendre nodes and weights on [0, 1], weights summing to 1,
    exact to degree 2 npoints - 1."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


def interpolate(space, v, grad, edge_points):
    """``vkmorley.morley.interpolate`` with each edge mean taken by the
    edge_points-point ``gauss_edge_rule``: 5 points integrate the edge
    trace of grad exactly when v is a polynomial of degree <= 10."""
    field, mesh = morley_interpolate(space, v, grad), space.mesh
    eidx = np.nonzero(space.edge_dof >= 0)[0]
    a, b = (mesh.coords[mesh.edge_vertices[eidx, k]] for k in (0, 1))
    mean = np.zeros(len(eidx))
    for t, w in zip(*gauss_edge_rule(edge_points)):
        p = a + t * (b - a)
        gx, gy = grad(p[:, 0], p[:, 1])
        mean += w * (gx * mesh.edge_normal[eidx, 0] + gy * mesh.edge_normal[eidx, 1])
    field.coeffs[space.edge_dof[eidx]] = mean
    return field


def discrete_h2_seminorm(state):
    """Piecewise H2 seminorm of a state's (u, v), both fields together."""
    H = state.space.element_hessians(state.coeffs)
    return float(np.sqrt(np.einsum("tc,c,t->", H[0]**2 + H[1]**2, FROB, state.space.mesh.areas)))


def axiom_level(arts):
    """The ``AxiomLevel`` of a solved level: its mesh, the (2, nt, 3) element
    Hessians of its state and its indicators."""
    return AxiomLevel(arts.mesh, arts.space.element_hessians(arts.state.coeffs), arts.report)


def axiom_partition_norms(coarse, fine, key="eta_sq"):
    """sqrt of a report's key summed, as ``axiom_check`` sums it, over the
    coarse and the fine triangles that refinement kept, then over those it
    refined and their children: (common coarse, common fine, refined
    coarse, refined fine)."""
    common, coarse_only, fine_only, _ = mesh_partition(coarse.mesh, fine.mesh)
    fine_common = np.setdiff1d(np.arange(fine.mesh.n_triangles), fine_only)
    return tuple(float(np.sqrt(restrict_estimator(level.report, ids)[key]))
                 for level, ids in ((coarse, common), (fine, fine_common),
                                    (coarse, coarse_only), (fine, fine_only)))


def triangle_points_einsum(rule, coords):
    return np.einsum("qk,tkd->tqd", rule.bary, coords)


def bilaplacian_elements_einsum(space):
    H = shape_hess(space)
    return np.einsum("tic,tjc,c,t->tij", H, H, FROB, space.mesh.areas)


def _local_points(space, rule):
    pts = triangle_points_einsum(rule, space.mesh.triangle_coords())
    return pts, space.local_coords(np.arange(space.mesh.n_triangles)[:, None], pts)


def load_einsum(space, data):
    rule = triangle_rule(data.quad_degree)
    pts, xi = _local_points(space, rule)
    shapes = np.einsum("tqm,tmi->tqi", monomials(xi), space.coeffs)
    warea = rule.weights[None, :] * space.mesh.areas[:, None]
    return np.concatenate([
        np.zeros(space.n_dofs) if values is None else
        space.scatter(np.einsum("tq,tq,tqi->ti", warea, values, shapes))
        for values in data.loads(pts[..., 0], pts[..., 1])])


def oscillation_einsum(space, func, order, quad_degree=4):
    rule = triangle_rule(max(quad_degree, 2 * order))
    pts, xi = _local_points(space, rule)
    fv = func(pts[..., 0], pts[..., 1])
    wts = rule.weights[None, :]
    basis = monomials(xi)[..., :{0: 1, 1: 3, 2: 6}[order]]
    M = np.einsum("tq,tqi,tqj->tij", wts, basis, basis)
    rhs = np.einsum("tq,tq,tqi->ti", wts, fv, basis)
    coef = np.linalg.solve(M, rhs[..., None])[..., 0]
    resid = np.einsum("tq,tq,tq->t", wts, fv, fv) - np.einsum("ti,ti->t", coef, rhs)
    np.clip(resid, 0.0, None, out=resid)
    return space.mesh.areas**3 * resid


def shape_integral_einsum(space):
    mesh = space.mesh
    xi_m = space.local_coords(np.arange(mesh.n_triangles)[:, None],
                              space._midpoints[mesh.tri_edges])
    vals = np.einsum("tkj,tji->tki", monomials(xi_m), space.coeffs)
    return (mesh.areas[:, None] / 3.0) * vals.sum(axis=1)


def element_polys_einsum(space, coeffs):
    return np.einsum("tij,...tj->...ti", space.coeffs, space.gather(coeffs))


def energy_norms_einsum(space, state, exact):
    rule = triangle_rule(6)
    pts = triangle_points_einsum(rule, space.mesh.triangle_coords())
    x, y = pts[..., 0], pts[..., 1]
    warea = rule.weights[None, :] * space.mesh.areas[:, None]
    polys = element_polys_einsum(space, state.coeffs)
    H = hessians(polys, space.scales)
    G = monomial_gradients(polys, space, pts)
    du, d2u, dv, d2v = exact(x, y)
    err2 = errh1 = 0.0
    for Hk, Gk, d1, d2 in zip(H, G, (du, dv), (d2u, d2v)):
        diff = np.stack(d2, axis=-1) - Hk[:, None, :]
        err2 += np.einsum("tqc,c,tq->", diff**2, FROB, warea)
        gdiff = np.stack(d1, axis=-1) - Gk
        errh1 += np.einsum("tqc,tq->", gdiff**2, warea)
    return float(np.sqrt(err2)), float(np.sqrt(errh1))


def monomial_gradients(polys, space, pts):
    """Physical gradients (..., nt, q, 2) of centred element quadratics
    (..., nt, 6) at points (nt, q, 2), contracted against the derivative
    table of (1, x, y, x^2, xy, y^2) rather than through the package."""
    h = space.scales[:, None]
    x, y = ((pts - space.centers[:, None, :]) / h[..., None]).transpose(2, 0, 1)
    zero, one = np.zeros_like(x), np.ones_like(x)
    dx = np.stack([zero, one, zero, 2.0 * x, y, zero], axis=-1)
    dy = np.stack([zero, zero, one, zero, x, 2.0 * y], axis=-1)
    return np.stack([np.einsum("...ti,tqi->...tq", polys, d) / h for d in (dx, dy)], axis=-1)


def duality_coeffs_by_hand(space):
    """Shape coefficients from the duality system with its edge rows written
    out monomial by monomial, as ``MorleySpace`` built them before it took
    them from ``vkmorley.morley.gradients``."""
    mesh = space.mesh
    nt = mesh.n_triangles
    own = np.arange(nt)[:, None]
    xi_v = space.local_coords(own, mesh.triangle_coords())
    xi_m = space.local_coords(own, space._midpoints[mesh.tri_edges])
    normals = mesh.edge_normal[mesh.tri_edges]
    D = np.empty((nt, 6, 6))
    D[:, 0:3, :] = monomials(xi_v)
    nx, ny = normals[..., 0], normals[..., 1]
    xm, ym = xi_m[..., 0], xi_m[..., 1]
    s = space.scales[:, None]
    D[:, 3:6, 0] = 0.0
    D[:, 3:6, 1] = nx / s
    D[:, 3:6, 2] = ny / s
    D[:, 3:6, 3] = 2.0 * xm * nx / s
    D[:, 3:6, 4] = (ym * nx + xm * ny) / s
    D[:, 3:6, 5] = 2.0 * ym * ny / s
    return np.linalg.solve(D, np.broadcast_to(np.eye(6), (nt, 6, 6)))


def local_bases_whole(space):
    """(coeffs, shape_integral) built over the whole mesh at once, with the
    same duality-residual check, as ``MorleySpace`` built them before it
    walked the mesh in element chunks."""
    mesh = space.mesh
    nt = mesh.n_triangles
    own = np.arange(nt)[:, None]
    xi_v = space.local_coords(own, mesh.triangle_coords())
    xi_m = space.local_coords(own, space._midpoints[mesh.tri_edges])
    normals = mesh.edge_normal[mesh.tri_edges]
    D = np.empty((nt, 6, 6))
    D[:, 0:3, :] = monomials(xi_v)
    s = space.scales[:, None]
    grads = gradients(np.eye(6)[:, None, None, :], xi_m[..., 0], xi_m[..., 1])
    D[:, 3:6, :] = np.moveaxis(np.vecdot(grads, normals) / s, 0, -1)
    try:
        C = np.linalg.solve(D, np.broadcast_to(np.eye(6), (nt, 6, 6)))
    except np.linalg.LinAlgError as exc:
        raise MeshError(f"singular Morley duality system: {exc}") from exc
    S = np.where(np.arange(6) < 3, 1.0, s)
    R = np.subtract(D @ C, np.eye(6), out=D)
    R *= S[:, :, None]
    R /= S[:, None, :]
    resid = np.abs(R, out=R).max(axis=(1, 2))
    if not np.all(resid <= _DUALITY_TOL):
        bad = int(np.argmax(np.nan_to_num(resid, nan=np.inf)))
        raise MeshError(f"triangle {bad}: Morley duality residual {resid[bad]:.2e} "
                        f"exceeds {_DUALITY_TOL} (h {space.scales[bad]:.2e})")
    return C, (mesh.areas[:, None] / 3.0) * (monomials(xi_m) @ C).sum(axis=1)


def bilaplacian_whole(space):
    """The bilaplacian as one COO sum of the whole mesh's (nt, 6, 6) element
    matrices, free slots in element order, without its exact zeros: the
    matrix ``assemble_bilaplacian`` built before it summed element chunks."""
    H = shape_hess(space)
    local = frobenius_weighted(H, space.mesh.areas[:, None]) @ H.mT
    dof_map = space.dof_map.astype(sparse.get_index_dtype(maxval=space.n_dofs))
    rows, cols = np.broadcast_arrays(dof_map[:, :, None], dof_map[:, None, :])
    free = (rows >= 0) & (cols >= 0)
    n = space.n_dofs
    M = sparse.coo_matrix((local[free], (rows[free], cols[free])), shape=(n, n)).tocsr()
    M.eliminate_zeros()
    return M


def hessian_distance_einsum(d, areas):
    """Piecewise H2 norm of a (2, nt, 3) Hessian difference, as axiom_check had it."""
    return float(np.sqrt(sum(float(np.einsum("tc,c,t->", dk**2, FROB, areas)) for dk in d)))


# -- pointwise references for the moment kernels -----------------------------
# The load, the estimator's volume terms and the oscillation as they were
# written against data values at every quadrature point, (nt, q), before
# the space kept the data only as per-element moments.


def _values(func, pts):
    return np.broadcast_to(func(pts[..., 0], pts[..., 1]), pts.shape[:-1])


def _load_values(data, pts):
    """Values (nt, q) of f and of g (None for a zero g) at points (nt, q, 2)."""
    return [None if v is None else np.broadcast_to(v, pts.shape[:-1])
            for v in data.loads(pts[..., 0], pts[..., 1])]


def load_pointwise(space, data):
    rule = triangle_rule(data.quad_degree)
    pts, xi = _local_points(space, rule)
    shapes = monomials(xi) @ space.coeffs  # (nt, q, 6)
    warea = rule.weights[None, :] * space.mesh.areas[:, None]
    return np.concatenate([
        np.zeros(space.n_dofs) if values is None else
        space.scatter(((warea * values)[:, None, :] @ shapes)[:, 0])
        for values in _load_values(data, pts)])


def volume_terms_pointwise(space, state, data):
    areas = space.mesh.areas
    Hu, Hv = space.element_hessians(state.coeffs)
    br_uv, br_uu = vk_bracket(Hu, Hv), vk_bracket(Hu, Hu)
    rule = triangle_rule(data.quad_degree)
    pts, _ = _local_points(space, rule)
    wts = rule.weights[None, :]
    f, g = _load_values(data, pts)
    r1 = br_uv[:, None] + f
    res1 = np.einsum("tq,tq->t", wts * r1, r1) * areas
    if g is None:
        res2 = br_uu**2 * areas
    else:
        r2 = br_uu[:, None] - 2.0 * g
        res2 = np.einsum("tq,tq->t", wts * r2, r2) * areas
    return areas**2 * (res1 + res2)


def oscillation_pointwise(space, func, order, quad_degree=4):
    rule = triangle_rule(max(quad_degree, 2 * order))
    pts, xi = _local_points(space, rule)
    fv = _values(func, pts)
    basis = monomials(xi)[..., :{0: 1, 1: 3, 2: 6}[order]]  # (nt, q, nb)
    M = (basis.mT * rule.weights) @ basis
    rhs = ((fv * rule.weights)[:, None, :] @ basis)[:, 0]
    coef = np.linalg.solve(M, rhs[..., None])[..., 0]
    resid = (fv * fv) @ rule.weights - np.einsum("ti,ti->t", coef, rhs)
    np.clip(resid, 0.0, None, out=resid)
    return space.mesh.areas**3 * resid


# -- per-entity references for the file writers ------------------------------


def write_mesh_rows(mesh, path):
    lines = ["morleymesh 1", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.coords:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"triangles {mesh.n_triangles}")
    for t in range(mesh.n_triangles):
        v0, v1, v2 = mesh.tri_vertices[t]
        lines.append(f"{v0} {v1} {v2} {mesh.tri_ref_edge[t]}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_svg_rows(mesh, path):
    xmin, ymin = mesh.coords.min(axis=0)
    xmax, ymax = mesh.coords.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-30)
    scale = _SVG_WIDTH / span
    margin = 0.02 * _SVG_WIDTH

    def to_px(p):
        return margin + (p[0] - xmin) * scale, margin + (ymax - p[1]) * scale

    w = 2 * margin + (xmax - xmin) * scale
    h = 2 * margin + (ymax - ymin) * scale
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.1f}" '
        f'height="{h:.1f}" viewBox="0 0 {w:.1f} {h:.1f}">',
        f'<rect width="{w:.1f}" height="{h:.1f}" fill="white"/>',
    ]
    sw = max(0.25, min(1.0, 120.0 / max(mesh.n_triangles, 1)))
    for t in range(mesh.n_triangles):
        pts = [to_px(mesh.coords[v]) for v in mesh.tri_vertices[t]]
        d = (
            f"M {pts[0][0]:.2f} {pts[0][1]:.2f} "
            f"L {pts[1][0]:.2f} {pts[1][1]:.2f} "
            f"L {pts[2][0]:.2f} {pts[2][1]:.2f} Z"
        )
        parts.append(f'<path d="{d}" fill="none" stroke="#334" stroke-width="{sw:.2f}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def estimator_csv_rows(report, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["triangle_id", "area", "eta_sq", "mu_sq", "osc_sq"])
        for t in range(len(report.eta_sq)):
            writer.writerow([t, f"{report.areas[t]:.17g}", f"{report.eta_sq[t]:.17g}",
                             f"{report.mu_sq[t]:.17g}", f"{report.osc_sq[t]:.17g}"])


def backtrack_keep_all(attempt, rnorm, max_halvings):
    """Newton damping keeping every trial: the first of attempt(1),
    attempt(1/2), ... whose norm (item 0) is below rnorm, else ``min`` over
    all of them; and the number of halvings made."""
    alpha = 1.0
    tried = []
    accepted = None
    halvings = 0
    for halving in range(max_halvings + 1):
        tried.append(attempt(alpha))
        if tried[-1][0] < rnorm:
            accepted = tried[-1]
            break
        if halving < max_halvings:
            alpha *= 0.5
            halvings += 1
    if accepted is None:
        accepted = min(tried, key=lambda item: item[0])
    return accepted, halvings


def scipy_gmres(matvec, b, Mb, psolve, atol):
    """``scipy.sparse.linalg.gmres`` with ``vkmorley.solver._gmres``'s
    arguments and results (x, iterations, info); Mb is not used, as scipy
    preconditions b itself."""
    n = len(b)
    steps = []
    x, info = spla.gmres(spla.LinearOperator((n, n), matvec=matvec, dtype=float), b,
                         rtol=0.0, atol=atol, maxiter=_GMRES_CYCLES,
                         M=spla.LinearOperator((n, n), matvec=psolve, dtype=float),
                         callback=steps.append, callback_type="pr_norm")
    return x, len(steps), info
