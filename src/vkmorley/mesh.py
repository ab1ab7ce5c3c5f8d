"""Conforming triangulations with newest-vertex bisection refinement.

A mesh stores vertices and positively oriented triangles; each triangle
carries one refinement edge by local index.  Local edge k lies opposite
vertex k and joins the vertices ``_LOCAL_EDGES[k]``.  Construction
builds the edge table: global edges are numbered by first occurrence in
a scan over (triangle, local edge), store their endpoints with the lower
vertex id first, and carry a unit tangent from the lower to the higher
id and a unit normal, the tangent rotated 90 degrees counterclockwise.

refine() works on that table: it marks edges, closes the marks so that
every triangle with a marked edge has its refinement edge marked, and
bisects each marked edge at its midpoint.  A child's refinement edge is
the parent edge opposite the new vertex.  The closure conforms from any
initial choice of refinement edges, so neighbours need not agree on the
edge they share.

Meshes are immutable after construction: refine() returns a new mesh
that records, per triangle, the ancestor triangle in the input mesh, and
holds that mesh only by weak reference, so no mesh keeps another alive.
"""

from __future__ import annotations

import weakref
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "MeshError",
    "build_initial_mesh",
    "mesh_from_arrays",
    "refine",
    "uniform_refine",
    "ancestor_map",
    "read_mesh",
    "write_mesh",
    "write_svg",
    "validate",
]


class MeshError(Exception):
    """Raised for malformed meshes or bad refinement marks."""


# Local edge k of a triangle joins its local vertices _LOCAL_EDGES[k].
_LOCAL_EDGES = np.array([[1, 2], [2, 0], [0, 1]])
# Width in pixels of the longer side of an SVG mesh image.
_SVG_WIDTH = 800.0


class Mesh:
    """A conforming triangulation with per-triangle refinement edges."""

    def __init__(
        self,
        coords: np.ndarray,
        tri_vertices: np.ndarray,
        tri_ref_edge: np.ndarray,
        tri_generation: np.ndarray | None = None,
        ancestors: np.ndarray | None = None,
        parent: "Mesh | None" = None,
    ):
        self.coords = np.ascontiguousarray(coords, dtype=float)
        self.tri_vertices = np.ascontiguousarray(tri_vertices, dtype=np.int64)
        self.tri_ref_edge = np.ascontiguousarray(tri_ref_edge, dtype=np.int64)
        nt = len(self.tri_vertices)
        if tri_generation is None:
            tri_generation = np.zeros(nt, dtype=np.int64)
        self.tri_generation = np.ascontiguousarray(tri_generation, dtype=np.int64)
        if ancestors is None:
            ancestors = np.arange(nt, dtype=np.int64)
        self.ancestors = np.ascontiguousarray(ancestors, dtype=np.int64)
        self.parent = None if parent is None else weakref.ref(parent)
        self._build_topology()

    # -- construction helpers ------------------------------------------------

    def _build_topology(self) -> None:
        coords = self.coords
        tv = self.tri_vertices
        nt = len(tv)
        _check_vertex_ids(tv, len(coords))
        stray = np.flatnonzero(np.bincount(tv.ravel(), minlength=len(coords)) == 0)
        if len(stray):  # its dof would lie on no triangle
            raise MeshError(f"vertex {stray[0]} is used by no triangle")
        if not np.all(np.isfinite(coords)):
            bad = int(np.argmax(~np.isfinite(coords).all(axis=1)))
            raise MeshError(f"vertex {bad} has a non-finite coordinate")

        a = coords[tv[:, 0]]
        b = coords[tv[:, 1]]
        c = coords[tv[:, 2]]
        with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates: inf or nan
            cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
                c[:, 0] - a[:, 0]
            )
        if not np.all(np.isfinite(cross)):
            bad = int(np.argmax(~np.isfinite(cross)))
            raise MeshError(f"triangle {bad} has a non-finite area")
        if np.any(cross <= 0.0):
            bad = int(np.argmax(cross <= 0.0))
            raise MeshError(f"triangle {bad} is degenerate or inverted")
        self.areas = 0.5 * cross
        self.areas.flags.writeable = False  # reports hold it without a copy
        self.h = np.sqrt(self.areas)

        # One slot per (triangle, local edge) in scan order; edges are
        # numbered by the slot where their sorted vertex pair first occurs.
        keys = np.sort(tv[:, _LOCAL_EDGES], axis=2).reshape(-1, 2)
        _, inverse, counts = np.unique(
            keys[:, 0] * len(coords) + keys[:, 1], return_inverse=True, return_counts=True
        )
        # The slots of each distinct key, grouped and in scan order.
        slots = np.argsort(inverse, kind="stable")
        start = np.cumsum(counts) - counts
        first, last = slots[start], slots[start + counts - 1]
        if np.any(counts > 2):
            bad = int(np.argmax(counts > 2))
            p, q = keys[first[bad]]
            raise MeshError(f"edge ({p}, {q}) shared by {counts[bad]} triangles")
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))

        self.edge_vertices = keys[first[by_first]]
        self.tri_edges = rank[inverse].reshape(nt, 3)
        self.edge_tris = np.column_stack((first // 3, np.where(counts == 2, last // 3, -1)))[by_first]
        self.edge_is_boundary = self.edge_tris[:, 1] < 0

        lo = coords[self.edge_vertices[:, 0]]
        hi = coords[self.edge_vertices[:, 1]]
        d = hi - lo
        self.edge_length = np.hypot(d[:, 0], d[:, 1])
        if np.any(self.edge_length <= 0.0):
            raise MeshError("zero-length edge")
        self.edge_tangent = d / self.edge_length[:, None]
        self.edge_normal = np.column_stack(
            (-self.edge_tangent[:, 1], self.edge_tangent[:, 0])
        )

        self.vertex_is_boundary = np.zeros(len(coords), dtype=bool)
        bnd = self.edge_vertices[self.edge_is_boundary]
        self.vertex_is_boundary[bnd.ravel()] = True

    # -- basic queries -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    @property
    def n_triangles(self) -> int:
        return len(self.tri_vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    def triangle_coords(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (ntri, 3, 2)."""
        return self.coords[self.tri_vertices]


def _check_vertex_ids(tv: np.ndarray, n_vertices: int) -> None:
    if tv.size and (tv.min() < 0 or tv.max() >= n_vertices):
        raise MeshError("triangle vertex index out of range")


# -- refinement edge assignment ---------------------------------------------


def _assign_refinement_edges(coords: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """Longest-edge assignment with ties broken by smallest opposite vertex id."""
    d = coords[tv[:, _LOCAL_EDGES[:, 0]]] - coords[tv[:, _LOCAL_EDGES[:, 1]]]
    l2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    return np.lexsort((tv, -l2))[:, 0]


# -- domain constructors -----------------------------------------------------


def mesh_from_arrays(coords, triangles) -> Mesh:
    """Build a level-zero mesh from explicit vertex and triangle lists.

    The longest-edge rule assigns the refinement edges.  Neighbours need
    not agree on a shared refinement edge: the closure in refine()
    conforms from any initial labelling.
    """
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    tv = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    _check_vertex_ids(tv, len(coords))
    return Mesh(coords, tv, _assign_refinement_edges(coords, tv))


def build_initial_mesh(domain: str | Path) -> Mesh:
    """Construct a coarse initial mesh.

    Accepts "square" (unit square, two triangles), "lshape" (the square
    (-1,1)^2 minus the fourth quadrant, six triangles with diagonals
    through the re-entrant corner), or a path to a mesh file.
    """
    if domain == "square":
        coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        tris = [(0, 1, 2), (0, 2, 3)]
        return mesh_from_arrays(coords, tris)
    if domain == "lshape":
        coords = [
            (-1.0, -1.0), (0.0, -1.0), (0.0, 0.0), (1.0, 0.0),
            (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0),
        ]
        tris = [
            (0, 1, 2), (0, 2, 7),
            (2, 3, 4), (2, 4, 5),
            (2, 5, 6), (2, 6, 7),
        ]
        return mesh_from_arrays(coords, tris)
    path = Path(domain)
    if path.suffix == ".morleymesh" or path.exists():
        return read_mesh(path)
    raise MeshError(f"unknown domain {domain!r}")


# -- refinement --------------------------------------------------------------


def refine(mesh: Mesh, marked) -> Mesh:
    """Bisect the marked triangles and close the result to a conforming mesh.

    Marks go on edges of ``mesh.tri_edges``.  Each marked triangle marks
    its refinement edge, and then, until nothing changes, every triangle
    with a marked edge marks its refinement edge too.  Each pass adds at
    least one of finitely many edges, so the closure terminates; it is
    the smallest conforming newest-vertex refinement that bisects every
    marked triangle.  Each marked edge is then bisected once, in at most
    two rounds: a triangle (r, p, q) whose refinement edge (p, q) is
    marked splits into (r, p, m) and (r, m, q) at the midpoint m, and a
    child's refinement edge is the parent edge opposite m, which the
    next round bisects if it is marked.

    Numbering: the vertices of ``mesh`` keep their ids and the midpoints
    follow in ascending edge id.  Each round lists the triangles it
    leaves whole, in their previous relative order, and then the two
    children of each split triangle in parent order, (r, p, m) before
    (r, m, q).  The result's ``ancestors`` maps each triangle to its
    triangle in ``mesh``, and its ``parent`` is a weak reference to ``mesh``.

    ``marked`` holds integer triangle ids (duplicates allowed); boolean
    masks and non-integer values raise MeshError.
    """
    marked = np.asarray(marked)
    if marked.ndim != 1 or (marked.size and marked.dtype.kind not in "iu"):
        raise MeshError("marks must be a sequence of integer triangle ids")
    marked = marked.astype(np.int64)
    nt = mesh.n_triangles
    if marked.size and (marked.min() < 0 or marked.max() >= nt):
        raise MeshError("marked triangle id out of range")

    ref = mesh.tri_edges[np.arange(nt), mesh.tri_ref_edge]
    edge_marked = np.zeros(mesh.n_edges, dtype=bool)
    edge_marked[ref[marked]] = True
    while True:
        grow = edge_marked[mesh.tri_edges].any(axis=1) & ~edge_marked[ref]
        if not grow.any():
            break
        edge_marked[ref[grow]] = True

    split_edges = np.flatnonzero(edge_marked)
    midpoint = np.full(mesh.n_edges, -1, dtype=np.int64)
    midpoint[split_edges] = mesh.n_vertices + np.arange(len(split_edges))
    ends = mesh.coords[mesh.edge_vertices[split_edges]]
    coords = np.concatenate([mesh.coords, (ends[:, 0] + ends[:, 1]) / 2.0])

    # Per triangle: vertices, local refinement edge, generation, ancestor
    # and the edge ids of ``mesh`` (-1 for edges made by this call).
    tv, tr, gen, anc = mesh.tri_vertices, mesh.tri_ref_edge, mesh.tri_generation, np.arange(nt)
    te = mesh.tri_edges
    while True:
        e = te[np.arange(len(tv)), tr]
        split = (e >= 0) & edge_marked[e]
        if not split.any():
            break
        s = np.flatnonzero(split)
        turn = (tr[s, None] + np.arange(3)) % 3
        r, p, q = np.take_along_axis(tv[s], turn, axis=1).T
        _, e_p, e_q = np.take_along_axis(te[s], turn, axis=1).T
        m = midpoint[e[s]]
        new = np.full_like(m, -1)
        keep = ~split
        tv = np.concatenate([tv[keep], _children((r, p, m), (r, m, q))])
        te = np.concatenate([te[keep], _children((new, new, e_q), (new, e_p, new))])
        tr = np.concatenate([tr[keep], np.tile([2, 1], len(s))])
        gen = np.concatenate([gen[keep], np.repeat(gen[s] + 1, 2)])
        anc = np.concatenate([anc[keep], np.repeat(anc[s], 2)])
    return Mesh(coords, tv, tr, gen, anc, parent=mesh)


def _children(first, second) -> np.ndarray:
    """Rows of two child tables interleaved: first[0], second[0], first[1], ..."""
    return np.stack([np.column_stack(first), np.column_stack(second)], axis=1).reshape(-1, 3)


def uniform_refine(mesh: Mesh) -> Mesh:
    """Bisect every triangle once (plus completion)."""
    return refine(mesh, range(mesh.n_triangles))


def ancestor_map(coarse: Mesh, fine: Mesh) -> np.ndarray:
    """Map every triangle of ``fine`` to its ancestor in ``coarse``; ``fine`` must be
    ``coarse`` or the mesh one refine() call made from it, else MeshError."""
    if fine is coarse:
        return np.arange(fine.n_triangles, dtype=np.int64)
    if fine.parent is None or fine.parent() is not coarse:
        raise MeshError("fine mesh is neither the coarse mesh nor its direct refinement")
    return fine.ancestors


# -- validation --------------------------------------------------------------


def validate(mesh: Mesh) -> None:
    """Raise MeshError on hanging vertices, a broken boundary loop, a fold,
    or pieces that overlap or lie apart.

    Orientation and manifoldness are enforced at construction; this adds
    the checks that need whole-mesh scans.  Coordinates are compared
    exactly, as complex numbers x + iy, which sort lexicographically.  A
    fold is an interior edge along which both of its positively oriented
    triangles run the same way, so that they lie on the same side of it
    and overlap (a repeated triangle is one).  Each boundary edge is
    directed the way its triangle runs along it; then the loop around one
    connected region runs counterclockwise and the loop around a hole
    clockwise, so a second loop of positive signed area (shoelace formula)
    is a piece that shares no edge with the rest: apart from it, or inside
    one of its triangles.
    """
    z = mesh.coords.view(np.complex128).ravel()
    by_z = np.argsort(z, kind="stable")
    zs = z[by_z]
    if np.any(zs[1:] == zs[:-1]):
        raise MeshError("duplicate vertex coordinates")
    p, q = mesh.edge_vertices.T
    mid = ((mesh.coords[p] + mesh.coords[q]) / 2.0).view(np.complex128).ravel()
    at = np.minimum(np.searchsorted(zs, mid), len(zs) - 1)
    hanging = np.flatnonzero(zs[at] == mid)
    if len(hanging):
        e = int(hanging[0])
        raise MeshError(f"hanging vertex {by_z[at[e]]} on edge {e}")
    counts = np.bincount(mesh.edge_vertices[mesh.edge_is_boundary].ravel(),
                         minlength=mesh.n_vertices)
    bad = np.nonzero((counts != 0) & (counts != 2))[0]
    if len(bad):
        raise MeshError(f"boundary is not a closed loop at vertex {int(bad[0])}")
    # A triangle runs counterclockwise along local edge k from vertex _LOCAL_EDGES[k, 0];
    # runs counts, per edge, the triangles that run from its lower to its higher id.
    forward = mesh.tri_vertices[:, _LOCAL_EDGES[:, 0]] == mesh.edge_vertices[mesh.tri_edges, 0]
    runs = np.bincount(mesh.tri_edges[forward], minlength=mesh.n_edges)
    folds = np.flatnonzero(~mesh.edge_is_boundary & (runs != 1))
    if len(folds):
        e = int(folds[0])
        t0, t1 = mesh.edge_tris[e]
        raise MeshError(f"triangles {t0} and {t1} overlap across edge {e}")
    # Imported here: csgraph adds about 1 MB to every run's peak RSS, and only
    # mesh files are validated.
    from scipy.sparse.csgraph import connected_components

    t, k = np.nonzero(mesh.edge_is_boundary[mesh.tri_edges])
    tail, head = mesh.tri_vertices[t[:, None], _LOCAL_EDGES[k]].T
    graph = sp.coo_matrix((np.ones(len(t)), (tail, head)), shape=(mesh.n_vertices,) * 2)
    loop = connected_components(graph, directed=False)[1][tail]
    x, y = mesh.coords.T
    area = np.bincount(loop, weights=x[tail] * y[head] - x[head] * y[tail])
    count = np.count_nonzero(area > 0.0)
    if count > 1:
        raise MeshError(f"{count} boundary loops run counterclockwise: the mesh has pieces "
                        "that overlap or lie apart")


# -- file formats ------------------------------------------------------------


def write_mesh(mesh: Mesh, path) -> None:
    with Path(path).open("w") as fh:
        fh.write(f"morleymesh 1\nvertices {mesh.n_vertices}\n")
        fh.writelines("%.17g %.17g\n" % p for p in zip(*mesh.coords.T.tolist()))
        fh.write(f"triangles {mesh.n_triangles}\n")
        fh.writelines("%d %d %d %d\n" % t
                      for t in zip(*mesh.tri_vertices.T.tolist(), mesh.tri_ref_edge.tolist()))


def read_mesh(path) -> Mesh:
    """Read a morleymesh file; any malformed, truncated or invalid input
    (``Mesh`` and ``validate`` errors too) raises MeshError naming the path."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not a text file ({exc})") from exc
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    rows = [r.strip() for r in text.split("\n") if r.strip()]

    def block(at: int, heading: str, item: str, least: int, width: int, dtype) -> np.ndarray:
        """The count line ``heading n`` at rows[at], then n lines of width fields."""
        if at >= len(rows):
            raise MeshError(f"file ends after {len(rows)} non-empty lines")
        head = rows[at].split()
        if len(head) != 2 or head[0] != heading:
            raise MeshError(f"expected {item} count")
        n = int(head[1])
        if n < least:
            raise MeshError(f"a mesh needs at least {least} "
                            f"{item if least == 1 else heading}, got {n}")
        fields = [line.split() for line in rows[at + 1:at + 1 + n]]
        k = next((k for k, f in enumerate(fields) if len(f) != width), len(fields))
        values = np.array(fields[:k], dtype=dtype)  # a bad value above line k fails first
        if k < len(fields):
            raise MeshError(f"bad {item} line {rows[at + 1 + k]!r}")
        if k < n:
            raise MeshError(f"file ends after {len(rows)} non-empty lines")
        return values

    try:
        if not rows or rows[0].split() != ["morleymesh", "1"]:
            raise MeshError("not a morleymesh version 1 file")
        coords = block(1, "vertices", "vertex", 3, 2, float)
        tris = block(2 + len(coords), "triangles", "triangle", 1, 4, np.int64)
        bad = tris[(tris[:, 3] < 0) | (tris[:, 3] > 2), 3]
        if len(bad):
            raise MeshError(f"refinement edge {bad[0]} out of range")
        end = 3 + len(coords) + len(tris)
        if end < len(rows):
            raise MeshError(f"unexpected line {rows[end]!r} after the last triangle")
        mesh = Mesh(coords, tris[:, :3], tris[:, 3])
        validate(mesh)
    except (MeshError, ValueError, OverflowError) as exc:
        raise MeshError(f"{path}: {exc}") from exc
    return mesh


def write_svg(mesh: Mesh, path) -> None:
    """Render the triangulation as a standalone SVG image."""
    xmin, ymin = mesh.coords.min(axis=0)
    xmax, ymax = mesh.coords.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-30)
    scale = _SVG_WIDTH / span
    margin = 0.02 * _SVG_WIDTH

    px = margin + (mesh.coords[:, 0] - xmin) * scale
    py = margin + (ymax - mesh.coords[:, 1]) * scale
    # One row (x0, y0, x1, y1, x2, y2) of pixel corners per triangle.
    corners = np.stack([px, py], axis=-1)[mesh.tri_vertices].reshape(-1, 6)

    w = 2 * margin + (xmax - xmin) * scale
    h = 2 * margin + (ymax - ymin) * scale
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.1f}" '
        f'height="{h:.1f}" viewBox="0 0 {w:.1f} {h:.1f}">',
        f'<rect width="{w:.1f}" height="{h:.1f}" fill="white"/>',
    ]
    sw = max(0.25, min(1.0, 120.0 / max(mesh.n_triangles, 1)))
    row = ('<path d="M %.2f %.2f L %.2f %.2f L %.2f %.2f Z" fill="none" stroke="#334" '
           f'stroke-width="{sw:.2f}"/>\n')
    with Path(path).open("w") as fh:
        fh.write("\n".join(parts) + "\n")
        fh.writelines(row % c for c in zip(*corners.T.tolist()))
        fh.write("</svg>\n")
