"""Conforming triangulations with newest-vertex bisection refinement.

A mesh stores vertices and positively oriented triangles; each triangle
carries one refinement edge (by local index, edge k lies opposite vertex
k).  Bisection inserts the midpoint of the refinement edge; the two
children take the parent's remaining edges as their refinement edges, so
the new vertex is always the "newest" one.  Completion bisects further
triangles until no hanging vertices remain.

Local edge convention: edge k of triangle (v0, v1, v2) connects the two
vertices other than vk.  Global edges store endpoints with the lower
vertex id first; the unit tangent points from the lower to the higher
id, and the unit normal is the tangent rotated 90 degrees
counterclockwise.

Meshes are immutable after construction: refine() returns a new mesh
that records, per triangle, the ancestor triangle in the input mesh.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "build_initial_mesh",
    "mesh_from_arrays",
    "refine",
    "uniform_refine",
    "compose_ancestors",
    "mesh_partition",
    "read_mesh",
    "write_mesh",
    "write_svg",
    "validate",
]


class MeshError(Exception):
    """Raised for malformed meshes or failed refinement closure."""


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
        self.parent = parent
        self._build_topology()

    # -- construction helpers ------------------------------------------------

    def _build_topology(self) -> None:
        coords = self.coords
        tv = self.tri_vertices
        nt = len(tv)
        if tv.size and (tv.min() < 0 or tv.max() >= len(coords)):
            raise MeshError("triangle vertex index out of range")
        if not np.all(np.isfinite(coords)):
            bad = int(np.argmax(~np.isfinite(coords).all(axis=1)))
            raise MeshError(f"vertex {bad} has a non-finite coordinate")

        a = coords[tv[:, 0]]
        b = coords[tv[:, 1]]
        c = coords[tv[:, 2]]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            c[:, 0] - a[:, 0]
        )
        if np.any(cross <= 0.0):
            bad = int(np.argmax(cross <= 0.0))
            raise MeshError(f"triangle {bad} is degenerate or inverted")
        self.areas = 0.5 * cross
        self.h = np.sqrt(self.areas)

        edge_ids: dict[tuple[int, int], int] = {}
        edge_pairs: list[tuple[int, int]] = []
        edge_adj: list[list[int]] = []
        tri_edges = np.empty((nt, 3), dtype=np.int64)
        for t in range(nt):
            v0, v1, v2 = tv[t]
            for k, (p, q) in enumerate(((v1, v2), (v2, v0), (v0, v1))):
                key = (p, q) if p < q else (q, p)
                e = edge_ids.get(key)
                if e is None:
                    e = len(edge_pairs)
                    edge_ids[key] = e
                    edge_pairs.append(key)
                    edge_adj.append([])
                edge_adj[e].append(t)
                tri_edges[t, k] = e
        for e, adj in enumerate(edge_adj):
            if len(adj) > 2:
                raise MeshError(f"edge {edge_pairs[e]} shared by {len(adj)} triangles")

        ne = len(edge_pairs)
        self.edge_vertices = np.asarray(edge_pairs, dtype=np.int64).reshape(ne, 2)
        self.tri_edges = tri_edges
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        for e, adj in enumerate(edge_adj):
            for j, t in enumerate(adj):
                self.edge_tris[e, j] = t
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


# -- refinement edge assignment ---------------------------------------------


def _assign_refinement_edges(coords: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """Longest-edge assignment with ties broken by smallest opposite vertex id."""
    nt = len(tv)
    ref = np.zeros(nt, dtype=np.int64)
    for t in range(nt):
        v = tv[t]
        best_k = 0
        best_len = -1.0
        for k in range(3):
            p, q = v[(k + 1) % 3], v[(k + 2) % 3]
            d = coords[p] - coords[q]
            l2 = float(d[0] * d[0] + d[1] * d[1])
            if l2 > best_len or (l2 == best_len and v[k] < v[best_k]):
                best_len = l2
                best_k = k
        ref[t] = best_k
    return ref


def _sweep_compatibility(mesh_like: tuple[np.ndarray, np.ndarray], ref: np.ndarray) -> bool:
    """Try to make every interior refinement edge mutually agreed.

    Returns True on success.  A pass flips the non-marking side of each
    interior edge marked from one side only; at most n_triangles passes.
    """
    coords, tv = mesh_like
    probe = Mesh(coords, tv, ref)

    def bad_edges(r):
        bad = []
        for e in range(probe.n_edges):
            if probe.edge_is_boundary[e]:
                continue
            t0, t1 = probe.edge_tris[e]
            m0 = probe.tri_edges[t0, r[t0]] == e
            m1 = probe.tri_edges[t1, r[t1]] == e
            if m0 != m1:
                bad.append(e)
        return bad

    for _ in range(max(1, probe.n_triangles)):
        bad = bad_edges(ref)
        if not bad:
            return True
        for e in bad:
            t0, t1 = probe.edge_tris[e]
            marker, other = (t0, t1) if probe.tri_edges[t0, ref[t0]] == e else (t1, t0)
            if probe.tri_edges[other, ref[other]] != e:
                k = int(np.nonzero(probe.tri_edges[other] == e)[0][0])
                ref[other] = k
    return not bad_edges(ref)


# -- domain constructors -----------------------------------------------------


def mesh_from_arrays(coords, triangles, ref_edges=None) -> Mesh:
    """Build a level-zero mesh from explicit vertex and triangle lists.

    Without explicit refinement edges, the longest-edge rule plus a
    compatibility sweep assigns them; if the sweep fails, one global
    bisection pass of every triangle is applied and the sweep retried.
    """
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    tv = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if ref_edges is not None:
        ref = np.asarray(ref_edges, dtype=np.int64).reshape(-1)
        if len(ref) != len(tv) or ref.min(initial=0) < 0 or ref.max(initial=0) > 2:
            raise MeshError("refinement edge indices must be in {0, 1, 2}")
        return Mesh(coords, tv, ref)

    ref = _assign_refinement_edges(coords, tv)
    if _sweep_compatibility((coords, tv), ref):
        return Mesh(coords, tv, ref)

    # Fallback: bisect every triangle once (with closure), then retry the
    # sweep on the finer mesh before giving up.
    base = Mesh(coords, tv, ref)
    fine = uniform_refine(base)
    ref2 = fine.tri_ref_edge.copy()
    if not _sweep_compatibility((fine.coords, fine.tri_vertices), ref2):
        raise MeshError("unsatisfiable refinement-edge assignment (malformed mesh)")
    return Mesh(fine.coords, fine.tri_vertices, ref2)


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
    """Bisect the marked triangles and complete to a conforming mesh.

    Every marked triangle is bisected at least once at its refinement
    edge; completion bisects whatever else is needed so that no hanging
    vertices remain.  Triangle and vertex ids of unchanged entities are
    preserved; new vertices and triangles are appended deterministically.
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


def uniform_refine(mesh: Mesh) -> Mesh:
    """Bisect every triangle once (plus completion)."""
    return refine(mesh, range(mesh.n_triangles))


def compose_ancestors(coarse: Mesh, fine: Mesh) -> np.ndarray:
    """Map every triangle of ``fine`` to its ancestor triangle in ``coarse``.

    Follows the parent chain through any number of refine() calls.
    """
    anc = np.arange(fine.n_triangles, dtype=np.int64)
    m = fine
    while m is not coarse:
        if m.parent is None:
            raise MeshError("fine mesh does not descend from the coarse mesh")
        anc = m.ancestors[anc]
        m = m.parent
    return anc


def mesh_partition(coarse: Mesh, fine: Mesh):
    """Split triangle sets of an ancestor/descendant mesh pair.

    Returns sorted id arrays (common, coarse_only, fine_only) and anc:
    common holds coarse ids of triangles surviving unchanged,
    coarse_only the refined coarse ids, fine_only the fine ids of newly
    created triangles, and anc (``compose_ancestors``) the coarse
    ancestor of every fine triangle.
    """
    anc = compose_ancestors(coarse, fine)
    unchanged = fine.tri_generation == coarse.tri_generation[anc]
    common = np.unique(anc[unchanged])
    coarse_only = np.setdiff1d(np.arange(coarse.n_triangles), common)
    return common, coarse_only, np.nonzero(~unchanged)[0], anc


# -- validation --------------------------------------------------------------


def validate(mesh: Mesh) -> None:
    """Raise MeshError on hanging vertices or a broken boundary loop.

    Orientation and manifoldness are enforced at construction; this adds
    the checks that need whole-mesh scans.
    """
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


# -- file formats ------------------------------------------------------------


def write_mesh(mesh: Mesh, path) -> None:
    lines = ["morleymesh 1", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.coords:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"triangles {mesh.n_triangles}")
    for t in range(mesh.n_triangles):
        v0, v1, v2 = mesh.tri_vertices[t]
        lines.append(f"{v0} {v1} {v2} {mesh.tri_ref_edge[t]}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    """Read a morleymesh file; any malformed or truncated input raises MeshError."""
    text = Path(path).read_text()
    rows = [r.strip() for r in text.split("\n") if r.strip()]
    if not rows or rows[0].split() != ["morleymesh", "1"]:
        raise MeshError(f"{path}: not a morleymesh version 1 file")

    def row(i: int) -> list[str]:
        if i >= len(rows):
            raise MeshError(f"{path}: file ends after {len(rows)} non-empty lines")
        return rows[i].split()

    try:
        head = row(1)
        if len(head) != 2 or head[0] != "vertices":
            raise MeshError(f"{path}: expected vertex count")
        nv = int(head[1])
        if nv < 3:
            raise MeshError(f"{path}: a mesh needs at least 3 vertices, got {nv}")
        i = 2
        coords = []
        for _ in range(nv):
            parts = row(i)
            if len(parts) != 2:
                raise MeshError(f"{path}: bad vertex line {rows[i]!r}")
            coords.append((float(parts[0]), float(parts[1])))
            i += 1
        head = row(i)
        if len(head) != 2 or head[0] != "triangles":
            raise MeshError(f"{path}: expected triangle count")
        nt = int(head[1])
        if nt < 1:
            raise MeshError(f"{path}: a mesh needs at least 1 triangle, got {nt}")
        i += 1
        tris = []
        refs = []
        for _ in range(nt):
            parts = row(i)
            if len(parts) != 4:
                raise MeshError(f"{path}: bad triangle line {rows[i]!r}")
            tris.append(tuple(int(p) for p in parts[:3]))
            r = int(parts[3])
            if not 0 <= r <= 2:
                raise MeshError(f"{path}: refinement edge {r} out of range")
            refs.append(r)
            i += 1
        mesh = Mesh(
            np.asarray(coords, dtype=float).reshape(nv, 2),
            np.asarray(tris, dtype=np.int64).reshape(nt, 3),
            np.asarray(refs, dtype=np.int64),
        )
    except (ValueError, OverflowError) as exc:
        raise MeshError(f"{path}: {exc}") from exc
    validate(mesh)
    return mesh


def write_svg(mesh: Mesh, path, width: float = 800.0) -> None:
    """Render the triangulation as a standalone SVG image."""
    xmin, ymin = mesh.coords.min(axis=0)
    xmax, ymax = mesh.coords.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-30)
    scale = width / span
    margin = 0.02 * width

    def to_px(p):
        return (
            margin + (p[0] - xmin) * scale,
            margin + (ymax - p[1]) * scale,
        )

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
