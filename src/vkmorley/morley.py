"""The nonconforming Morley element on a triangulation.

A Morley function is piecewise quadratic, continuous at interior
vertices, and has a continuous mean normal derivative across interior
edges; on a clamped plate both vanish along the boundary.  Degrees of
freedom are therefore the values at interior vertices followed by the
mean normal derivatives over interior edges.

Each element's six shape functions are found by solving the 6x6 duality
system against quadratic monomials written in centered coordinates
(x - c) / h, whose values, first and second derivatives are written once
(``monomial_terms``, ``gradients``, ``hessians``).  The centring makes the
vertex rows scale-free, but the edge rows (normal derivatives) stay in
physical units, so the system's condition number grows like 1/h.  The
only guard, the per-triangle duality residual |S(DC - I)S^-1| with S = diag(1, 1, 1, h, h, h), is free
of units: it rejects degenerate shapes (a needle of width 1e-9), not
small triangles, and names the worst.  Edge functionals are taken
directly against the global edge normal, so no sign flip is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, MeshError, ancestor_map
from .quadrature import TriangleRule, edge_rule, triangle_points

__all__ = [
    "MorleySpace",
    "MorleyField",
    "build_space",
    "gradients",
    "hessians",
    "interpolate",
    "monomial_terms",
    "monomials",
    "prolongate",
    "reduce_moments",
]

_DUALITY_TOL = 1e-10
# Elements per chunk of every per-element walk (``MorleySpace.chunks``).  The
# widest per-chunk temporaries are the error rule's points and exact
# derivatives (``forms.energy_norms``): 2,048 elements made them 7 MB on the
# CLI's last level, and 512 cuts every walk's per-chunk temporaries to a quarter.
_CHUNK = 512


def monomial_terms(x: np.ndarray, y: np.ndarray):
    """The quadratic monomials 1, x, y, x^2, xy, y^2 of coordinate arrays, one
    array at a time."""
    yield np.ones_like(x)
    yield x
    yield y
    yield x * x
    yield x * y
    yield y * y


def monomials(xi: np.ndarray) -> np.ndarray:
    """Quadratic monomials (1, x, y, x^2, xy, y^2) of points (..., 2), stacked."""
    return np.stack(list(monomial_terms(xi[..., 0], xi[..., 1])), axis=-1)


def reduce_moments(values: np.ndarray, x: np.ndarray, y: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Per-element moments (nt, 7) of values (nt, q) at centred points x, y (nt, q).

    Columns 0-5 are sum_q w_q v_q m_k(x_q, y_q) over ``monomial_terms``;
    column 6 is the spread sum_q w_q (v_q - vbar)^2 about the element
    mean vbar = column 0 / sum(w).  Each column is one weighted sum of
    (nt, q) products, so no (nt, q, 6) array is built.
    """
    out = np.empty((len(values), 7))
    for k, term in enumerate(monomial_terms(x, y)):
        out[:, k] = (values * term) @ weights
    dev = values - (out[:, 0] / weights.sum())[:, None]
    out[:, 6] = (dev * dev) @ weights
    return out


def gradients(polys: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradients (..., 2) of centered quadratics (..., 6) at centred points x, y,
    in centred units: the first derivatives of ``monomial_terms``.  polys'
    coefficients broadcast against x and y."""
    c = polys
    return np.stack([c[..., 1] + 2.0 * c[..., 3] * x + c[..., 4] * y,
                     c[..., 2] + c[..., 4] * x + 2.0 * c[..., 5] * y], axis=-1)


def hessians(polys: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Constant Hessians of centered quadratics as (..., 3) rows (hxx, hxy, hyy).

    polys (..., 6) holds monomial coefficients in the centered variable
    (x - c) / h, or (..., 3) only those of x^2, xy and y^2; scales holds h
    and broadcasts against polys[..., 0].
    """
    s2 = scales**2
    return np.stack([2.0 * polys[..., -3] / s2, polys[..., -2] / s2, 2.0 * polys[..., -1] / s2],
                    axis=-1)


class MorleySpace:
    """Global Morley space on a mesh, with per-element shape data."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh

        nv, ne, nt = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
        self.vertex_dof = np.full(nv, -1, dtype=np.int64)
        self.edge_dof = np.full(ne, -1, dtype=np.int64)
        free_v = np.nonzero(~mesh.vertex_is_boundary)[0]
        free_e = np.nonzero(~mesh.edge_is_boundary)[0]
        self.vertex_dof[free_v] = np.arange(len(free_v))
        self.edge_dof[free_e] = len(free_v) + np.arange(len(free_e))
        self.n_dofs = len(free_v) + len(free_e)

        self.dof_map = np.empty((nt, 6), dtype=np.int64)
        self.dof_map[:, 0:3] = self.vertex_dof[mesh.tri_vertices]
        self.dof_map[:, 3:6] = self.edge_dof[mesh.tri_edges]

        self.centers = mesh.triangle_coords().mean(axis=1)
        self.scales = mesh.h.copy()
        self._midpoints = 0.5 * (
            mesh.coords[mesh.edge_vertices[:, 0]] + mesh.coords[mesh.edge_vertices[:, 1]]
        )
        self._build_local_bases()
        # Per-level data: load moments and arrays derived from them (see
        # ``cached``).
        self._quadrature: dict = {}

    # -- per-level cache -----------------------------------------------------

    def cached(self, key, compute) -> np.ndarray:
        """Read-only compute(), computed once per key until release_quadrature.

        The data enter only as their moments (``moments``): the load, the
        estimator's volume terms and its oscillation read nothing else,
        and each chunk's points and values die with it, so no array with a
        quadrature axis stays alive while a level's factor is.
        """
        if key not in self._quadrature:
            self._quadrature[key] = compute()
            self._quadrature[key].flags.writeable = False
        return self._quadrature[key]

    def moments(self, loads, rule: TriangleRule) -> tuple:
        """Read-only moments (nt, 7) under a rule (see ``reduce_moments``) of
        each field loads(x, y) returns, None for a None field, cached per
        (loads, rule degree).  One walk over ``rule_points``' chunks calls
        loads once per chunk; each chunk's rows are those of one whole-mesh
        ``reduce_moments``."""
        key = ("moments", loads, rule.degree)
        if key not in self._quadrature:
            out = None
            for t, pts, xi in self.rule_points(rule):
                values = loads(pts[..., 0], pts[..., 1])
                out = out or [None if v is None else np.empty((self.mesh.n_triangles, 7))
                              for v in values]
                for m, v in zip(out, values):
                    if m is not None:
                        m[t] = reduce_moments(np.broadcast_to(v, pts.shape[:-1]),
                                              xi[..., 0], xi[..., 1], rule.weights)
            for m in out:
                if m is not None:
                    m.flags.writeable = False
            self._quadrature[key] = tuple(out)
        return self._quadrature[key]

    def chunks(self):
        """Consecutive slices of at most _CHUNK elements, covering the mesh in order."""
        nt = self.mesh.n_triangles
        return (slice(start, min(start + _CHUNK, nt)) for start in range(0, nt, _CHUNK))

    def rule_points(self, rule: TriangleRule):
        """Yield (elements, physical points, centred (``local_coords``) points)
        for each of ``chunks``, points (k, q, 2)."""
        mesh = self.mesh
        for t in self.chunks():
            pts = triangle_points(rule, mesh.coords[mesh.tri_vertices[t]])
            yield t, pts, self.local_coords(np.arange(t.start, t.stop)[:, None], pts)

    def release_quadrature(self) -> None:
        """Drop every cached array."""
        self._quadrature.clear()

    # -- local bases ---------------------------------------------------------

    def local_coords(self, t, points: np.ndarray) -> np.ndarray:
        """Map physical points to the element's centered coordinates.

        t is an element id or an array of them broadcasting against the
        leading axes of points (..., 2).
        """
        return (points - self.centers[t]) / self.scales[t][..., None]

    def _build_local_bases(self) -> None:
        """Shape data a chunk at a time; the whole mesh's residuals are checked last."""
        mesh = self.mesh
        nt = mesh.n_triangles
        self.coeffs = np.empty((nt, 6, 6))
        self.shape_integral = np.empty((nt, 6))
        resid = np.empty(nt)
        for t in self.chunks():
            own = np.arange(t.start, t.stop)[:, None]
            xi_v = self.local_coords(own, mesh.coords[mesh.tri_vertices[t]])
            xi_m = self.local_coords(own, self._midpoints[mesh.tri_edges[t]])
            normals = mesh.edge_normal[mesh.tri_edges[t]]
            D = np.empty((len(own), 6, 6))
            D[:, 0:3, :] = monomials(xi_v)
            # Column k of the edge rows: the normal derivative of monomial k at
            # each edge midpoint, (6, k, 3) before the axes are moved.
            s = self.scales[t, None]
            grads = gradients(np.eye(6)[:, None, None, :], xi_m[..., 0], xi_m[..., 1])
            D[:, 3:6, :] = np.moveaxis(np.vecdot(grads, normals) / s, 0, -1)
            try:
                C = self.coeffs[t] = np.linalg.solve(D, np.broadcast_to(np.eye(6), D.shape))
            except np.linalg.LinAlgError as exc:
                raise MeshError(f"singular Morley duality system: {exc}") from exc
            S = np.where(np.arange(6) < 3, 1.0, s)  # the scaling S of the module docstring
            # |S(DC - I)S^-1| in the formula's order, in place over D, which is
            # not needed again.
            R = np.subtract(D @ C, np.eye(6), out=D)
            R *= S[:, :, None]
            R /= S[:, None, :]
            resid[t] = np.abs(R, out=R).max(axis=(1, 2))
            # Integral of each shape function: edge-midpoint rule, exact for quadratics.
            with np.errstate(over="ignore"):  # areas near the float range: checked below
                self.shape_integral[t] = mesh.areas[t, None] / 3.0 * (monomials(xi_m) @ C).sum(axis=1)

        # Written so that a NaN residual is rejected too.
        if not np.all(resid <= _DUALITY_TOL):
            bad = int(np.argmax(np.nan_to_num(resid, nan=np.inf)))
            raise MeshError(f"triangle {bad}: Morley duality residual {resid[bad]:.2e} "
                            f"exceeds {_DUALITY_TOL} (h {self.scales[bad]:.2e})")
        if not np.all(np.isfinite(self.shape_integral)):
            bad = int(np.argmax(~np.isfinite(self.shape_integral).all(axis=1)))
            raise MeshError(f"triangle {bad} has a non-finite shape integral")

    # -- field algebra -------------------------------------------------------
    # Only gather, scatter, scatter_matrix and solver.dissection_order read
    # dof_map's -1 in constrained slots.  Coefficients may carry leading
    # axes, e.g. the (2, n) block of the state (u, v).

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """Element dof values (..., nt, 6) of coefficients (..., n); zero in
        constrained slots.  ``np.take`` returns a C-contiguous array, so the
        stacked ``matmul`` of ``element_polys`` sees a block's rows with the
        strides of a single row, and rounds them alike."""
        padded = np.concatenate([coeffs, np.zeros(coeffs.shape[:-1] + (1,))], axis=-1)
        return np.take(padded, self.dof_map, axis=-1)

    def scatter(self, local: np.ndarray) -> np.ndarray:
        """Sum element values (..., nt, 6) into coefficients (..., n), the
        transpose of ``gather``, adding in element order."""
        return _bin_sums(self.dof_map.ravel(), local.reshape(local.shape[:-2] + (-1,)),
                         self.n_dofs)

    def scatter_constant(self, w: np.ndarray) -> np.ndarray:
        """(w, shape_i) of an elementwise constant w (nt,): ``scatter`` of w times
        the shape integrals, formed a column at a time, since numpy buffers a
        broadcast product."""
        local = np.empty((len(w), 6))
        for col, si in zip(local.T, self.shape_integral.T):
            np.multiply(w, si, out=col)
        return self.scatter(local)

    def scatter_matrix(self, element_matrices) -> sp.csr_matrix:
        """Sum element matrices element_matrices(t) (k, 6, 6) of ``chunks`` into
        the sparse n x n matrix, through triplets sized once, in element order.

        Sums that cancel to exactly zero are not stored: adding 0.0 changes
        no product, and the sparse LU then skips them.  The COO sum leaves
        data and indices as views of longer buffers; the copy owns nnz each.
        The slots are taken in the COO's own index type, which it does not copy."""
        n = self.n_dofs
        dof_map = self.dof_map.astype(sp.get_index_dtype(maxval=n))
        size = int(np.sum(np.count_nonzero(dof_map >= 0, axis=1) ** 2))
        data, (rows, cols) = np.empty(size), np.empty((2, size), dof_map.dtype)
        end = 0
        for t in self.chunks():
            r, c = np.broadcast_arrays(dof_map[t, :, None], dof_map[t, None, :])
            free = (r >= 0) & (c >= 0)
            start, end = end, end + np.count_nonzero(free)
            data[start:end] = element_matrices(t)[free]
            rows[start:end], cols[start:end] = r[free], c[free]
        M = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        M.eliminate_zeros()
        return M.copy()

    def element_polys(self, coeffs: np.ndarray) -> np.ndarray:
        """Monomial coefficients (centered basis) per element: (..., nt, 6)."""
        return (self.coeffs @ self.gather(coeffs)[..., None])[..., 0]

    def element_hessians(self, coeffs: np.ndarray) -> np.ndarray:
        """Piecewise constant Hessians as (..., nt, 3) rows (hxx, hxy, hyy), from
        the quadratic rows 3:6 of ``element_polys`` alone, which round alike."""
        return hessians((self.coeffs[:, 3:6] @ self.gather(coeffs)[..., None])[..., 0], self.scales)

    def poly_values(self, t, polys: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Values sum_k c_k m_k (``monomial_terms``) of polys (..., 6) at physical
        points (..., 2) of elements t, ids broadcasting against points[..., 0]."""
        xi = self.local_coords(t, points)
        return sum(polys[..., k] * term
                   for k, term in enumerate(monomial_terms(xi[..., 0], xi[..., 1])))

    def poly_gradients(self, t, polys: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Physical gradients (..., 2), ``gradients`` over h; as ``poly_values``."""
        xi = self.local_coords(t, points)
        return gradients(polys, xi[..., 0], xi[..., 1]) / self.scales[t][..., None]


def _bin_sums(bins: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sums of weights (..., m) into n bins (m,), dropping bin -1: one
    ``np.add.at`` per leading row, adding in input order from 0.0.  Bin -1
    indexes an extra last bin, which is dropped, so the bins are not copied."""
    sums = np.zeros(weights.shape[:-1] + (n + 1,))
    for out, w in zip(sums.reshape(-1, n + 1), weights.reshape(-1, len(bins))):
        np.add.at(out, bins, w)
    return sums[..., :n]


@dataclass
class MorleyField:
    """Coefficients of Morley functions on one space: (n,) for one function, a
    C-contiguous (2, n) block for the deflection/stress state, whose rows
    ``u`` and ``v`` are views."""

    space: MorleySpace
    coeffs: np.ndarray

    @property
    def u(self) -> "MorleyField":
        return MorleyField(self.space, self.coeffs[0])

    @property
    def v(self) -> "MorleyField":
        return MorleyField(self.space, self.coeffs[1])


def build_space(mesh: Mesh) -> MorleySpace:
    return MorleySpace(mesh)


def interpolate(space: MorleySpace, v, grad) -> MorleyField:
    """Morley interpolation of a smooth function.

    v(x, y) and grad(x, y) -> (vx, vy) must accept numpy arrays.  Vertex
    dofs take point values; edge dofs take the mean normal derivative,
    computed with 3-point Gauss quadrature (``edge_rule``) along each
    edge, exact for the edge trace of grad when v is a polynomial of
    degree <= 6.
    """
    mesh = space.mesh
    coeffs = np.zeros(space.n_dofs)

    vidx = np.nonzero(space.vertex_dof >= 0)[0]
    if len(vidx):
        pts = mesh.coords[vidx]
        coeffs[space.vertex_dof[vidx]] = np.asarray(v(pts[:, 0], pts[:, 1]), dtype=float)

    eidx = np.nonzero(space.edge_dof >= 0)[0]
    if len(eidx):
        ts, ws = edge_rule()
        a = mesh.coords[mesh.edge_vertices[eidx, 0]]
        b = mesh.coords[mesh.edge_vertices[eidx, 1]]
        acc = np.zeros(len(eidx))
        for t, w in zip(ts, ws):
            p = a + t * (b - a)
            gx, gy = grad(p[:, 0], p[:, 1])
            acc += w * (
                np.asarray(gx, dtype=float) * mesh.edge_normal[eidx, 0]
                + np.asarray(gy, dtype=float) * mesh.edge_normal[eidx, 1]
            )
        coeffs[space.edge_dof[eidx]] = acc
    return MorleyField(space, coeffs)


def prolongate(coarse: MorleyField, fine_space: MorleySpace) -> MorleyField:
    """Carry a coarse MorleyField, (n,) or a (2, n) block, to the same or the refined mesh.

    Fine vertex dofs average the coarse values from every distinct
    coarse triangle meeting the vertex (two-sided on old edges); fine
    edge dofs average the one-sided coarse mean normal derivatives.  On
    fine triangles strictly inside one coarse triangle the result
    reproduces the coarse quadratic exactly.  The fine mesh is the coarse
    one or its refinement (``ancestor_map``); a block is carried in one pass.

    All distinct (fine entity, coarse ancestor) pairs are evaluated in
    one batch.  Each dof then sums its pairs in ascending ancestor id,
    starting from 0.0 (``np.bincount`` adds in input order), and divides
    by their count: the same operations in the same order as averaging
    one entity at a time, so the coefficients are bit-identical to that.
    Normal derivatives use ``np.vecdot``, which rounds like the dot
    product of one gradient with one normal; the expanded
    ``gx*nx + gy*ny`` can differ in the last bit.
    """
    cspace = coarse.space
    cmesh = cspace.mesh
    fmesh = fine_space.mesh
    if fmesh is cmesh:
        return MorleyField(fine_space, coarse.coeffs.copy())
    anc = ancestor_map(cmesh, fmesh)
    polys = cspace.element_polys(coarse.coeffs)
    nc = cmesh.n_triangles

    def distinct_pairs(entity, ancestor):
        # Sorted by entity, then by ancestor id.
        key = np.unique(entity * nc + ancestor)
        return key // nc, key % nc

    v, va = distinct_pairs(fmesh.tri_vertices.ravel(), np.repeat(anc, 3))
    has_tri = fmesh.edge_tris >= 0
    e, ea = distinct_pairs(np.nonzero(has_tri)[0], anc[fmesh.edge_tris[has_tri]])

    vals = cspace.poly_values(va, polys[..., va, :], fmesh.coords[v])
    grads = cspace.poly_gradients(ea, polys[..., ea, :], fine_space._midpoints[e])
    slopes = np.vecdot(grads, fmesh.edge_normal[e])

    dof = np.concatenate([fine_space.vertex_dof[v], fine_space.edge_dof[e]])
    weights = np.concatenate([vals, slopes], axis=-1)
    n = fine_space.n_dofs
    counts = np.bincount(dof[dof >= 0], minlength=n)
    return MorleyField(fine_space, _bin_sums(dof, weights, n) / counts)
