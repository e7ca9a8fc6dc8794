"""Triangulations of the extended 2D cross-section, with region tags and the
geometric ray queries needed by the absorbing-layer construction.

The extended domain is an inner region of interest surrounded by a layer.
Meshes are generated structurally (rings for disks, alternating-diagonal grids
for rectangles) so that the inner boundary is resolved exactly by element
edges and uniform refinement yields nested vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

__all__ = [
    "INTERIOR",
    "LAYER",
    "Disk",
    "Rect",
    "GeometrySpec",
    "Mesh2D",
    "GeometryError",
    "build_mesh",
    "uniform_refine",
    "p1_prolong",
    "p0_prolong",
    "ray_exit_distance",
    "boundary_mass_matrix",
    "edge_local_mass",
    "submesh_interior",
    "save_mesh",
    "load_mesh",
]

INTERIOR = 0
LAYER = 1

# the most triangles a built or refined mesh may have, about 55 times the
# largest mesh the benchmark solves (75,264); checked before allocation
MAX_TRIANGLES = 2**22


class GeometryError(ValueError):
    """Raised for degenerate or unsupported geometric configurations."""


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if not np.isfinite([self.cx, self.cy, self.radius]).all():
            raise GeometryError(f"disk parameters must be finite, got {self}")
        if not self.radius > 0:
            raise GeometryError(f"disk radius must be positive, got {self.radius}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def distance(self, p) -> np.ndarray:
        """Signed distance to the boundary (negative inside)."""
        p = np.atleast_2d(p)
        return np.linalg.norm(p - self.center, axis=1) - self.radius

    def boundary_points(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n boundary samples and their outward unit normals."""
        ang = 2 * np.pi * np.arange(n) / n
        nrm = np.column_stack([np.cos(ang), np.sin(ang)])
        return self.center + self.radius * nrm, nrm

    def entry_distance(self, r: np.ndarray, u: np.ndarray) -> float:
        """Smallest t >= 0 with r - t*u inside the disk; inf if the backward
        ray misses."""
        d = r - self.center
        b = d @ u
        disc = b * b - (d @ d - self.radius**2)
        if disc < 0.0:
            return np.inf
        t = b - np.sqrt(disc)
        if t < -1e-12:
            return np.inf
        return max(t, 0.0)


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (np.isfinite([self.x0, self.y0, self.x1, self.y1]).all()
                and self.x0 < self.x1 and self.y0 < self.y1):
            raise GeometryError(f"rectangle needs finite x0 < x1 and y0 < y1, got {self}")

    def contains(self, p) -> np.ndarray:
        p = np.atleast_2d(p)
        return ((p[:, 0] >= self.x0) & (p[:, 0] <= self.x1)
                & (p[:, 1] >= self.y0) & (p[:, 1] <= self.y1))

    def distance(self, p) -> np.ndarray:
        p = np.atleast_2d(p)
        dx = np.maximum(np.maximum(self.x0 - p[:, 0], p[:, 0] - self.x1), 0.0)
        dy = np.maximum(np.maximum(self.y0 - p[:, 1], p[:, 1] - self.y1), 0.0)
        outside = np.hypot(dx, dy)
        inside = np.maximum(np.maximum(self.x0 - p[:, 0], p[:, 0] - self.x1),
                            np.maximum(self.y0 - p[:, 1], p[:, 1] - self.y1))
        return np.where(outside > 0, outside, inside)

    def boundary_points(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        per_side = max(2, n // 4)
        pts, nrms = [], []
        sides = [((self.x0, self.y0), (self.x1, self.y0), (0.0, -1.0)),
                 ((self.x1, self.y0), (self.x1, self.y1), (1.0, 0.0)),
                 ((self.x1, self.y1), (self.x0, self.y1), (0.0, 1.0)),
                 ((self.x0, self.y1), (self.x0, self.y0), (-1.0, 0.0))]
        for a, b, nrm in sides:
            t = np.linspace(0.0, 1.0, per_side, endpoint=False)
            pts.append(np.array(a) + t[:, None] * (np.array(b) - np.array(a)))
            nrms.append(np.tile(nrm, (per_side, 1)))
        return np.vstack(pts), np.vstack(nrms)

    def entry_distance(self, r: np.ndarray, u: np.ndarray) -> float:
        tmin, tmax = -np.inf, np.inf
        lo = np.array([self.x0, self.y0])
        hi = np.array([self.x1, self.y1])
        for i in range(2):
            if abs(u[i]) < 1e-14:
                if r[i] < lo[i] - 1e-14 or r[i] > hi[i] + 1e-14:
                    return np.inf
                continue
            # moving point r - t*u stays in the slab for t in [ta, tb]
            ta = (r[i] - hi[i]) / u[i]
            tb = (r[i] - lo[i]) / u[i]
            if ta > tb:
                ta, tb = tb, ta
            tmin, tmax = max(tmin, ta), min(tmax, tb)
        if tmax < tmin or tmax < -1e-12:
            return np.inf
        return max(tmin, 0.0)


Shape = Disk | Rect


@dataclass(frozen=True)
class GeometrySpec:
    """Inner region of interest plus the extension that carries the absorbing
    layer, in one of the two layouts :func:`build_mesh` meshes: a disk in a
    concentric disk, or a rectangle strictly inside a rectangle."""

    inner: Shape
    outer: Shape

    def __post_init__(self):
        inner, outer = self.inner, self.outer
        if isinstance(inner, Disk) and isinstance(outer, Disk):
            if inner.cx != outer.cx or inner.cy != outer.cy:  # also trips on NaN
                raise GeometryError("a disk layout needs concentric disks")
        elif not (isinstance(inner, Rect) and isinstance(outer, Rect)):
            raise GeometryError("the layout must be a disk in a concentric disk "
                                "or a rectangle in a rectangle")
        if not self.layer_depth > 0:
            raise GeometryError("inner region must be compactly contained in the outer one")

    def _sides(self) -> list[tuple[float, float]]:
        """(gap, span) per side of a rectangle layout, bottom, top, left, right:
        the gap between the inner and outer side and the longest reach along
        the side from the inner rectangle to an outer corner."""
        i, o = self.inner, self.outer
        span_x = max(o.x1 - i.x0, i.x1 - o.x0)
        span_y = max(o.y1 - i.y0, i.y1 - o.y0)
        return [(i.y0 - o.y0, span_x), (o.y1 - i.y1, span_x),
                (i.x0 - o.x0, span_y), (o.x1 - i.x1, span_y)]

    @property
    def layer_depth(self) -> float:
        """Minimal distance between the outer boundary and the inner region:
        R - r, or the smallest of the four gaps."""
        if isinstance(self.inner, Disk):
            return float(self.outer.radius - self.inner.radius)
        return float(min(gap for gap, _ in self._sides()))

    @property
    def grazing_sine(self) -> float:
        """Minimal in-plane incidence u.n over outer-boundary points and
        travel directions u that reach them from the inner region:
        sqrt(1 - (r/R)^2) along a tangent to the inner circle, or the
        smallest gap / hypot(gap, span) over the four sides."""
        if isinstance(self.inner, Disk):
            return float(np.sqrt(1.0 - (self.inner.radius / self.outer.radius) ** 2))
        return float(min(gap / np.hypot(gap, span) for gap, span in self._sides()))


class _EdgeTable(NamedTuple):
    """The unique edges of a triangulation in first-seen order over
    (triangle t, local edge k = (t[k], t[(k+1) % 3]))."""

    ends: np.ndarray       # (ne, 2) endpoints, oriented as first seen
    first: np.ndarray      # (ne,) first flat position 3t + k
    counts: np.ndarray     # (ne,) triangles holding the edge: 1 on the boundary
    tri_edges: np.ndarray  # (nt, 3) edge of each local edge k


@dataclass
class Mesh2D:
    """Conforming triangulation of the extended domain with region tags.

    The arrays are not mutated after construction: the derived geometry and
    topology are cached on first use.  A mesh made by :func:`uniform_refine`
    records the mesh it refines as ``parent``, so the nested chain down to
    the mesh that was built or loaded is reachable from the finest one."""

    vertices: np.ndarray   # (nv, 2)
    triangles: np.ndarray  # (nt, 3) int
    tags: np.ndarray       # (nt,) uint8, INTERIOR or LAYER
    h: float
    parent: Mesh2D | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.tags = np.ascontiguousarray(self.tags, dtype=np.uint8)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def check_refinement(self, levels: int) -> None:
        """Raise GeometryError, before any refinement is made, when ``levels``
        uniform refinements of this mesh would hold more than MAX_TRIANGLES
        triangles.  Each refinement quadruples the count and
        4**MAX_TRIANGLES.bit_length() already exceeds the cap, so the
        exponent is capped there: a huge ``levels`` decides the same and
        4**levels is never formed."""
        if self.n_triangles * 4 ** min(levels, MAX_TRIANGLES.bit_length()) > MAX_TRIANGLES:
            raise GeometryError(f"refinement level {levels} of a {self.n_triangles}-triangle "
                                f"mesh exceeds MAX_TRIANGLES = {MAX_TRIANGLES}")

    @cached_property
    def areas(self) -> np.ndarray:
        # edge 2 runs from corner 2 to corner 0, so c - a = -(ex2, ey2)
        _, _, ex, ey = self._corners.transpose(1, 0, 2)
        return 0.5 * (ey[:, 0] * ex[:, 2] - ex[:, 0] * ey[:, 2])

    @cached_property
    def centroids(self) -> np.ndarray:
        x, y = self._corners[:, 0], self._corners[:, 1]
        return np.column_stack([x[:, 0] + x[:, 1] + x[:, 2], y[:, 0] + y[:, 1] + y[:, 2]]) / 3.0

    @cached_property
    def gradients(self) -> np.ndarray:
        """|T| d_i(phi_a), i = x, y, of the basis function of each corner a,
        (2, 3, nt), triangles innermost: the opposite edge turned a quarter
        counterclockwise, halved."""
        ex, ey = self._corners[:, 2:, [1, 2, 0]].transpose(1, 2, 0)
        return np.ascontiguousarray([-0.5 * ey, 0.5 * ex])

    @cached_property
    def gradient_matrices(self) -> tuple[csr_matrix, csr_matrix]:
        """(G_x, G_y), sparse (n_triangles, n_vertices), entries |T| d_i(phi_j):
        integrals of P1 gradients against the P0 indicator of each triangle."""
        rows = np.repeat(np.arange(self.n_triangles), 3)
        cols = self.triangles.ravel()
        shape = (self.n_triangles, self.n_vertices)
        return tuple(csr_matrix((g.T.ravel(), (rows, cols)), shape=shape) for g in self.gradients)

    @cached_property
    def _edges(self) -> _EdgeTable:
        """The edge table, built on first use.  The boundary record, the
        conformity check, refinement, the P1 prolongation, the P1 pattern and
        the oracle's neighbour table all read it."""
        starts = self.triangles.ravel()
        ends = np.roll(self.triangles, -1, axis=1).ravel()
        keys = np.minimum(starts, ends) * self.n_vertices + np.maximum(starts, ends)
        _, first, inverse, counts = np.unique(keys, return_index=True,
                                              return_inverse=True, return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        first = first[order]
        return _EdgeTable(ends=np.column_stack([starts[first], ends[first]]), first=first,
                          counts=counts[order], tri_edges=rank[inverse].reshape(-1, 3))

    @cached_property
    def _pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The P1 pattern, each vertex with itself and the ends of each edge
        with each other: CSR indptr and indices (32-bit, as scipy keeps them,
        so matrices share them) and the position of the nine local pairs
        (t[a], t[b]) of each triangle t, (nt, 9) row-major.  indptr and
        indices are read-only: an in-place rewrite of one pattern matrix's
        structure (``eliminate_zeros``, ``sort_indices``, ``sum_duplicates``)
        raises ValueError instead of rewriting the pattern of every matrix
        on the mesh."""
        nv, ends, tri_edges = self.n_vertices, self._edges.ends, self._edges.tri_edges
        rows = np.concatenate([np.arange(nv), ends[:, 0], ends[:, 1]])
        cols = np.concatenate([np.arange(nv), ends[:, 1], ends[:, 0]])
        order = np.argsort(rows * nv + cols)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # local edge k is table edge e: (t[k], t[k+1]) is entry nv + e where the
        # table stores e starting at t[k], else its reverse nv + ne + e
        own = ends[tri_edges, 0] == self.triangles
        fwd, bwd = nv + tri_edges + len(ends) * ~own, nv + tri_edges + len(ends) * own
        t = self.triangles
        scatter = rank[np.column_stack([t[:, 0], fwd[:, 0], bwd[:, 2], bwd[:, 0], t[:, 1],
                                        fwd[:, 1], fwd[:, 2], bwd[:, 1], t[:, 2]])]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nv))])
        indptr, indices = indptr.astype(np.int32), cols[order].astype(np.int32)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices, scatter

    def pattern_matrix(self, data: np.ndarray) -> csr_matrix:
        """The CSR matrix holding ``data`` on the P1 pattern; all such
        matrices share the pattern's read-only indptr and indices, so a
        zero-free form of one is a copy."""
        indptr, indices, _ = self._pattern
        return csr_matrix((data, indices, indptr), shape=(self.n_vertices,) * 2)

    def assemble(self, local: np.ndarray, triangles: np.ndarray | None = None) -> np.ndarray:
        """The data on the P1 pattern (:meth:`pattern_matrix`) summing local
        values (..., k, 3, 3) of ``triangles`` (default all; one may repeat),
        entry (a, b) at (t[a], t[b]), over every leading axis too: one
        bincount over the triangles' positions broadcast across the leading
        axes, so each entry adds its values in the order of the flattened
        ``local``."""
        scatter = self._pattern[2] if triangles is None else self._pattern[2][triangles]
        index = np.broadcast_to(scatter, local.shape[:-3] + scatter.shape)
        return np.bincount(index.ravel(), weights=local.ravel(), minlength=self._pattern[1].size)

    @cached_property
    def prolongation(self) -> csr_matrix:
        """The P1 prolongation to this mesh's uniform refinement, (nv + ne, nv):
        identity on the vertices and 1/2, 1/2 on the midpoint of each edge of
        the edge table, in table order.  Exact for continuous piecewise-linear
        functions on the nested grids."""
        nv, ends = self.n_vertices, self._edges.ends
        ne = ends.shape[0]
        rows = np.concatenate([np.arange(nv), np.repeat(nv + np.arange(ne), 2)])
        cols = np.concatenate([np.arange(nv), ends.ravel()])
        vals = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
        return csr_matrix((vals, (rows, cols)), shape=(nv + ne, nv))

    @cached_property
    def _ray_paths(self) -> dict:
        """The oracle's sweep rays traced along each planar direction, filled
        on first use by :class:`pnpml.oracle.SweepOperator`."""
        return {}

    @cached_property
    def _corners(self) -> np.ndarray:
        """Corners x, y and edge vectors ex, ey (edge k: corner k to k + 1),
        (nt, 4, 3); areas, centroids, the P1 gradients and the oracle's ray
        walk read it."""
        x, y = self.vertices[self.triangles, 0], self.vertices[self.triangles, 1]
        return np.stack([x, y, x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y], axis=1)

    @cached_property
    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Across each local edge k of each triangle, both (nt, 3): the
        neighbour triangle or -1, and the ``boundary_edges`` index or -1."""
        edge, counts = self._edges.tri_edges, self._edges.counts
        flat = np.arange(edge.size).reshape(edge.shape)
        # the flat positions 3t + k of an interior edge's two holders sum to its total
        total = np.bincount(edge.ravel(), weights=flat.ravel()).astype(np.int64)
        owner, local = self._boundary[3:]
        bnd = np.full(edge.shape, -1)
        bnd[owner, local] = np.arange(owner.size)
        return np.where(counts[edge] == 2, (total[edge] - flat) // 3, -1), bnd

    @cached_property
    def _boundary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(edges, outward normals, lengths, owner triangles, local edges) of
        the outer boundary: the edges of the table that one triangle t holds,
        edge e = (t[k], t[k+1]) at local edge k."""
        table = self._edges
        bdry = table.counts == 1
        be = table.ends[bdry]
        owner, local = np.divmod(table.first[bdry], 3)
        # outward normal: rotate the (oriented) edge tangent; with CCW
        # triangles the edge (a, b) traverses the boundary CCW, so the
        # outward normal is the clockwise rotation of the tangent
        tang = self.vertices[be[:, 1]] - self.vertices[be[:, 0]]
        lengths = np.linalg.norm(tang, axis=1)
        nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
        return be, nrm, lengths, owner, local

    @property
    def boundary_edges(self) -> np.ndarray:
        return self._boundary[0]

    @property
    def boundary_normals(self) -> np.ndarray:
        return self._boundary[1]

    @property
    def boundary_lengths(self) -> np.ndarray:
        return self._boundary[2]

    @property
    def boundary_owners(self) -> np.ndarray:
        """The triangle that owns each boundary edge."""
        return self._boundary[3]

    @property
    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def validate(self):
        """Check conformity and orientation; raises on violation."""
        if np.any(self.areas <= 0):
            raise GeometryError("mesh has non-positive triangle areas")
        if np.any(self._edges.counts > 2):
            raise GeometryError("mesh is not conforming")
        return self


def _check_size(n_triangles: int):
    if n_triangles > MAX_TRIANGLES:
        raise GeometryError(f"{n_triangles} triangles exceed MAX_TRIANGLES = {MAX_TRIANGLES}")


def _cells(length: float, h: float, what: str) -> int:
    """round(length / h), the number of cells of size h along length.  The
    mesh holds at least that many triangles, so a ratio above MAX_TRIANGLES,
    or one that is infinite because h is subnormal, raises before it is
    rounded."""
    ratio = length / h
    if not ratio <= MAX_TRIANGLES:
        raise GeometryError(f"{what} ({length}) spans {ratio:.3g} cells of size {h}, "
                            f"more than MAX_TRIANGLES = {MAX_TRIANGLES}")
    return round(ratio)


def _build_disk_mesh(inner: Disk, outer: Disk, h: float) -> Mesh2D:
    k_in = max(1, _cells(inner.radius, h, "inner radius"))
    k_lay = max(1, _cells(outer.radius - inner.radius, inner.radius / k_in, "layer depth"))
    _check_size(6 * (k_in + k_lay) ** 2)  # ring i holds 6 (2i - 1) triangles
    radii = np.concatenate([
        np.linspace(0.0, inner.radius, k_in + 1),
        inner.radius + (outer.radius - inner.radius) * np.arange(1, k_lay + 1) / k_lay,
    ])
    n_rings = k_in + k_lay

    verts = [np.array([[0.0, 0.0]])]
    ring_start = [0]
    for i in range(1, n_rings + 1):
        ring_start.append(ring_start[-1] + (6 * (i - 1) if i > 1 else 1))
        ang = 2 * np.pi * np.arange(6 * i) / (6 * i)
        verts.append(radii[i] * np.column_stack([np.cos(ang), np.sin(ang)]))
    vertices = np.vstack(verts) + inner.center

    tris, tags = [], []
    for i in range(1, n_rings + 1):
        tag = INTERIOR if i <= k_in else LAYER
        n_out, n_in = 6 * i, 6 * (i - 1)
        base_out, base_in = ring_start[i], ring_start[i - 1]
        if i == 1:
            for j in range(6):
                tris.append([base_out + j, base_out + (j + 1) % 6, 0])
                tags.append(tag)
            continue
        for s in range(6):
            for j in range(i):
                o0 = base_out + (s * i + j) % n_out
                o1 = base_out + (s * i + j + 1) % n_out
                i0 = base_in + (s * (i - 1) + j) % n_in
                tris.append([o0, o1, i0])
                tags.append(tag)
            for j in range(i - 1):
                o1 = base_out + (s * i + j + 1) % n_out
                i0 = base_in + (s * (i - 1) + j) % n_in
                i1 = base_in + (s * (i - 1) + j + 1) % n_in
                tris.append([o1, i1, i0])
                tags.append(tag)

    return Mesh2D(vertices=vertices, triangles=np.array(tris, dtype=np.int64),
                  tags=np.array(tags, dtype=np.uint8), h=h)


def _check_aligned(value: float, h: float, what: str):
    if abs(value / h - _cells(value, h, what)) > 1e-9:
        raise GeometryError(f"{what} ({value}) must be an integer multiple of h ({h})")


def _build_rect_mesh(inner: Rect, outer: Rect, h: float) -> Mesh2D:
    for val, what in [(outer.x1 - outer.x0, "outer width"), (outer.y1 - outer.y0, "outer height"),
                      (inner.x0 - outer.x0, "left gap"), (inner.y0 - outer.y0, "bottom gap"),
                      (inner.x1 - inner.x0, "inner width"), (inner.y1 - inner.y0, "inner height")]:
        _check_aligned(val, h, what)
    nx = round((outer.x1 - outer.x0) / h)
    ny = round((outer.y1 - outer.y0) / h)
    _check_size(2 * nx * ny)

    xs = outer.x0 + h * np.arange(nx + 1)
    ys = outer.y0 + h * np.arange(ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # cells row by row; the diagonal alternates with ix + iy
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    v00 = iy * (nx + 1) + ix
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    even = ((ix + iy) % 2 == 0)[:, None]
    first = np.where(even, np.column_stack([v00, v10, v11]), np.column_stack([v00, v10, v01]))
    second = np.where(even, np.column_stack([v00, v11, v01]), np.column_stack([v10, v11, v01]))
    centres = np.column_stack([outer.x0 + (ix + 0.5) * h, outer.y0 + (iy + 0.5) * h])
    tags = np.where(inner.contains(centres), INTERIOR, LAYER)
    return Mesh2D(vertices=vertices, triangles=np.stack([first, second], axis=1).reshape(-1, 3),
                  tags=np.repeat(tags, 2), h=h)


def build_mesh(spec: GeometrySpec, h: float) -> Mesh2D:
    """Structured mesh of the extended domain; the inner boundary is resolved
    exactly by element edges and every triangle carries a region tag.  A mesh
    of more than MAX_TRIANGLES triangles raises before it is allocated."""
    if not (np.isfinite(h) and h > 0):
        raise GeometryError(f"mesh size must be positive and finite, got {h}")
    build = _build_disk_mesh if isinstance(spec.inner, Disk) else _build_rect_mesh
    return build(spec.inner, spec.outer, h).validate()


def uniform_refine(mesh: Mesh2D) -> Mesh2D:
    """Split every triangle into four via edge midpoints.  The coarse vertex
    set is a prefix of the fine one, new vertex nv + k is the midpoint of
    edge k of the coarse edge table, and the central child of triangle t is
    child 4*t + 3, which keeps nested prolongation exact.  The fine mesh
    records ``mesh`` as its parent."""
    mesh.check_refinement(1)
    a, b, c = mesh.triangles.T
    ab, bc, ca = (mesh.n_vertices + mesh._edges.tri_edges).T
    tris = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca]).reshape(-1, 3)
    return Mesh2D(vertices=mesh.prolongation @ mesh.vertices, triangles=tris,
                  tags=np.repeat(mesh.tags, 4), h=mesh.h / 2, parent=mesh)


def p1_prolong(coarse: Mesh2D, values: np.ndarray) -> np.ndarray:
    """Prolong P1 vertex data (nv_coarse,) or (nv_coarse, k) one refinement
    level with ``coarse.prolongation``."""
    return coarse.prolongation @ values


def p0_prolong(values: np.ndarray) -> np.ndarray:
    """Prolong P0 triangle data one refinement level (children inherit)."""
    return np.repeat(values, 4, axis=0)


def ray_exit_distance(spec: GeometrySpec, r, s) -> float:
    """Backward travel distance from r (in the layer or on the outer boundary)
    to the inner region along direction -s, measured as 3D arc length of the
    z-invariant characteristic; inf if the backward ray misses."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if spec.inner.distance(r[None, :])[0] < -1e-12:
        raise GeometryError("point lies strictly inside the inner region")
    p = np.hypot(s[0], s[1])
    if p <= 1e-14:
        return np.inf
    u = np.array([s[0], s[1]]) / p
    t_planar = spec.inner.entry_distance(r, u)
    return t_planar / p


def edge_local_mass(length) -> np.ndarray:
    """Exact P1 mass matrix of a boundary edge of the given length; an array
    of lengths gives one (2, 2) matrix per length."""
    return np.asarray(length)[..., None, None] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def boundary_mass_matrix(mesh: Mesh2D) -> csr_matrix:
    """P1 mass matrix over the outer boundary curve, on the mesh's P1 pattern:
    nonzero exactly at the boundary pairs, so rows and columns of interior
    vertices hold stored zeros only."""
    # each edge's 2 x 2 at the corners (k, k+1) of its owner's local edge k,
    # zeros elsewhere: adding +0.0 leaves every sum as the edge terms give it
    _, _, lengths, owners, k = mesh._boundary
    ends = np.column_stack([k, (k + 1) % 3])
    local = np.zeros((owners.size, 3, 3))
    local[np.arange(owners.size)[:, None, None], ends[:, :, None], ends[:, None, :]] = \
        edge_local_mass(lengths)
    return mesh.pattern_matrix(mesh.assemble(local, owners))


def submesh_interior(mesh: Mesh2D) -> tuple[Mesh2D, np.ndarray, np.ndarray]:
    """Extract the conforming mesh formed by the INTERIOR triangles.

    Returns (sub_mesh, vertex_map, triangle_map) where vertex_map[i] is the
    parent index of sub-mesh vertex i and triangle_map likewise for triangles.
    """
    tri_map = np.flatnonzero(mesh.tags == INTERIOR)
    used = np.unique(mesh.triangles[tri_map])
    renum = -np.ones(mesh.n_vertices, dtype=np.int64)
    renum[used] = np.arange(used.size)
    sub = Mesh2D(vertices=mesh.vertices[used],
                 triangles=renum[mesh.triangles[tri_map]],
                 tags=np.zeros(tri_map.size, dtype=np.uint8),
                 h=mesh.h)
    return sub, used, tri_map


def save_mesh(mesh: Mesh2D, path) -> None:
    """Write the mesh as text: a header ``vertices nv triangles nt h <h>``,
    then one ``x y`` row per vertex and one ``i j k tag`` row per triangle."""
    with open(path, "w") as f:
        f.write(f"vertices {mesh.n_vertices} triangles {mesh.n_triangles} "
                f"h {float(mesh.h)!r}\n")
        for x, y in mesh.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.tags):
            f.write(f"{i} {j} {k} {int(tag)}\n")


def load_mesh(path, h: float | None = None) -> Mesh2D:
    """Read a mesh written by :func:`save_mesh`; a malformed file raises
    ``ValueError``.  ``h`` overrides the header's h; a header without one
    (``vertices nv triangles nt``) gives the median edge length."""
    lines = Path(path).read_text().splitlines()
    head = lines[0].split() if lines else []
    if (len(head) not in (4, 6) or head[0] != "vertices" or head[2] != "triangles"
            or (len(head) == 6 and head[4] != "h")):
        raise ValueError("bad mesh file header")
    nv, nt = int(head[1]), int(head[3])
    for value, what in [(h, "h"), (head[5] if len(head) == 6 else None, "mesh file h")]:
        if value is not None and not (np.isfinite(float(value)) and float(value) > 0):
            raise ValueError(f"{what} must be positive and finite, got {value}")
    if h is None and len(head) == 6:
        h = float(head[5])
    if nv < 0 or nt < 1 or len(lines) < 1 + nv + nt:
        raise ValueError(f"mesh file holds {len(lines) - 1} rows for {nv} vertices "
                         f"and {nt} triangles")
    vertices = np.array([ln.split() for ln in lines[1:1 + nv]], dtype=float).reshape(nv, 2)
    body = np.array([ln.split() for ln in lines[1 + nv:1 + nv + nt]],
                    dtype=np.int64).reshape(nt, 4)
    triangles, tags = body[:, :3], body[:, 3]
    if np.any((triangles < 0) | (triangles >= nv)):
        raise ValueError("mesh file has a vertex index outside [0, n_vertices)")
    if not np.isin(tags, (INTERIOR, LAYER)).all():
        raise ValueError("mesh file has a region tag other than INTERIOR or LAYER")
    mesh = Mesh2D(vertices=vertices, triangles=triangles, tags=tags, h=h or 0.0)
    if h is None:
        mesh.h = float(np.median(np.linalg.norm(mesh._corners[:, 2:, 0], axis=1)))
    return mesh.validate()
