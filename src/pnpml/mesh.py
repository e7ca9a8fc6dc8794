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


class GeometryError(ValueError):
    """Raised for degenerate or unsupported geometric configurations."""


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def contains(self, p, tol: float = 0.0) -> np.ndarray:
        p = np.atleast_2d(p)
        d = np.linalg.norm(p - self.center, axis=1)
        return d <= self.radius + tol

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

    def min_hit_incidence(self, v: np.ndarray, n: np.ndarray) -> float:
        """Minimum of s.n over in-plane travel directions s that reach v from
        the disk (the grazing incidence)."""
        d = v - self.center
        dist = np.linalg.norm(d)
        if dist <= self.radius:
            return 0.0
        # travel directions form a cone of half-angle beta about unit(v - c)
        w = d / dist
        beta = np.arcsin(min(1.0, self.radius / dist))
        cb, sb = np.cos(beta), np.sin(beta)
        wp = np.array([-w[1], w[0]])
        return min((w * cb + sgn * wp * sb) @ n for sgn in (-1.0, 1.0))

    def area(self) -> float:
        return np.pi * self.radius**2


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise GeometryError("rectangle must have positive extents")

    @property
    def corners(self) -> np.ndarray:
        return np.array([[self.x0, self.y0], [self.x1, self.y0],
                         [self.x1, self.y1], [self.x0, self.y1]])

    def contains(self, p, tol: float = 0.0) -> np.ndarray:
        p = np.atleast_2d(p)
        return ((p[:, 0] >= self.x0 - tol) & (p[:, 0] <= self.x1 + tol)
                & (p[:, 1] >= self.y0 - tol) & (p[:, 1] <= self.y1 + tol))

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

    def min_hit_incidence(self, v: np.ndarray, n: np.ndarray) -> float:
        d = v[None, :] - self.corners
        nd = np.linalg.norm(d, axis=1)
        if np.any(nd < 1e-14):
            return 0.0
        return float(np.min((d / nd[:, None]) @ n))

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


Shape = Disk | Rect


@dataclass(frozen=True)
class GeometrySpec:
    """Inner region of interest plus the convex extension that carries the
    absorbing layer."""

    inner: Shape
    outer: Shape
    _n_samples: int = field(default=2048, repr=False)

    def __post_init__(self):
        pts, _ = self.inner.boundary_points(256)
        d = self.outer.distance(pts)
        if np.any(d >= -1e-12):
            raise GeometryError("inner region must be compactly contained in the outer one")

    @property
    def layer_depth(self) -> float:
        """Minimal distance between the outer boundary and the inner region."""
        pts, _ = self.outer.boundary_points(self._n_samples)
        return float(np.min(self.inner.distance(pts)))

    @property
    def grazing_sine(self) -> float:
        """Minimal in-plane incidence u.n over outer-boundary points and
        backward directions u that reach the inner region."""
        pts, nrms = self.outer.boundary_points(self._n_samples)
        vals = [self.inner.min_hit_incidence(p, n) for p, n in zip(pts, nrms)]
        return float(np.min(vals))


class _EdgeTable(NamedTuple):
    """The unique edges of a triangulation in first-seen order over
    (triangle t, local edge k = (t[k], t[(k+1) % 3]))."""

    ends: np.ndarray       # (ne, 2) endpoints, oriented as first seen
    first: np.ndarray      # (ne,) first flat position 3t + k
    counts: np.ndarray     # (ne,) triangles holding the edge: 1 on the boundary
    tri_edges: np.ndarray  # (nt, 3) edge of each local edge k


@dataclass
class Mesh2D:
    """Conforming triangulation of the extended domain with region tags."""

    vertices: np.ndarray   # (nv, 2)
    triangles: np.ndarray  # (nt, 3) int
    tags: np.ndarray       # (nt,) uint8, INTERIOR or LAYER
    h: float

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

    def corner_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = self.triangles
        return self.vertices[t[:, 0]], self.vertices[t[:, 1]], self.vertices[t[:, 2]]

    @property
    def areas(self) -> np.ndarray:
        a, b, c = self.corner_coords()
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))

    @property
    def centroids(self) -> np.ndarray:
        a, b, c = self.corner_coords()
        return (a + b + c) / 3.0

    @cached_property
    def _edges(self) -> _EdgeTable:
        """The edge table, built on first use."""
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
    def _boundary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(edges, outward normals, lengths, owner triangles) of the outer
        boundary: the edges of the table that one triangle holds."""
        table = self._edges
        bdry = table.counts == 1
        be, owner = table.ends[bdry], table.first[bdry] // 3
        # outward normal: rotate the (oriented) edge tangent; with CCW
        # triangles the edge (a, b) traverses the boundary CCW, so the
        # outward normal is the clockwise rotation of the tangent
        tang = self.vertices[be[:, 1]] - self.vertices[be[:, 0]]
        lengths = np.linalg.norm(tang, axis=1)
        nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
        return be, nrm, lengths, owner

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


def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    flipped = triangles.copy()
    neg = det < 0
    flipped[neg, 1], flipped[neg, 2] = triangles[neg, 2], triangles[neg, 1]
    return flipped


def _disk_ring_counts(inner: Disk, outer: Disk, h: float) -> tuple[int, int]:
    if np.linalg.norm(inner.center - outer.center) > 1e-12:
        raise GeometryError("structured disk meshes require concentric disks")
    k_in = max(1, round(inner.radius / h))
    d_in = inner.radius / k_in
    depth = outer.radius - inner.radius
    k_lay = max(1, round(depth / d_in))
    return k_in, k_lay


def _build_disk_mesh(inner: Disk, outer: Disk, h: float) -> Mesh2D:
    k_in, k_lay = _disk_ring_counts(inner, outer, h)
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

    triangles = _orient_ccw(vertices, np.array(tris, dtype=np.int64))
    return Mesh2D(vertices=vertices, triangles=triangles,
                  tags=np.array(tags, dtype=np.uint8), h=h)


def _check_aligned(value: float, h: float, what: str):
    ratio = value / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise GeometryError(f"{what} ({value}) must be an integer multiple of h ({h})")


def _build_rect_mesh(inner: Rect, outer: Rect, h: float) -> Mesh2D:
    for val, what in [(outer.x1 - outer.x0, "outer width"), (outer.y1 - outer.y0, "outer height"),
                      (inner.x0 - outer.x0, "left gap"), (inner.y0 - outer.y0, "bottom gap"),
                      (inner.x1 - inner.x0, "inner width"), (inner.y1 - inner.y0, "inner height")]:
        _check_aligned(val, h, what)
    nx = round((outer.x1 - outer.x0) / h)
    ny = round((outer.y1 - outer.y0) / h)

    xs = outer.x0 + h * np.arange(nx + 1)
    ys = outer.y0 + h * np.arange(ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    tris, tags = [], []
    for iy in range(ny):
        for ix in range(nx):
            cxm = outer.x0 + (ix + 0.5) * h
            cym = outer.y0 + (iy + 0.5) * h
            tag = INTERIOR if inner.contains([[cxm, cym]])[0] else LAYER
            v00, v10 = vid(ix, iy), vid(ix + 1, iy)
            v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
            if (ix + iy) % 2 == 0:
                tris += [[v00, v10, v11], [v00, v11, v01]]
            else:
                tris += [[v00, v10, v01], [v10, v11, v01]]
            tags += [tag, tag]

    triangles = _orient_ccw(vertices, np.array(tris, dtype=np.int64))
    return Mesh2D(vertices=vertices, triangles=triangles,
                  tags=np.array(tags, dtype=np.uint8), h=h)


def build_mesh(spec: GeometrySpec, h: float) -> Mesh2D:
    """Structured mesh of the extended domain; the inner boundary is resolved
    exactly by element edges and every triangle carries a region tag."""
    if h <= 0:
        raise GeometryError("mesh size must be positive")
    if isinstance(spec.inner, Disk) and isinstance(spec.outer, Disk):
        mesh = _build_disk_mesh(spec.inner, spec.outer, h)
    elif isinstance(spec.inner, Rect) and isinstance(spec.outer, Rect):
        mesh = _build_rect_mesh(spec.inner, spec.outer, h)
    else:
        raise GeometryError("structured meshing supports disk-in-disk and "
                            "rectangle-in-rectangle layouts only")
    return mesh.validate()


def uniform_refine(mesh: Mesh2D) -> Mesh2D:
    """Split every triangle into four via edge midpoints.  The coarse vertex
    set is a prefix of the fine one, new vertex nv + k is the midpoint of
    edge k of the coarse edge table, and the central child of triangle t is
    child 4*t + 3, which keeps nested prolongation exact."""
    table = mesh._edges
    a, b, c = mesh.triangles.T
    ab, bc, ca = (mesh.n_vertices + table.tri_edges).T
    tris = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca]).reshape(-1, 3)
    new_verts = 0.5 * (mesh.vertices[table.ends[:, 0]] + mesh.vertices[table.ends[:, 1]])
    vertices = np.vstack([mesh.vertices, new_verts])
    return Mesh2D(vertices=vertices, triangles=tris, tags=np.repeat(mesh.tags, 4),
                  h=mesh.h / 2)


def p1_prolong(coarse: Mesh2D, values: np.ndarray) -> np.ndarray:
    """Prolong P1 vertex data (nv_coarse, ...) one refinement level: exact for
    continuous piecewise-linear functions on nested grids."""
    ends = coarse._edges.ends
    mid_vals = 0.5 * (values[ends[:, 0]] + values[ends[:, 1]])
    return np.concatenate([values, mid_vals], axis=0)


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
    """P1 mass matrix over the outer boundary curve; rows and columns of
    interior vertices are identically zero."""
    be = mesh.boundary_edges
    rows = np.repeat(be, 2, axis=1).ravel()   # a, a, b, b
    cols = np.tile(be, (1, 2)).ravel()        # a, b, a, b
    vals = edge_local_mass(mesh.boundary_lengths).ravel()
    nv = mesh.n_vertices
    return csr_matrix((vals, (rows, cols)), shape=(nv, nv))


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
    with open(path, "w") as f:
        f.write(f"vertices {mesh.n_vertices} triangles {mesh.n_triangles}\n")
        for x, y in mesh.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.tags):
            f.write(f"{i} {j} {k} {int(tag)}\n")


def load_mesh(path, h: float | None = None) -> Mesh2D:
    lines = Path(path).read_text().splitlines()
    head = lines[0].split()
    if head[0] != "vertices" or head[2] != "triangles":
        raise ValueError("bad mesh file header")
    nv, nt = int(head[1]), int(head[3])
    vertices = np.array([[float(v) for v in ln.split()] for ln in lines[1:1 + nv]])
    body = [ln.split() for ln in lines[1 + nv:1 + nv + nt]]
    triangles = np.array([[int(r[0]), int(r[1]), int(r[2])] for r in body], dtype=np.int64)
    tags = np.array([int(r[3]) for r in body], dtype=np.uint8)
    mesh = Mesh2D(vertices=vertices, triangles=triangles, tags=tags, h=h or 0.0)
    if h is None:
        a, b, _ = mesh.corner_coords()
        mesh.h = float(np.median(np.linalg.norm(b - a, axis=1)))
    return mesh.validate()
