"""Independent reference solvers: exact characteristics for pure absorption
and a discrete-ordinates source iteration with vacuum or reflective
boundaries.

Rays are traced through the triangulation once per planar direction, shared
by every ordinate with that direction; absorption is integrated exactly per
crossed triangle (piecewise-constant data) and smooth external sources by
per-segment Gauss quadrature.  The traced geometry is frozen into sparse sweep
matrices, so each source-iteration step reduces to a handful of matrix-vector
products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import roots_legendre

from pnpml.angular import sphere_quadrature
from pnpml.mesh import INTERIOR, Mesh2D
from pnpml.pml import TransportCoefficients, reflect_factor

__all__ = [
    "VACUUM",
    "REFLECT",
    "OrdinateSet",
    "SampledField",
    "SweepOperator",
    "build_ordinates",
    "characteristics_solve",
    "source_iteration",
    "consistency_error",
    "ordinate_mean",
    "boundary_trace_norm",
]

_gx, _gw = roots_legendre(4)
# 4-point Gauss rule on a unit segment
_GAUSS_NODES, _GAUSS_WEIGHTS = 0.5 * (_gx + 1.0), 0.5 * _gw
VACUUM = "vacuum"
REFLECT = "reflect"


@dataclass(frozen=True)
class OrdinateSet:
    """Antipodally closed direction set with quadrature weights."""

    directions: np.ndarray  # (nd, 3)
    weights: np.ndarray     # (nd,)
    opposite: np.ndarray    # (nd,) index of -s

    @property
    def n_dirs(self) -> int:
        return self.directions.shape[0]


def build_ordinates(n_polar: int, n_azimuth: int) -> OrdinateSet:
    """The product rule of :func:`~pnpml.angular.sphere_quadrature`; the
    azimuth count must be even so that every direction has its antipode in
    the set."""
    if n_azimuth % 2 != 0:
        raise ValueError("n_azimuth must be even for antipodal closure")
    quad = sphere_quadrature(n_polar, n_azimuth)
    ii, jj = np.meshgrid(np.arange(n_polar), np.arange(n_azimuth), indexing="ij")
    opp = ((n_polar - 1 - ii) * n_azimuth + (jj + n_azimuth // 2) % n_azimuth).ravel()
    assert np.allclose(quad.nodes[opp], -quad.nodes, atol=1e-13)
    return OrdinateSet(directions=quad.nodes, weights=quad.weights, opposite=opp)


@dataclass
class SampledField:
    """Discrete-ordinates samples: triangle centroids and boundary-edge
    midpoints, one column per ordinate."""

    tri_values: np.ndarray       # (nt, nd)
    boundary_values: np.ndarray  # (nbe, nd)
    ordinates: OrdinateSet
    mesh: Mesh2D


def _ray_triangle_intervals(mesh: Mesh2D, starts: np.ndarray, u: np.ndarray):
    """Parameter intervals [lo, hi] where each backward ray start - t*u lies
    inside each triangle.  Yields (lo, hi), each (rays, nt), per chunk of
    128 rays."""
    a, b, c = mesh.corner_coords()
    # half-plane data: edge (p, q) of a CCW triangle keeps the interior where
    # cross(q - p, x - p) >= 0
    ps = np.stack([a, b, c])          # (3, nt, 2)
    qs = np.stack([b, c, a])
    e = qs - ps                       # (3, nt, 2)
    cu = e[..., 0] * (-u[1]) - e[..., 1] * (-u[0])   # cross(e, -u), (3, nt)

    big = 1e30
    n = starts.shape[0]
    for s0 in range(0, n, 128):
        r = starts[s0:s0 + 128]       # (m, 2)
        d = r[None, None, :, :] - ps[:, :, None, :]  # (3, nt, m, 2)
        c0 = e[..., None, 0] * d[..., 1] - e[..., None, 1] * d[..., 0]  # (3, nt, m)
        # inside condition: c0 + t * cu >= 0
        cut = cu[..., None]
        lo = np.zeros_like(c0)
        hi = np.full_like(c0, big)
        pos = cut > 1e-14
        neg = cut < -1e-14
        par = ~(pos | neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -c0 / np.where(par, 1.0, cut)
        lo = np.where(pos, np.maximum(lo, bound), lo)
        hi = np.where(neg, np.minimum(hi, bound), hi)
        # parallel edge with the ray strictly outside: empty interval
        hi = np.where(par & (c0 < -1e-12), -big, hi)
        lo_all = lo.max(axis=0).T     # (m, nt)
        hi_all = hi.min(axis=0).T
        yield lo_all, hi_all


def _segments_for_ray(lo: np.ndarray, hi: np.ndarray, tol: float):
    """Partition of the crossed part of a ray into (triangle, t0, t1) pieces,
    resolved at segment midpoints so overlap/gap roundoff cannot double-count."""
    cand = np.flatnonzero(hi > lo + tol)
    if cand.size == 0:
        return cand, np.empty(0), np.empty(0)
    pts = np.unique(np.concatenate([lo[cand], hi[cand]]))
    pts = pts[pts >= -tol]
    keep = np.diff(pts) > tol
    t0, t1 = pts[:-1][keep], pts[1:][keep]
    mid = 0.5 * (t0 + t1)
    inside = (lo[cand, None] <= mid) & (mid <= hi[cand, None])  # (ncand, nseg)
    found = inside.any(axis=0)
    tri = cand[inside.argmax(axis=0)]
    return tri[found], np.maximum(t0[found], 0.0), t1[found]


@dataclass(frozen=True)
class _Trace:
    """Backward rays start - t*u cut into per-triangle segments, stored flat
    in ray order and, along each ray, in order of increasing t."""

    ray: np.ndarray              # (ns,) ray of each segment
    slot: np.ndarray             # (ns,) position of the segment along its ray
    tri: np.ndarray              # (ns,)
    t0: np.ndarray               # (ns,)
    t1: np.ndarray               # (ns,)
    exit_point: np.ndarray       # (n_rays, 2) where each ray leaves the mesh
    exit_edge: np.ndarray        # (n_rays,) boundary edge it leaves through
    q_nodes: np.ndarray | None   # (ns, 4) analytic source at the Gauss nodes


def _trace(mesh: Mesh2D, starts: np.ndarray, u: np.ndarray, q=None,
           q_mask: np.ndarray | None = None) -> _Trace:
    """Trace the backward rays from ``starts`` along the planar direction u
    and sample ``q`` (zero outside ``q_mask``) at every segment's Gauss nodes.

    A ray leaves through the boundary edge of its last triangle with the
    nearest midpoint.  If that triangle owns none (roundoff may end a ray in
    an interior neighbour; a ray that crosses none leaves at its start), the
    nearest midpoint of all boundary edges decides."""
    tol = 1e-12 * max(mesh.vertices.max() - mesh.vertices.min(), 1.0)
    pieces = [_segments_for_ray(lo, hi, tol)
              for lo_all, hi_all in _ray_triangle_intervals(mesh, starts, u)
              for lo, hi in zip(lo_all, hi_all)]
    tri, t0, t1 = (np.concatenate([p[i] for p in pieces]) for i in range(3))
    n_seg = np.array([p[0].size for p in pieces])
    ray = np.repeat(np.arange(n_seg.size), n_seg)
    ends = np.cumsum(n_seg)
    slot = np.arange(ray.size) - (ends - n_seg)[ray]

    crossed, last = n_seg > 0, ends[n_seg > 0] - 1
    t_exit, last_tri = np.zeros(n_seg.size), np.full(n_seg.size, -1)
    t_exit[crossed], last_tri[crossed] = t1[last], tri[last]
    exit_point = starts - t_exit[:, None] * u[None, :]
    owned = mesh.boundary_owners[None, :] == last_tri[:, None]  # (n_rays, nbe)
    owned[~owned.any(axis=1)] = True
    mids = mesh.vertices[mesh.boundary_edges].mean(axis=1)
    dist = np.linalg.norm(mids[None, :, :] - exit_point[:, None, :], axis=2)
    exit_edge = np.argmin(np.where(owned, dist, np.inf), axis=1)

    q_nodes = None
    if q is not None:
        q_nodes = np.zeros((tri.size, _GAUSS_NODES.size))
        on = np.ones(tri.size, dtype=bool) if q_mask is None else q_mask[tri]
        if on.any():
            tg = t0[on, None] + (t1 - t0)[on, None] * _GAUSS_NODES
            pts = starts[ray[on], None, :] - tg[..., None] * u
            q_nodes[on] = np.asarray(q(pts.reshape(-1, 2)), dtype=float).reshape(tg.shape)
    return _Trace(ray, slot, tri, t0, t1, exit_point, exit_edge, q_nodes)


def _integrate(trace: _Trace, mu: np.ndarray, beta: float):
    """Exact attenuation along the traced rays of one ordinate, with
    piecewise-constant absorption mu and 3D path stretch beta = 1/|s_xy|.

    Returns the weight of a unit per-triangle source on each segment, the
    attenuation exp(-tau_exit) of each ray's inflow, and each ray's Gauss
    line integral of the traced analytic source (None without one)."""
    dt = trace.t1 - trace.t0
    mu_seg = mu[trace.tri]
    opt = mu_seg * beta * dt
    # optical depth before each segment, summed along its own ray in order
    depth = np.zeros((trace.exit_edge.size, trace.slot.max(initial=0) + 2))
    depth[trace.ray, trace.slot + 1] = opt
    depth = np.cumsum(depth, axis=1)
    tau = depth[trace.ray, trace.slot]
    att = np.exp(-tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(mu_seg > 0, att * (1.0 - np.exp(-opt)) / mu_seg, att * beta * dt)
    exit_fac = np.exp(-depth[:, -1])
    if trace.q_nodes is None:
        return w, exit_fac, None
    damp = np.exp(-(tau[:, None] + (mu_seg * beta)[:, None] * (dt[:, None] * _GAUSS_NODES)))
    seg = dt * beta * np.sum(_GAUSS_WEIGHTS * trace.q_nodes * damp, axis=1)
    return w, exit_fac, np.bincount(trace.ray, weights=seg, minlength=depth.shape[0])


class SweepOperator:
    """Frozen transport sweeps for a fixed mesh, absorption, and ordinates.

    For ordinate d the sampled values obey
        u_d = A_d @ src + q_d + f_d * h[exit_edge_d, d]
    where src is any per-triangle isotropic source density added on top of the
    (optional) analytic external source integrated at build time.  Under
    z-invariance the ray paths depend only on the planar direction s_xy/|s_xy|.
    """

    def __init__(self, mesh: Mesh2D, mu_tri: np.ndarray, ordinates: OrdinateSet,
                 q_analytic=None, q_mask: np.ndarray | None = None):
        self.mesh = mesh
        self.ordinates = ordinates
        self.mu = np.asarray(mu_tri, dtype=float)
        nt = mesh.n_triangles
        starts = np.vstack([mesh.centroids, mesh.vertices[mesh.boundary_edges].mean(axis=1)])
        self.n_rays = starts.shape[0]

        s_xy = ordinates.directions[:, :2]
        p = np.hypot(s_xy[:, 0], s_xy[:, 1])
        if np.any(p <= 1e-14):
            raise ValueError("ordinate parallel to the invariant axis")
        u = s_xy / p[:, None]

        nd = ordinates.n_dirs
        self._mats, self._qvec, self._exit_edge, self._exit_fac = ([None] * nd for _ in range(4))
        traces = {}
        # directions equal up to roundoff share one trace (a group split by the
        # rounding only costs an extra trace), taken along the group's smallest
        # u in lexicographic order whatever the order of the ordinate set
        for d in np.lexsort((u[:, 1], u[:, 0])):
            key = tuple(np.round(u[d], 12))
            if key not in traces:
                traces[key] = _trace(mesh, starts, u[d], q_analytic, q_mask)
            trace = traces[key]
            w, self._exit_fac[d], q_line = _integrate(trace, self.mu, 1.0 / p[d])
            self._mats[d] = csr_matrix((w, (trace.ray, trace.tri)), shape=(self.n_rays, nt))
            self._qvec[d] = np.zeros(self.n_rays) if q_line is None else q_line
            self._exit_edge[d] = trace.exit_edge

    def apply(self, src_tri: np.ndarray, inflow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One transport sweep: src_tri is the per-triangle isotropic source
        density, inflow the boundary data (nbe, nd)."""
        nt = self.mesh.n_triangles
        nd = self.ordinates.n_dirs
        tri = np.empty((nt, nd))
        bdry = np.empty((inflow.shape[0], nd))
        for d in range(nd):
            vals = (self._mats[d] @ src_tri
                    + self._qvec[d]
                    + self._exit_fac[d] * inflow[self._exit_edge[d], d])
            tri[:, d] = vals[:nt]
            bdry[:, d] = vals[nt:]
        return tri, bdry


def _iteration_cap(coeffs: TransportCoefficients) -> int:
    mu = coeffs.mu
    sig0 = coeffs.sigma[:, 0] if coeffs.sigma.size else np.zeros_like(mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mu > 0, sig0 / mu, np.where(sig0 > 0, np.inf, 0.0))
    worst = float(ratio.max(initial=0.0))
    if worst >= 1.0:
        raise ValueError("supercritical scattering: sigma_0 >= mu somewhere")
    return 10 * int(np.ceil(1.0 / (1.0 - worst)))


def source_iteration(mesh: Mesh2D, coeffs: TransportCoefficients,
                     ordinates: OrdinateSet, bc: str, tol: float,
                     q=None, max_iter: int | None = None,
                     monitor=None, initial_inflow: np.ndarray | None = None) -> SampledField:
    """Fixed-point transport iteration with isotropic scattering.

    ``bc`` selects vacuum inflow or the reflection rule on the mesh boundary.
    ``q`` may be an analytic spatial callable (integrated accurately along
    rays, restricted to INTERIOR triangles); by default the per-triangle
    source stored in ``coeffs`` is used.  ``initial_inflow`` warm-starts the
    boundary data (reflective problems only).
    """
    if bc not in (VACUUM, REFLECT):
        raise ValueError(f"unknown boundary condition {bc!r}")
    nd = ordinates.n_dirs
    nbe = mesh.boundary_edges.shape[0]

    if callable(q):
        sweep = SweepOperator(mesh, coeffs.mu, ordinates, q_analytic=q,
                              q_mask=mesh.tags == INTERIOR)
        base_src = np.zeros(mesh.n_triangles)
    else:
        sweep = SweepOperator(mesh, coeffs.mu, ordinates)
        base_src = coeffs.source if q is None else np.asarray(q, dtype=float)

    sig0 = coeffs.sigma[:, 0] if coeffs.sigma.size else np.zeros(mesh.n_triangles)
    cap = max_iter if max_iter is not None else _iteration_cap(coeffs)

    if bc == REFLECT:
        s_dot_n = mesh.boundary_normals @ ordinates.directions[:, :2].T  # (nbe, nd)
        inflow_mask = s_dot_n < 0
        factors = np.zeros_like(s_dot_n)
        factors[inflow_mask] = reflect_factor(s_dot_n[inflow_mask])

    u_tri = np.zeros((mesh.n_triangles, nd))
    u_bdry = np.zeros((nbe, nd))
    h = np.zeros((nbe, nd)) if initial_inflow is None else np.array(initial_inflow, dtype=float)
    for it in range(1, cap + 1):
        scatter = base_src + sig0 / (4 * np.pi) * (u_tri @ ordinates.weights)
        new_tri, new_bdry = sweep.apply(scatter, h)
        delta = max(np.max(np.abs(new_tri - u_tri)),
                    np.max(np.abs(new_bdry - u_bdry)) if nbe else 0.0)
        u_tri, u_bdry = new_tri, new_bdry
        if bc == REFLECT:
            h = np.where(inflow_mask, factors * u_bdry[:, ordinates.opposite], 0.0)
        if monitor is not None:
            monitor(it, SampledField(u_tri, u_bdry, ordinates, mesh))
        if delta <= tol:
            return SampledField(u_tri, u_bdry, ordinates, mesh)
    raise RuntimeError(f"source iteration did not converge within {cap} sweeps "
                       f"(last change {delta:.3e} > tol {tol:g})")


def _locate_triangle(mesh: Mesh2D, r: np.ndarray) -> int:
    a, b, c = mesh.corner_coords()
    d1 = (b[:, 0] - a[:, 0]) * (r[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (r[0] - a[:, 0])
    d2 = (c[:, 0] - b[:, 0]) * (r[1] - b[:, 1]) - (c[:, 1] - b[:, 1]) * (r[0] - b[:, 0])
    d3 = (a[:, 0] - c[:, 0]) * (r[1] - c[:, 1]) - (a[:, 1] - c[:, 1]) * (r[0] - c[:, 0])
    inside = (d1 >= -1e-12) & (d2 >= -1e-12) & (d3 >= -1e-12)
    idx = np.flatnonzero(inside)
    if idx.size == 0:
        raise ValueError("point lies outside the mesh")
    return int(idx[0])


def characteristics_solve(mesh: Mesh2D, coeffs: TransportCoefficients,
                          r, s, q=None, inflow=None) -> float:
    """Exact transport solution along one backward characteristic for purely
    absorbing data: attenuated path integral of the source plus the attenuated
    inflow value at the domain boundary."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    mu = coeffs.mu
    if callable(q):
        src_tri = None
    else:
        src_tri = coeffs.source if q is None else np.asarray(q, dtype=float)

    p = np.hypot(s[0], s[1])
    if p <= 1e-14:
        # invariant-axis ray: balance absorption against the local source
        t_idx = _locate_triangle(mesh, r)
        if mu[t_idx] <= 0:
            raise ValueError("vertical characteristic in a void has no steady state")
        dens = q(r[None, :])[0] if callable(q) else src_tri[t_idx]
        return float(dens / mu[t_idx])

    trace = _trace(mesh, r[None, :], s[:2] / p, q if callable(q) else None,
                   mesh.tags == INTERIOR)
    if trace.tri.size == 0:
        raise ValueError("ray does not intersect the mesh")
    w, exit_fac, q_line = _integrate(trace, mu, 1.0 / p)
    total = q_line[0] if callable(q) else w @ src_tri[trace.tri]
    if inflow is not None:
        val = inflow(trace.exit_point[0], s) if callable(inflow) else float(inflow)
        total += exit_fac[0] * val
    return float(total)


def ordinate_mean(field: SampledField) -> np.ndarray:
    """Angular integral of the sampled field per triangle (the quantity
    exported by the field writer: sqrt(4 pi) times the constant moment)."""
    return field.tri_values @ field.ordinates.weights


def boundary_trace_norm(field: SampledField) -> float:
    """L2 norm of the sampled field over (boundary curve) x (sphere)."""
    lengths = field.mesh.boundary_lengths
    w = field.ordinates.weights
    return float(np.sqrt(np.sum(lengths[:, None] * w[None, :]
                                * field.boundary_values**2)))


def consistency_error(u_vacuum: SampledField, w_reflect: SampledField,
                      tri_map: np.ndarray) -> float:
    """Discrete L2(inner domain x sphere) distance between the vacuum-boundary
    solution on the inner mesh and the reflective solution restricted to it.

    ``tri_map`` sends inner-mesh triangles to their parents in the extended
    mesh (as produced by ``submesh_interior``)."""
    if u_vacuum.ordinates.n_dirs != w_reflect.ordinates.n_dirs or not np.allclose(
            u_vacuum.ordinates.directions, w_reflect.ordinates.directions):
        raise ValueError("fields must share the same ordinate set")
    if tri_map.shape[0] != u_vacuum.mesh.n_triangles:
        raise ValueError("triangle map does not match the inner mesh")
    diff = u_vacuum.tri_values - w_reflect.tri_values[tri_map]
    areas = u_vacuum.mesh.areas
    w = u_vacuum.ordinates.weights
    return float(np.sqrt(np.sum(areas[:, None] * w[None, :] * diff**2)))
