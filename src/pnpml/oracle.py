"""Independent reference solvers: exact characteristics for pure absorption
and a discrete-ordinates source iteration with vacuum or reflective
boundaries.

Rays are traced by a walk over the triangle adjacency.  The sweep's rays
depend only on the mesh and the planar direction, so each direction is traced
once per mesh and cached with the mesh's other derived tables; every sweep
built on that mesh, at any absorption, reuses it.  Absorption is integrated
exactly per crossed triangle (piecewise-constant data) and smooth external
sources by per-segment Gauss quadrature.  The distinct sweeps are frozen into
one stacked sparse matrix, so each source-iteration step is one sparse
product and a few gathers.  A cache entry is stored only once it is complete,
so concurrent builds on one mesh are safe; two of them may trace the same
direction, and either result serves.
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


def _trace(mesh: Mesh2D, starts: np.ndarray, start_tri: np.ndarray, u: np.ndarray) -> _Trace:
    """Walk the backward rays from ``starts`` in triangles ``start_tri`` along
    the planar direction u.  All rays step together: each leaves its
    triangle through the first edge it crosses among those it heads out of
    (cross(e, -u) < 0) to the neighbour across it, or stops on the boundary
    edge it crossed, which the direction therefore enters through."""
    tol = 1e-12 * max(np.ptp(mesh.vertices), 1.0)
    _, _, ex, ey = corners = mesh._corners.transpose(1, 0, 2)
    cu = ex * (-u[1]) - ey * (-u[0])                  # cross(e, -u), (nt, 3)
    # divisor and offset that turn a crossing into t; inf where not heading out
    out = cu < -1e-14
    geo = np.stack([*corners, np.where(out, -cu, 1.0), np.where(out, 0.0, np.inf)], axis=1)

    n = starts.shape[0]
    live, tri, t = np.arange(n), np.asarray(start_tri), np.zeros(n)
    rx, ry = starts[:, :1], starts[:, 1:]
    exit_edge = np.empty(n, dtype=np.int64)
    steps = []
    while live.size and len(steps) < mesh.n_triangles:
        # a CCW triangle keeps its interior where cross(e, x - p) >= 0, and
        # the ray crosses edge k where that reaches zero
        g = geo.take(tri, axis=0)                     # x, y, ex, ey, divisor, offset
        t_k = (g[:, 2] * (ry - g[:, 1]) - g[:, 3] * (rx - g[:, 0])) / g[:, 4] + g[:, 5]
        k = t_k.argmin(axis=1)
        t_prev, t = t, np.maximum(np.minimum.reduce(t_k, axis=1), t)
        steps.append((live, tri, t_prev, t))
        prev, tri = tri, mesh._neighbours[0][tri, k]
        if np.minimum.reduce(tri) < 0:
            on = tri >= 0
            exit_edge[live[~on]] = mesh._neighbours[1][prev[~on], k[~on]]
            live, rx, ry, tri, t = live[on], rx[on], ry[on], tri[on], t[on]
    if live.size:
        raise RuntimeError(f"{live.size} rays did not leave the mesh in {mesh.n_triangles} steps")
    # steps no longer than roundoff are dropped; the rest are in walk order,
    # so a stable sort by ray orders each ray by t
    ray, tri, t0, t1 = (np.concatenate(col) for col in zip(*steps))
    kept = np.flatnonzero(t1 > t0 + tol)
    order = kept[np.argsort(ray[kept], kind="stable")]
    ray, tri, t1 = ray[order], tri[order], t1[order]
    n_seg = np.bincount(ray, minlength=n)
    ends = np.cumsum(n_seg)
    seg = np.arange(ray.size)
    slot = seg - (ends - n_seg)[ray]
    # each kept segment starts where the one before it on its ray ends
    t0 = np.where(slot > 0, t1[seg - 1], 0.0)

    t_exit = np.zeros(n)
    t_exit[n_seg > 0] = t1[ends[n_seg > 0] - 1]
    exit_point = starts - t_exit[:, None] * u[None, :]
    return _Trace(ray, slot, tri, t0, t1, exit_point, exit_edge)


def _sample_source(mesh: Mesh2D, trace: _Trace, starts: np.ndarray, u: np.ndarray,
                   q) -> np.ndarray:
    """The analytic source ``q`` at the Gauss nodes of every segment of the
    rays traced from ``starts`` along u, (ns, 4); zero outside INTERIOR
    triangles."""
    q_nodes = np.zeros((trace.tri.size, _GAUSS_NODES.size))
    on = mesh.tags[trace.tri] == INTERIOR
    if on.any():
        t0, t1 = trace.t0[on, None], trace.t1[on, None]
        tg = t0 + (t1 - t0) * _GAUSS_NODES
        pts = starts[trace.ray[on], None, :] - tg[..., None] * u
        q_nodes[on] = np.asarray(q(pts.reshape(-1, 2)), dtype=float).reshape(tg.shape)
    return q_nodes


def _integrate(trace: _Trace, mu: np.ndarray, beta: float, q_nodes: np.ndarray | None = None):
    """Exact attenuation along the traced rays of one ordinate, with
    piecewise-constant absorption mu and 3D path stretch beta = 1/|s_xy|.

    Returns the weight of a unit per-triangle source on each segment, the
    attenuation exp(-tau_exit) of each ray's inflow, and each ray's Gauss
    line integral of the sampled analytic source ``q_nodes`` (None without
    one)."""
    dt = trace.t1 - trace.t0
    mu_seg = mu[trace.tri]
    opt = mu_seg * beta * dt
    # optical depth before each segment, summed along its own ray in order
    depth = np.zeros((trace.exit_point.shape[0], trace.slot.max(initial=0) + 2))
    depth[trace.ray, trace.slot + 1] = opt
    depth = np.cumsum(depth, axis=1)
    tau = depth[trace.ray, trace.slot]
    att = np.exp(-tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(mu_seg > 0, att * (1.0 - np.exp(-opt)) / mu_seg, att * beta * dt)
    exit_fac = np.exp(-depth[:, -1])
    if q_nodes is None:
        return w, exit_fac, None
    damp = np.exp(-(tau[:, None] + (mu_seg * beta)[:, None] * (dt[:, None] * _GAUSS_NODES)))
    seg = dt * beta * np.sum(_GAUSS_WEIGHTS * q_nodes * damp, axis=1)
    return w, exit_fac, np.bincount(trace.ray, weights=seg, minlength=depth.shape[0])


@dataclass(frozen=True)
class _RayPaths:
    """The sweep's rays traced along one planar direction and the CSR layout
    of their (ray, triangle) pairs: rows are rays, columns sorted triangles."""

    trace: _Trace
    entry: np.ndarray    # (ns,) CSR entry of each segment
    indptr: np.ndarray   # (n_rays + 1,)
    indices: np.ndarray  # (n_entries,) triangle of each entry


def _sweep_starts(mesh: Mesh2D) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's ray starts, triangle centroids then boundary-edge
    midpoints, and the triangle each starts in."""
    starts = np.vstack([mesh.centroids, mesh.vertices[mesh.boundary_edges].mean(axis=1)])
    return starts, np.concatenate([np.arange(mesh.n_triangles), mesh.boundary_owners])


def _ray_paths(mesh: Mesh2D, u: np.ndarray) -> _RayPaths:
    """The sweep's rays along u, traced on first use and then read from the
    mesh's cache, keyed by the exact bytes of u.  An entry is stored only
    once it is complete, so concurrent builds on one mesh are safe: at worst
    two of them trace the same direction and one result is kept."""
    key = u.tobytes()
    paths = mesh._ray_paths.get(key)
    if paths is None:
        trace = _trace(mesh, *_sweep_starts(mesh), u)
        nt, n_rays = mesh.n_triangles, trace.exit_point.shape[0]
        pairs, entry = np.unique(trace.ray * nt + trace.tri, return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(pairs // nt, minlength=n_rays))])
        paths = _RayPaths(trace, entry, indptr, pairs % nt)
        mesh._ray_paths[key] = paths
    return paths


class SweepOperator:
    """Frozen transport sweeps for a fixed mesh, absorption, and ordinates.

    For ordinate d the sampled values obey
        u_d = A_d @ src + q_d + f_d * h[exit_edge_d, d]
    where src is any per-triangle isotropic source density added on top of the
    (optional) analytic external source on INTERIOR triangles, integrated at
    build time.  Under z-invariance the ray paths depend only on the planar
    direction s_xy/|s_xy|, so they come from the mesh's cache of traced
    directions; ordinates mirrored in s_z also share |s_xy| and so one sweep.
    The distinct sweeps are stacked ray-major in one CSR matrix (row
    r * n_sweeps + k is ray r of sweep k), so :meth:`apply` is one sparse
    product and gathers.
    """

    def __init__(self, mesh: Mesh2D, mu_tri: np.ndarray, ordinates: OrdinateSet,
                 q_analytic=None):
        self.mesh = mesh
        self.ordinates = ordinates
        self.mu = np.asarray(mu_tri, dtype=float)
        nt = mesh.n_triangles
        starts = _sweep_starts(mesh)[0]
        self.n_rays = starts.shape[0]

        s_xy = ordinates.directions[:, :2]
        p = np.hypot(s_xy[:, 0], s_xy[:, 1])
        if np.any(p <= 1e-14):
            raise ValueError("ordinate parallel to the invariant axis")
        u = s_xy / p[:, None]

        self._sweep = np.empty(ordinates.n_dirs, dtype=np.intp)
        traced, sweeps = {}, {}
        # directions equal up to roundoff share one trace (a group split by the
        # rounding only costs an extra trace), taken along the group's smallest
        # u in lexicographic order whatever the order of the ordinate set
        for d in np.lexsort((u[:, 1], u[:, 0])):
            key = tuple(np.round(u[d], 12))
            if key not in traced:
                paths = _ray_paths(mesh, u[d])
                q_nodes = None
                if q_analytic is not None:
                    q_nodes = _sample_source(mesh, paths.trace, starts, u[d], q_analytic)
                    if not np.all(np.isfinite(q_nodes)):
                        raise ValueError("q is not finite on the INTERIOR triangles")
                traced[key] = paths, q_nodes
            self._sweep[d] = sweeps.setdefault((key, p[d]), len(sweeps))

        # one CSR row per ray and sweep, ray-major: row r * n_sweeps + k is
        # ray r of sweep k, its entries in the order of the sweep's own layout
        n_sweeps = len(sweeps)
        lengths = np.column_stack([np.diff(traced[key][0].indptr) for key, _ in sweeps])
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int64)
        self._q_line = np.zeros((self.n_rays, n_sweeps))
        exit_fac = np.empty((self.n_rays, n_sweeps))
        edges = np.empty((self.n_rays, n_sweeps), dtype=np.int64)
        for k, (key, p_k) in enumerate(sweeps):
            paths, q_nodes = traced[key]
            w, exit_fac[:, k], q_line = _integrate(paths.trace, self.mu, 1.0 / p_k, q_nodes)
            at = (np.repeat(indptr[k:-1:n_sweeps] - paths.indptr[:-1], lengths[:, k])
                  + np.arange(paths.indices.size))
            data[at] = np.bincount(paths.entry, weights=w, minlength=paths.indices.size)
            indices[at] = paths.indices
            if q_line is not None:
                self._q_line[:, k] = q_line
            edges[:, k] = paths.trace.exit_edge
        self._matrix = csr_matrix((data, indices, indptr), shape=(n_sweeps * self.n_rays, nt))
        self._exit_fac = exit_fac[:, self._sweep]
        # the flat position in the inflow (nbe, nd) of each ray's exit edge
        self._inflow_at = edges[:, self._sweep] * ordinates.n_dirs + np.arange(ordinates.n_dirs)

    def apply(self, src_tri: np.ndarray, inflow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One transport sweep: src_tri is the per-triangle isotropic source
        density, inflow the boundary data (nbe, nd)."""
        vals = (self._matrix @ src_tri).reshape(self.n_rays, -1)
        vals += self._q_line
        vals = np.take(vals, self._sweep, axis=1)
        vals += self._exit_fac * np.take(inflow, self._inflow_at)
        nt = self.mesh.n_triangles
        return vals[:nt], vals[nt:]


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
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    nd = ordinates.n_dirs
    nbe = mesh.boundary_edges.shape[0]
    if callable(q):
        base_src, src_name = np.zeros(mesh.n_triangles), "q"
    else:
        base_src = coeffs.source if q is None else np.asarray(q, dtype=float)
        src_name = "coeffs.source" if q is None else "q"
    h = np.zeros((nbe, nd)) if initial_inflow is None else np.array(initial_inflow, dtype=float)
    # non-finite data would otherwise only show as a NaN change once the
    # whole budget is spent; an analytic q is checked where the sweep samples it
    for name, value in (("coeffs.mu", coeffs.mu), ("coeffs.sigma", coeffs.sigma),
                        (src_name, base_src), ("initial_inflow", h)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} is not finite")
    cap = max_iter if max_iter is not None else _iteration_cap(coeffs)
    sweep = SweepOperator(mesh, coeffs.mu, ordinates, q_analytic=q if callable(q) else None)
    sig0 = coeffs.sigma[:, 0] if coeffs.sigma.size else np.zeros(mesh.n_triangles)

    if bc == REFLECT:
        s_dot_n = mesh.boundary_normals @ ordinates.directions[:, :2].T  # (nbe, nd)
        inflow_mask = s_dot_n < 0
        factors = np.zeros_like(s_dot_n)
        factors[inflow_mask] = reflect_factor(s_dot_n[inflow_mask])

    u_tri = np.zeros((mesh.n_triangles, nd))
    u_bdry = np.zeros((nbe, nd))
    for it in range(1, cap + 1):
        scatter = base_src + sig0 / (4 * np.pi) * (u_tri @ ordinates.weights)
        new_tri, new_bdry = sweep.apply(scatter, h)
        delta = max(np.max(np.abs(new_tri - u_tri)),
                    np.max(np.abs(new_bdry - u_bdry)) if nbe else 0.0)
        if not np.isfinite(delta):
            raise RuntimeError(f"source iteration broke down at sweep {it}: "
                               f"the change is {delta}")
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
    x, y, ex, ey = mesh._corners.transpose(1, 0, 2)
    idx = np.flatnonzero(np.all(ex * (r[1] - y) - ey * (r[0] - x) >= -1e-12, axis=1))
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

    t_idx = _locate_triangle(mesh, r)
    p = np.hypot(s[0], s[1])
    if p <= 1e-14:
        # invariant-axis ray: balance absorption against the local source
        if mu[t_idx] <= 0:
            raise ValueError("vertical characteristic in a void has no steady state")
        if callable(q):
            dens = q(r[None, :])[0] if mesh.tags[t_idx] == INTERIOR else 0.0
        else:
            dens = src_tri[t_idx]
        return float(dens / mu[t_idx])

    u = s[:2] / p
    trace = _trace(mesh, r[None, :], np.array([t_idx]), u)
    q_nodes = _sample_source(mesh, trace, r[None, :], u, q) if callable(q) else None
    w, exit_fac, q_line = _integrate(trace, mu, 1.0 / p, q_nodes)
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
