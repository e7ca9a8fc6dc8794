"""Independent reference solvers: exact characteristics for pure absorption
and a discrete-ordinates source iteration with vacuum or reflective
boundaries.

Rays are traced once per planar direction, shared by every ordinate with that
direction, by a walk over the triangle adjacency; absorption is integrated
exactly per crossed triangle (piecewise-constant data) and smooth external
sources by per-segment Gauss quadrature.  The traced geometry is frozen into
sparse sweep matrices, so each source-iteration step reduces to a handful of
matrix-vector products.
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
    q_nodes: np.ndarray | None   # (ns, 4) analytic source at the Gauss nodes


def _trace(mesh: Mesh2D, starts: np.ndarray, start_tri: np.ndarray, u: np.ndarray,
           q=None) -> _Trace:
    """Walk the backward rays from ``starts`` in triangles ``start_tri`` along
    the planar direction u and sample ``q`` (zero outside INTERIOR triangles)
    at every segment's Gauss nodes.  All rays step together: each leaves its
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

    q_nodes = None
    if q is not None:
        q_nodes = np.zeros((tri.size, _GAUSS_NODES.size))
        on = mesh.tags[tri] == INTERIOR
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
    depth = np.zeros((trace.exit_point.shape[0], trace.slot.max(initial=0) + 2))
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
    (optional) analytic external source on INTERIOR triangles, integrated at
    build time.  Under z-invariance the ray paths depend only on the planar
    direction s_xy/|s_xy|.
    """

    def __init__(self, mesh: Mesh2D, mu_tri: np.ndarray, ordinates: OrdinateSet,
                 q_analytic=None):
        self.mesh = mesh
        self.ordinates = ordinates
        self.mu = np.asarray(mu_tri, dtype=float)
        nt = mesh.n_triangles
        starts = np.vstack([mesh.centroids, mesh.vertices[mesh.boundary_edges].mean(axis=1)])
        start_tri = np.concatenate([np.arange(nt), mesh.boundary_owners])
        self.n_rays = starts.shape[0]

        s_xy = ordinates.directions[:, :2]
        p = np.hypot(s_xy[:, 0], s_xy[:, 1])
        if np.any(p <= 1e-14):
            raise ValueError("ordinate parallel to the invariant axis")
        u = s_xy / p[:, None]

        self._sweeps = [None] * ordinates.n_dirs
        traces, sweeps = {}, {}
        # directions equal up to roundoff share one trace (a group split by the
        # rounding only costs an extra trace), taken along the group's smallest
        # u in lexicographic order whatever the order of the ordinate set;
        # ordinates mirrored in s_z share the exact |s_xy| and so one sweep
        for d in np.lexsort((u[:, 1], u[:, 0])):
            key = tuple(np.round(u[d], 12))
            if key not in traces:
                traces[key] = _trace(mesh, starts, start_tri, u[d], q_analytic)
            trace = traces[key]
            if (key, p[d]) not in sweeps:
                w, exit_fac, q_line = _integrate(trace, self.mu, 1.0 / p[d])
                mat = csr_matrix((w, (trace.ray, trace.tri)), shape=(self.n_rays, nt))
                sweeps[key, p[d]] = (mat, 0.0 if q_line is None else q_line, exit_fac,
                                     trace.exit_edge)
            self._sweeps[d] = sweeps[key, p[d]]

    def apply(self, src_tri: np.ndarray, inflow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One transport sweep: src_tri is the per-triangle isotropic source
        density, inflow the boundary data (nbe, nd)."""
        vals = np.column_stack([mat @ src_tri + q_line + exit_fac * inflow[edge, d]
                                for d, (mat, q_line, exit_fac, edge) in enumerate(self._sweeps)])
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
        sweep = SweepOperator(mesh, coeffs.mu, ordinates, q_analytic=q)
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

    trace = _trace(mesh, r[None, :], np.array([t_idx]), s[:2] / p,
                   q if callable(q) else None)
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
