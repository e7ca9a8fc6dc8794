import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix

from pnpml.mesh import (
    Disk,
    GeometrySpec,
    Mesh2D,
    Rect,
    build_mesh,
    ray_exit_distance,
    submesh_interior,
)
from pnpml.oracle import (
    REFLECT,
    VACUUM,
    OrdinateSet,
    SampledField,
    SweepOperator,
    _integrate,
    _sample_source,
    _trace,
    boundary_trace_norm,
    build_ordinates,
    characteristics_solve,
    consistency_error,
    ordinate_mean,
    source_iteration,
)
from pnpml.pml import extend_coefficients, reflect_factor

RNG = np.random.default_rng(555)


def unit_square_mesh(h=0.25):
    spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
    mesh = build_mesh(spec, h)
    sub, _, _ = submesh_interior(mesh)
    return sub


def disk_spec():
    return GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))


def disk_setup(h, mu, sig0, a, src=None):
    spec = disk_spec()
    mesh = build_mesh(spec, h)
    if src is None:
        src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
    coeffs = extend_coefficients(mesh, mu, sig0, src, a=a)
    return spec, mesh, coeffs, src


class TestOrdinates:
    def test_antipodal_closure_and_weights(self):
        ords = build_ordinates(6, 12)
        assert ords.weights.sum() == pytest.approx(4 * np.pi, rel=1e-13)
        assert np.allclose(ords.directions[ords.opposite], -ords.directions, atol=1e-13)
        assert np.allclose(ords.weights[ords.opposite], ords.weights)

    def test_odd_azimuth_rejected(self):
        with pytest.raises(ValueError):
            build_ordinates(4, 9)

    def test_integrates_linear_exactly(self):
        ords = build_ordinates(4, 8)
        for i in range(3):
            assert np.sum(ords.weights * ords.directions[:, i]) == pytest.approx(0.0, abs=1e-13)
        assert np.sum(ords.weights * ords.directions[:, 2] ** 2) == pytest.approx(
            4 * np.pi / 3, rel=1e-13)


class TestCharacteristics:
    def test_pure_attenuation(self):
        mesh = unit_square_mesh()
        coeffs = extend_coefficients(mesh, 1.0, 0.0, 0.0, a=0.0)
        val = characteristics_solve(mesh, coeffs, r=(0.2, 0.375), s=(1.0, 0.0, 0.0),
                                    inflow=1.0)
        assert val == pytest.approx(np.exp(-0.2), abs=1e-12)
        assert val == pytest.approx(0.8187, abs=1e-4)

    def test_pure_source(self):
        mesh = unit_square_mesh()
        coeffs = extend_coefficients(mesh, 0.0, 0.0, 1.0, a=0.0)
        val = characteristics_solve(mesh, coeffs, r=(0.5, 0.375), s=(1.0, 0.0, 0.0))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_boundary_point_whose_ray_leaves_at_once_takes_the_inflow(self):
        # the backward ray from the left side along -x leaves the mesh at r
        mesh = unit_square_mesh()
        coeffs = extend_coefficients(mesh, 1.0, 0.0, 1.0, a=0.0)
        assert characteristics_solve(mesh, coeffs, (0.0, 0.375), (1.0, 0.0, 0.0),
                                     inflow=0.7) == 0.7

    def test_point_outside_the_mesh_rejected(self):
        mesh = unit_square_mesh()
        coeffs = extend_coefficients(mesh, 1.0, 0.0, 1.0, a=0.0)
        with pytest.raises(ValueError, match="outside the mesh"):
            characteristics_solve(mesh, coeffs, (1.5, 0.375), (1.0, 0.0, 0.0), inflow=0.7)

    def test_invariant_axis_balances_source_against_absorption(self):
        # along s = (0, 0, 1) the solution is q(r) / mu; the analytic source
        # lives on the INTERIOR triangles only, as along every other ray
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.0, a=3.0)
        for t in (0, 40, np.flatnonzero(mesh.tags == 1)[5]):
            r = mesh.centroids[t]
            inside = mesh.tags[t] == 0
            val = characteristics_solve(mesh, coeffs, r, (0.0, 0.0, 1.0), q=src)
            assert val == (src(r[None, :])[0] / coeffs.mu[t] if inside else 0.0)
            val = characteristics_solve(mesh, coeffs, r, (0.0, 0.0, -1.0))
            assert val == coeffs.source[t] / coeffs.mu[t]

    def test_invariant_axis_in_a_void_rejected(self):
        mesh = unit_square_mesh()
        coeffs = extend_coefficients(mesh, 0.0, 0.0, 1.0, a=0.0)
        with pytest.raises(ValueError, match="void"):
            characteristics_solve(mesh, coeffs, (0.5, 0.375), (0.0, 0.0, 1.0))

    def test_two_segment_attenuation_matches_quadrature(self):
        mesh = unit_square_mesh(h=0.25)

        def mu_fn(p):
            return np.where(p[:, 0] >= 0.5, 3.0, 1.0)

        coeffs = extend_coefficients(mesh, mu_fn, 0.0, 0.0, a=0.0)
        r = np.array([0.875, 0.375])
        val = characteristics_solve(mesh, coeffs, r, (1.0, 0.0, 0.0), inflow=1.0)
        depth, _ = quad(lambda t: 3.0 if r[0] - t >= 0.5 else 1.0, 0.0, r[0])
        assert val == pytest.approx(np.exp(-depth), abs=1e-10)

    def test_oblique_ray_scaling(self):
        # the 3D path through a planar distance L has length L / |s_xy|
        mesh = unit_square_mesh()
        coeffs = extend_coefficients(mesh, 1.0, 0.0, 0.0, a=0.0)
        s = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        val = characteristics_solve(mesh, coeffs, (0.2, 0.375), s, inflow=1.0)
        assert val == pytest.approx(np.exp(-0.2 * np.sqrt(2)), abs=1e-12)

    def test_gaussian_source_against_quadrature(self):
        mesh = unit_square_mesh(h=0.125)
        coeffs = extend_coefficients(mesh, 2.0, 0.0, 0.0, a=0.0)
        qf = lambda p: np.exp(-4 * np.sum((p - [0.5, 0.4]) ** 2, axis=1))
        r = np.array([0.9, 0.4])
        val = characteristics_solve(mesh, coeffs, r, (1.0, 0.0, 0.0), q=qf)
        exact, _ = quad(lambda t: np.exp(-2 * t) * np.exp(-4 * ((r[0] - t - 0.5) ** 2)),
                        0.0, r[0], epsabs=1e-13)
        assert val == pytest.approx(exact, abs=1e-9)

    def test_oblique_gaussian_on_disk_against_quadrature(self):
        # piecewise absorption (inner polygon / layer), the source masked to
        # the inner polygon, and position-dependent inflow at the outer edge
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.0, a=5.0)
        sub, _, _ = submesh_interior(mesh)
        r = np.array([0.3, -0.2])
        s = np.array([0.48, 0.36, 0.8])
        beta = 1.0 / 0.6
        u = s[:2] * beta
        inflow = lambda hit, _s: 1.0 + hit[0] - 0.5 * hit[1]
        val = characteristics_solve(mesh, coeffs, r, s, q=src, inflow=inflow)

        t_in, t_out = polygon_exit(sub, r, u), polygon_exit(mesh, r, u)
        tau = lambda t: beta * (2.0 * min(t, t_in) + 5.0 * max(t - t_in, 0.0))
        path, _ = quad(lambda t: beta * src((r - t * u)[None, :])[0] * np.exp(-tau(t)),
                       0.0, t_in, epsabs=1e-14, epsrel=1e-13)
        exact = path + np.exp(-tau(t_out)) * inflow(r - t_out * u, s)
        # the 4-point Gauss rule per segment leaves a few 1e-10 relative
        assert val == pytest.approx(exact, rel=1e-8)


def polygon_exit(mesh, r, u):
    """Distance along -u from r (inside) to the boundary of a convex mesh."""
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    e = mesh.vertices[mesh.boundary_edges[:, 1]] - a
    # r - t u = a + w e  ->  [-u | -e] (t, w) = a - r
    det = u[0] * e[:, 1] - u[1] * e[:, 0]
    d = a - r
    t = (-d[:, 0] * e[:, 1] + d[:, 1] * e[:, 0]) / det
    w = (-u[0] * d[:, 1] + u[1] * d[:, 0]) / det
    hit = (w >= -1e-12) & (w <= 1 + 1e-12) & (t > 0)
    return float(t[hit].max())


class TestWalk:
    """Backward rays walked across the rect mesh at h = 0.25 from the sweep's
    starts (centroids and boundary midpoints).  Its grid lines and diagonals
    make the 0 and 45 degree rays (and their rotations) pass through vertices,
    run along interior edges and graze boundary edges."""

    @staticmethod
    def rect_mesh():
        return build_mesh(GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2)), 0.25)

    @staticmethod
    def sweep_starts(mesh):
        starts = np.vstack([mesh.centroids, mesh.vertices[mesh.boundary_edges].mean(axis=1)])
        return starts, np.concatenate([np.arange(mesh.n_triangles), mesh.boundary_owners])

    @pytest.mark.parametrize("azimuth", range(8))
    def test_segments_partition_each_ray(self, azimuth):
        mesh = self.rect_mesh()
        nt = mesh.n_triangles
        starts, start_tri = self.sweep_starts(mesh)
        s = build_ordinates(4, 8).directions[azimuth]   # first polar level
        u = s[:2] / np.hypot(s[0], s[1])
        trace = _trace(mesh, starts, start_tri, u)
        ray, t0, t1 = trace.ray, trace.t0, trace.t1

        # contiguous, in order along each ray, starting at the start point
        same = ray[1:] == ray[:-1]
        assert np.all(np.diff(ray) >= 0)
        assert np.array_equal(t1[:-1][same], t0[1:][same])
        assert np.all(t0[np.r_[True, ~same]] == 0.0)
        assert np.all(t1 > t0)
        assert np.array_equal(trace.slot[1:][same], trace.slot[:-1][same] + 1)

        # each segment's midpoint lies in its triangle
        mid = starts[ray] - 0.5 * (t0 + t1)[:, None] * u
        corners = mesh.vertices[mesh.triangles[trace.tri]]
        for k in range(3):
            p, q = corners[:, k], corners[:, (k + 1) % 3]
            cross = (q[:, 0] - p[:, 0]) * (mid[:, 1] - p[:, 1]) \
                - (q[:, 1] - p[:, 1]) * (mid[:, 0] - p[:, 0])
            assert np.all(cross >= -1e-12)

        # each ray's summed length is its distance to the boundary; a
        # boundary start whose backward ray points out of the mesh crosses none
        length = np.bincount(ray, weights=t1 - t0, minlength=starts.shape[0])
        leaves = np.r_[np.zeros(nt, dtype=bool), mesh.boundary_normals @ -u > 1e-12]
        assert np.all(length[leaves] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            exits = [polygon_exit(mesh, r, u) for r in starts[~leaves]]
        assert np.allclose(length[~leaves], exits, rtol=0.0, atol=1e-12)

        # each ray leaves on its exit edge; some leave through a vertex
        a, b = (mesh.vertices[mesh.boundary_edges[trace.exit_edge, i]] for i in (0, 1))
        w = np.clip(np.sum((trace.exit_point - a) * (b - a), axis=1)
                    / np.sum((b - a) ** 2, axis=1), 0.0, 1.0)
        assert np.all(np.linalg.norm(a + w[:, None] * (b - a) - trace.exit_point, axis=1) <= 1e-12)
        assert np.any(np.isclose(w, 0.0, atol=1e-12) | np.isclose(w, 1.0, atol=1e-12))
        # ... and the direction enters through it, so it carries inflow
        assert np.all(mesh.boundary_normals[trace.exit_edge] @ u < 0)

    def test_ray_that_never_leaves_raises(self):
        mesh = self.rect_mesh()
        nbr, bnd = mesh._neighbours
        # send every boundary crossing back into its own triangle
        own = np.broadcast_to(np.arange(mesh.n_triangles)[:, None], nbr.shape)
        mesh.__dict__["_neighbours"] = (np.where(nbr < 0, own, nbr), bnd)
        with pytest.raises(RuntimeError, match="did not leave the mesh"):
            _trace(mesh, mesh.centroids, np.arange(mesh.n_triangles), np.array([1.0, 0.0]))


class TestSweepSharing:
    """Ordinates with the same planar direction share one trace."""

    def setup_sweep(self, ords):
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.0, a=3.0)
        sweep = SweepOperator(mesh, coeffs.mu, ords, q_analytic=src)
        return mesh, coeffs, src, sweep

    def test_z_mirrored_ordinates_give_identical_columns(self):
        ords = build_ordinates(4, 8)
        mesh, _, _, sweep = self.setup_sweep(ords)
        rng = np.random.default_rng(3)
        src_tri = rng.random(mesh.n_triangles)
        inflow = np.tile(rng.random((mesh.boundary_edges.shape[0], 1)), (1, ords.n_dirs))
        tri, bdry = sweep.apply(src_tri, inflow)
        # polar level i and 3 - i at the same azimuth: s_z flips, s_xy is equal
        mirror = np.arange(ords.n_dirs).reshape(4, 8)[::-1].ravel()
        dirs = ords.directions
        assert np.array_equal(dirs[mirror, :2], dirs[:, :2])
        assert np.array_equal(dirs[mirror, 2], -dirs[:, 2])
        assert np.array_equal(tri[:, mirror], tri)
        assert np.array_equal(bdry[:, mirror], bdry)

    def test_z_mirrored_ordinates_share_their_matrix(self):
        # one row block of the stacked matrix per (planar direction, |s_xy|)
        ords = build_ordinates(4, 8)
        _, _, _, sweep = self.setup_sweep(ords)
        mirror = np.arange(ords.n_dirs).reshape(4, 8)[::-1].ravel()
        assert np.array_equal(sweep._sweep[mirror], sweep._sweep)
        assert np.array_equal(np.unique(sweep._sweep), np.arange(ords.n_dirs // 2))
        assert sweep._matrix.shape == (ords.n_dirs // 2 * sweep.n_rays, sweep.mesh.n_triangles)

    def test_stacked_apply_matches_a_per_ordinate_loop(self):
        ords = build_ordinates(4, 8)
        mesh, coeffs, src, sweep = self.setup_sweep(ords)
        starts, start_tri = TestWalk.sweep_starts(mesh)
        rng = np.random.default_rng(6)
        src_tri = rng.random(mesh.n_triangles)
        inflow = rng.random((mesh.boundary_edges.shape[0], ords.n_dirs))
        vals = np.vstack(sweep.apply(src_tri, inflow))
        s_xy = ords.directions[:, :2]
        p = np.hypot(s_xy[:, 0], s_xy[:, 1])
        u = s_xy / p[:, None]
        for d in range(ords.n_dirs):
            # each ordinate is traced along the lexicographically smallest u
            # of the planar directions equal to its own up to roundoff
            group = np.flatnonzero(np.all(np.round(u, 12) == np.round(u[d], 12), axis=1))
            rep = u[group[np.lexsort((u[group, 1], u[group, 0]))[0]]]
            trace = _trace(mesh, starts, start_tri, rep)
            q_nodes = _sample_source(mesh, trace, starts, rep, src)
            w, exit_fac, q_line = _integrate(trace, coeffs.mu, 1.0 / p[d], q_nodes)
            mat = csr_matrix((w, (trace.ray, trace.tri)), shape=(starts.shape[0], mesh.n_triangles))
            ref = mat @ src_tri + q_line + exit_fac * inflow[trace.exit_edge, d]
            assert np.array_equal(vals[:, d], ref)

    def test_two_absorptions_trace_each_planar_direction_once(self, monkeypatch):
        import pnpml.oracle

        traced = []

        def counting_trace(mesh, starts, start_tri, u):
            traced.append(tuple(u))
            return _trace(mesh, starts, start_tri, u)

        monkeypatch.setattr(pnpml.oracle, "_trace", counting_trace)
        ords = build_ordinates(4, 8)
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.0, a=3.0)
        for a in (3.0, 6.0):
            mu = extend_coefficients(mesh, 2.0, 0.0, src, a=a).mu
            SweepOperator(mesh, mu, ords, q_analytic=src)
        assert len(traced) == len(set(traced)) == 8

    def test_cache_hit_build_matches_a_fresh_mesh(self):
        ords = build_ordinates(4, 8)
        mesh, _, src, _ = self.setup_sweep(ords)
        mu = extend_coefficients(mesh, 2.0, 0.0, src, a=6.0).mu
        hit = SweepOperator(mesh, mu, ords, q_analytic=src)
        fresh_mesh = Mesh2D(mesh.vertices.copy(), mesh.triangles.copy(), mesh.tags.copy(), mesh.h)
        fresh = SweepOperator(fresh_mesh, mu, ords, q_analytic=src)
        assert len(mesh._ray_paths) == len(fresh_mesh._ray_paths) == 8
        for sweep_array in ("_sweep", "_q_line", "_exit_fac", "_inflow_at"):
            assert np.array_equal(getattr(hit, sweep_array), getattr(fresh, sweep_array))
        for csr_array in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(hit._matrix, csr_array),
                                  getattr(fresh._matrix, csr_array))
        rng = np.random.default_rng(7)
        src_tri = rng.random(mesh.n_triangles)
        inflow = rng.random((mesh.boundary_edges.shape[0], ords.n_dirs))
        for a, b in zip(hit.apply(src_tri, inflow), fresh.apply(src_tri, inflow)):
            assert np.array_equal(a, b)

    def test_permuted_ordinates_permute_columns(self):
        ords = build_ordinates(4, 8)
        perm = np.random.default_rng(4).permutation(ords.n_dirs)
        inv = np.argsort(perm)
        permuted = OrdinateSet(directions=ords.directions[perm], weights=ords.weights[perm],
                               opposite=inv[ords.opposite[perm]])
        mesh, coeffs, src, sweep = self.setup_sweep(ords)
        sweep_p = SweepOperator(mesh, coeffs.mu, permuted, q_analytic=src)
        rng = np.random.default_rng(5)
        src_tri = rng.random(mesh.n_triangles)
        inflow = rng.random((mesh.boundary_edges.shape[0], ords.n_dirs))
        tri, bdry = sweep.apply(src_tri, inflow)
        tri_p, bdry_p = sweep_p.apply(src_tri, inflow[:, perm])
        assert np.array_equal(tri_p, tri[:, perm])
        assert np.array_equal(bdry_p, bdry[:, perm])

    def test_centroid_rows_match_characteristics(self):
        ords = build_ordinates(4, 8)
        mesh, coeffs, src, sweep = self.setup_sweep(ords)
        inflow = 0.7
        tri, _ = sweep.apply(np.zeros(mesh.n_triangles),
                             np.full((mesh.boundary_edges.shape[0], ords.n_dirs), inflow))
        for d, s in enumerate(ords.directions):
            ref = np.array([characteristics_solve(mesh, coeffs, c, s, q=src, inflow=inflow)
                            for c in mesh.centroids])
            assert np.max(np.abs(tri[:, d] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_concurrent_builds_on_one_mesh_match_a_serial_build(self):
        # more threads than cores, switching often: each build must read
        # only complete cache entries, whichever thread traced them
        ords = build_ordinates(4, 8)
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.0, a=3.0)
        fresh_mesh = Mesh2D(mesh.vertices.copy(), mesh.triangles.copy(), mesh.tags.copy(), mesh.h)
        ref = SweepOperator(fresh_mesh, coeffs.mu, ords, q_analytic=src)
        rng = np.random.default_rng(8)
        src_tri = rng.random(mesh.n_triangles)
        inflow = rng.random((mesh.boundary_edges.shape[0], ords.n_dirs))
        expected = ref.apply(src_tri, inflow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(SweepOperator, mesh, coeffs.mu, ords, q_analytic=src)
                           for _ in range(12)]
                sweeps = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(mesh._ray_paths) == 8
        for sweep in sweeps:
            for a, b in zip(sweep.apply(src_tri, inflow), expected):
                assert np.array_equal(a, b)


class TestSweepInflow:
    """Each ray takes the inflow of the boundary edge it enters by."""

    @pytest.mark.parametrize("spec, h", [
        (GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2)), 0.25),
        (disk_spec(), 0.16),
    ], ids=["rect", "disk"])
    def test_void_with_unit_inflow_is_one_everywhere(self, spec, h):
        # no absorption, no source, unit inflow on every entering (edge, ordinate)
        mesh = build_mesh(spec, h)
        ords = build_ordinates(4, 8)
        sweep = SweepOperator(mesh, np.zeros(mesh.n_triangles), ords)
        inflow = (mesh.boundary_normals @ ords.directions[:, :2].T < 0).astype(float)
        tri, bdry = sweep.apply(np.zeros(mesh.n_triangles), inflow)
        assert np.all(tri == 1.0)
        assert np.all(bdry == 1.0)

    def test_ordinate_along_the_invariant_axis_rejected(self):
        mesh = unit_square_mesh(h=0.5)
        ords = OrdinateSet(directions=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                                [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
                           weights=np.full(4, np.pi), opposite=np.array([1, 0, 3, 2]))
        with pytest.raises(ValueError, match="invariant axis"):
            SweepOperator(mesh, np.ones(mesh.n_triangles), ords)


class TestSourceIteration:
    def test_zero_kernel_single_sweep(self):
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.0, a=1.0)
        ords = build_ordinates(4, 8)
        field = source_iteration(mesh, coeffs, ords, VACUUM, tol=1e-12, q=src)
        sweep = SweepOperator(mesh, coeffs.mu, ords, q_analytic=src)
        tri, _ = sweep.apply(np.zeros(mesh.n_triangles), np.zeros((mesh.boundary_edges.shape[0], ords.n_dirs)))
        assert np.array_equal(field.tri_values, tri)

    def test_example1_coarse_positive_peak_near_source(self):
        _, mesh, coeffs, src = disk_setup(h=0.5, mu=10.1, sig0=10.0,
                                          a=-np.log(0.25) / 0.2)
        ords = build_ordinates(4, 8)
        field = source_iteration(mesh, coeffs, ords, REFLECT, tol=5e-4, q=src)
        mean = ordinate_mean(field)
        assert np.all(mean > 0)
        peak = mesh.centroids[np.argmax(mean)]
        assert np.linalg.norm(peak - [0.75, 0.0]) <= 0.45

    def test_supercritical_rejected(self):
        _, mesh, _, src = disk_setup(h=0.5, mu=2.0, sig0=0.5, a=1.0)
        coeffs = extend_coefficients(mesh, 1.0, 1.0, src, a=1.0)
        ords = build_ordinates(2, 4)
        with pytest.raises(ValueError):
            source_iteration(mesh, coeffs, ords, VACUUM, tol=1e-6,
                             max_iter=None)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_empty_iteration_budget_rejected(self, max_iter):
        _, mesh, coeffs, src = disk_setup(h=0.5, mu=2.0, sig0=0.5, a=1.0)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), VACUUM, tol=1e-6,
                             q=src, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_tolerance_rejected(self, monkeypatch, tol):
        import pnpml.oracle

        def no_sweep(*args, **kwargs):
            raise AssertionError("no sweep may be built on a bad tolerance")

        _, mesh, coeffs, src = disk_setup(h=0.5, mu=2.0, sig0=0.5, a=1.0)
        monkeypatch.setattr(pnpml.oracle, "SweepOperator", no_sweep)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), VACUUM, tol=tol, q=src)

    @pytest.mark.parametrize("name", ["coeffs.mu", "coeffs.sigma", "coeffs.source", "q",
                                      "initial_inflow"])
    def test_non_finite_input_rejected_before_a_sweep(self, monkeypatch, name):
        import pnpml.oracle

        def no_sweep(*args, **kwargs):
            raise AssertionError("no sweep may be built on non-finite data")

        _, mesh, coeffs, _ = disk_setup(h=0.5, mu=2.0, sig0=0.5, a=1.0)
        nt, nbe = mesh.n_triangles, mesh.boundary_edges.shape[0]
        kwargs = {"q": None if name == "coeffs.source" else np.ones(nt)}
        if name == "initial_inflow":
            kwargs[name] = np.zeros((nbe, 8))
        bad = {"coeffs.mu": coeffs.mu, "coeffs.sigma": coeffs.sigma,
               "coeffs.source": coeffs.source}.get(name, kwargs.get(name))
        bad.flat[bad.size // 2] = np.nan
        monkeypatch.setattr(pnpml.oracle, "SweepOperator", no_sweep)
        with pytest.raises(ValueError, match=f"^{name} is not finite"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), REFLECT, tol=1e-6,
                             max_iter=500, **kwargs)

    def test_vacuum_refuses_an_initial_inflow_before_a_sweep(self, monkeypatch):
        import pnpml.oracle

        def no_sweep(*args, **kwargs):
            raise AssertionError("no sweep may be built for a vacuum warm start")

        _, mesh, coeffs, src = disk_setup(h=0.5, mu=2.0, sig0=0.0, a=1.0)
        h0 = np.ones((mesh.boundary_edges.shape[0], 8))
        monkeypatch.setattr(pnpml.oracle, "SweepOperator", no_sweep)
        with pytest.raises(ValueError, match="initial_inflow is for REFLECT only"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), VACUUM, tol=1e-6, q=src,
                             initial_inflow=h0)

    @pytest.mark.parametrize("shape", [(18, 9), (144,), (21, 8)])
    def test_initial_inflow_of_the_wrong_shape_rejected_before_a_sweep(self, monkeypatch,
                                                                       shape):
        import pnpml.oracle

        def no_sweep(*args, **kwargs):
            raise AssertionError("no sweep may be built for a misshapen warm start")

        _, mesh, coeffs, src = disk_setup(h=0.5, mu=2.0, sig0=0.5, a=1.0)
        assert mesh.boundary_edges.shape[0] == 18
        monkeypatch.setattr(pnpml.oracle, "SweepOperator", no_sweep)
        with pytest.raises(ValueError, match=r"initial_inflow must have shape \(18, 8\)"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), REFLECT, tol=1e-6, q=src,
                             initial_inflow=np.zeros(shape))

    @pytest.mark.parametrize("bc", [VACUUM, REFLECT])
    def test_each_sweep_is_monitored_and_the_result_is_a_fixed_point(self, monkeypatch, bc):
        # the sweep count is the number of SweepOperator.apply calls; one more
        # sweep from the returned field moves the unknown x = (phi, h) by at
        # most tol relative to the first sweep's move from x0 = 0
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=1.0, a=2.0)
        ords = build_ordinates(4, 8)
        tol = 1e-8
        applies, sweeps = [], []
        apply = SweepOperator.apply

        def counting_apply(self, src_tri, inflow):
            applies.append(1)
            return apply(self, src_tri, inflow)

        monkeypatch.setattr(SweepOperator, "apply", counting_apply)
        field = source_iteration(mesh, coeffs, ords, bc, tol=tol, q=src,
                                 monitor=lambda it, f: sweeps.append(f))
        assert len(applies) == len(sweeps) > 2

        s_dot_n = mesh.boundary_normals @ ords.directions[:, :2].T
        factors = np.zeros_like(s_dot_n)
        if bc == REFLECT:
            factors[s_dot_n < 0] = reflect_factor(s_dot_n[s_dot_n < 0])

        def unknown(f):
            return np.concatenate([f.tri_values @ ords.weights,
                                   (factors * f.boundary_values[:, ords.opposite]).ravel()])

        x = unknown(field)
        tri, bdry = apply(SweepOperator(mesh, coeffs.mu, ords, q_analytic=src),
                          coeffs.sigma[:, 0] / (4 * np.pi) * x[:mesh.n_triangles],
                          x[mesh.n_triangles:].reshape(factors.shape))
        moved = np.linalg.norm(unknown(SampledField(tri, bdry, ords, mesh)) - x)
        assert moved <= tol * np.linalg.norm(unknown(sweeps[0]))

    def test_spent_budget_raises_with_the_last_change(self):
        _, mesh, coeffs, src = disk_setup(h=0.5, mu=2.0, sig0=1.0, a=1.0)
        sweeps = []
        with pytest.raises(RuntimeError, match="did not converge within 2 sweeps"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), VACUUM, tol=1e-12, q=src,
                             max_iter=2, monitor=lambda it, field: sweeps.append(it))
        assert sweeps == [1, 2]

    def test_non_finite_analytic_source_rejected_before_a_sweep(self):
        _, mesh, coeffs, _ = disk_setup(h=0.5, mu=2.0, sig0=0.5, a=1.0)
        src = lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0)
        sweeps = []
        with pytest.raises(ValueError, match="^q is not finite"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), VACUUM, tol=1e-6, q=src,
                             monitor=lambda it, field: sweeps.append(it))
        assert sweeps == []

    def test_overflow_stops_at_the_first_sweep(self):
        # finite data whose sweep overflows: the change is inf at once
        _, mesh, coeffs, _ = disk_setup(h=0.5, mu=0.1, sig0=0.05, a=1.0)
        sweeps = []
        with pytest.raises(RuntimeError, match="broke down at sweep 1: the change is inf"):
            source_iteration(mesh, coeffs, build_ordinates(2, 4), VACUUM, tol=1e-6,
                             q=np.full(mesh.n_triangles, 1e308), max_iter=500,
                             monitor=lambda it, field: sweeps.append(it))
        assert sweeps == []

    def test_contraction_rate(self):
        # source iteration's successive differences obey d_{k+1} = L d_k: a
        # sweep of the scattering source alone, on a sweep built without q
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.6, a=2.0)
        ords = build_ordinates(4, 8)
        inflow = np.zeros((mesh.boundary_edges.shape[0], ords.n_dirs))
        delta, _ = SweepOperator(mesh, coeffs.mu, ords, q_analytic=src).apply(
            np.zeros(mesh.n_triangles), inflow)
        scatter = SweepOperator(mesh, coeffs.mu, ords)
        diffs = []
        while not diffs or diffs[-1] > 1e-10:
            delta, _ = scatter.apply(coeffs.sigma[:, 0] / (4 * np.pi) * (delta @ ords.weights),
                                     inflow)
            diffs.append(np.max(np.abs(delta)))
        ratio = 0.6 / 2.0
        for d0, d1 in zip(diffs[1:-2], diffs[2:-1]):
            if d0 > 1e-12:
                assert d1 / d0 <= ratio + 0.1

    def test_missing_ray_boundary_values_vanish(self):
        # boundary samples whose line misses the inner region decay to zero
        spec, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.6,
                                             a=-np.log(1 / 16) / 0.2)
        ords = build_ordinates(4, 8)
        tol = 1e-8
        history = []

        mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                      + mesh.vertices[mesh.boundary_edges[:, 1]])
        missing = np.zeros((mids.shape[0], ords.n_dirs), dtype=bool)
        for b, rm in enumerate(mids):
            for d, s in enumerate(ords.directions):
                fwd = ray_exit_distance(spec, rm, s)
                bwd = ray_exit_distance(spec, rm, -s)
                missing[b, d] = np.isinf(fwd) and np.isinf(bwd)
        assert missing.any()

        def monitor(it, field):
            history.append(np.max(np.abs(field.boundary_values[missing])))

        # seed the untouched lines with order-one inflow: the reflective
        # round trip must still drive them to zero
        h0 = missing.astype(float)
        field = source_iteration(mesh, coeffs, ords, REFLECT, tol=tol, q=src,
                                 monitor=monitor, initial_inflow=h0)
        assert history[0] > 1e-3
        assert history[-1] <= 10 * tol
        assert history[-1] < 1e-3 * history[0]

    def test_reflective_iteration_is_pinned(self):
        # the reflection rule in the scattering regime (c = 0.99): the sweep
        # count and two sums of the field pin the reflective oracle's output.
        # Source iteration run to a change of 1e-13 (963 sweeps) gives
        # 561.0208093217323 and 0.07195888821242322
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=10.1, sig0=10.0,
                                          a=-np.log(1 / 16) / disk_spec().layer_depth)
        sweeps = []
        field = source_iteration(mesh, coeffs, build_ordinates(4, 8), REFLECT, tol=1e-8,
                                 q=src, monitor=lambda it, _: sweeps.append(it))
        assert len(sweeps) == 27
        assert ordinate_mean(field).sum() == pytest.approx(561.0208093088846, rel=1e-10)
        assert boundary_trace_norm(field) == pytest.approx(0.07195888825047102, rel=1e-10)


class TestConsistencyError:
    def test_identical_fields(self):
        _, mesh, coeffs, src = disk_setup(h=0.25, mu=2.0, sig0=0.0, a=1.0)
        sub, _, tmap = submesh_interior(mesh)
        ords = build_ordinates(4, 8)
        full = source_iteration(mesh, coeffs, ords, VACUUM, tol=1e-12, q=src)
        restricted = type(full)(full.tri_values[tmap], full.boundary_values[:0],
                                ords, sub)
        assert consistency_error(restricted, full, tmap) == 0.0

    def test_ordinate_mismatch_rejected(self):
        _, mesh, coeffs, src = disk_setup(h=0.5, mu=2.0, sig0=0.0, a=1.0)
        sub, _, tmap = submesh_interior(mesh)
        o1, o2 = build_ordinates(2, 4), build_ordinates(4, 8)
        f1 = source_iteration(sub, extend_coefficients(sub, 2.0, 0.0, src, a=1.0),
                              o1, VACUUM, tol=1e-10, q=src)
        f2 = source_iteration(mesh, coeffs, o2, VACUUM, tol=1e-10, q=src)
        with pytest.raises(ValueError):
            consistency_error(f1, f2, tmap)

    def test_triangle_map_of_the_wrong_length_rejected(self):
        _, mesh, coeffs, src = disk_setup(h=0.5, mu=2.0, sig0=0.0, a=1.0)
        sub, _, tmap = submesh_interior(mesh)
        ords = build_ordinates(2, 4)
        inner = source_iteration(sub, extend_coefficients(sub, 2.0, 0.0, src, a=1.0),
                                 ords, VACUUM, tol=1e-10, q=src)
        full = source_iteration(mesh, coeffs, ords, VACUUM, tol=1e-10, q=src)
        with pytest.raises(ValueError, match="triangle map does not match"):
            consistency_error(inner, full, tmap[:-1])

    def test_layer_absorption_sweep(self):
        # doubling a: error drops at least first order in e^{-a ell} (factor-2
        # slack); a = 0 anchors the largest error
        spec = disk_spec()
        ell = spec.layer_depth
        mesh = build_mesh(spec, 0.25)
        sub, _, tmap = submesh_interior(mesh)
        ords = build_ordinates(4, 8)
        src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
        tol = 1e-9

        sub_coeffs = extend_coefficients(sub, 2.0, 0.6, src, a=1.0)
        u_vac = source_iteration(sub, sub_coeffs, ords, VACUUM, tol=tol, q=src)

        a1 = -np.log(1 / 16) / ell
        errors = {}
        for a in (0.0, a1, 2 * a1):
            coeffs = extend_coefficients(mesh, 2.0, 0.6, src, a=a)
            w = source_iteration(mesh, coeffs, ords, REFLECT, tol=tol, q=src)
            errors[a] = consistency_error(u_vac, w, tmap)
        print(f"\nconsistency errors by a: {errors}")
        assert errors[0.0] == max(errors.values())
        assert errors[2 * a1] <= 2 * np.exp(-a1 * ell) * errors[a1]

    def test_boundary_trace_decay(self):
        # fitted decay constant of the boundary trace within 25% of the layer
        # depth across one doubling of a; the prefactor of the exp(-a*l) bound
        # stays stable (and non-increasing) across two doublings
        spec = disk_spec()
        ell = spec.layer_depth
        mesh = build_mesh(spec, 0.25)
        ords = build_ordinates(4, 8)
        src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
        a1 = -np.log(1 / 16) / ell
        norms = {}
        for a in (a1, 2 * a1, 4 * a1):
            coeffs = extend_coefficients(mesh, 2.0, 0.6, src, a=a)
            w = source_iteration(mesh, coeffs, ords, REFLECT, tol=1e-11, q=src)
            norms[a] = boundary_trace_norm(w)
        fitted = np.log(norms[a1] / norms[2 * a1]) / a1
        prefactors = [norms[a] * np.exp(a * ell) for a in (a1, 2 * a1, 4 * a1)]
        print(f"\ntrace norms {norms}, fitted depth {fitted:.4f} vs {ell}, "
              f"prefactors {prefactors}")
        assert abs(fitted - ell) <= 0.25 * ell
        assert max(prefactors) / min(prefactors) <= 4.0
        assert all(c <= 1.1 * prefactors[0] for c in prefactors)

    def test_error_depends_on_the_product_of_absorption_and_layer_depth(self):
        # the paper's layer-size claim: at a fixed a * ell the error is the
        # same whatever the layer depth, and it falls faster than exp(-1.8 a ell);
        # without absorption (a = 0) a deeper layer leaves most of the error
        src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
        ords = build_ordinates(4, 8)
        tol = 1e-10
        errors = {}
        for ell in (0.1, 0.2, 0.4):
            mesh = build_mesh(GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.0 + ell)),
                              0.25)
            sub, _, tmap = submesh_interior(mesh)
            u_vac = source_iteration(sub, extend_coefficients(sub, 2.0, 0.6, src, a=0.0), ords,
                                     VACUUM, tol=tol, q=src)
            for a in (0.0, 6.0, 12.0):
                w = source_iteration(mesh, extend_coefficients(mesh, 2.0, 0.6, src, a=a), ords,
                                     REFLECT, tol=tol, q=src)
                errors[ell, a] = consistency_error(u_vac, w, tmap)
        slopes = {ell: np.log(errors[ell, 6.0] / errors[ell, 12.0]) / (6.0 * ell)
                  for ell in (0.1, 0.2, 0.4)}
        print(f"\nconsistency errors by (ell, a): {errors}; log-slopes in a*ell {slopes}")
        # measured: 1.29e-3 vs 1.23e-3 at a*ell = 1.2, 6.07e-5 vs 5.73e-5 at
        # 2.4; slopes 3.0, 2.5, 2.3; 7.6%, 7.3%, 6.4% at a = 0
        assert errors[0.1, 12.0] == pytest.approx(errors[0.2, 6.0], rel=0.15)
        assert errors[0.2, 12.0] == pytest.approx(errors[0.4, 6.0], rel=0.15)
        assert all(slope >= 1.8 for slope in slopes.values())
        assert all(errors[ell, 0.0] > 0.05 for ell in (0.1, 0.2, 0.4))
