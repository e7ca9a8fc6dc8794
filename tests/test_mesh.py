import time
from functools import partial

import numpy as np
import pytest

import pnpml.mesh
from pnpml.cli import RunConfig, _ProblemCache
from pnpml.mesh import (
    INTERIOR,
    LAYER,
    Disk,
    GeometryError,
    GeometrySpec,
    Mesh2D,
    Rect,
    boundary_mass_matrix,
    build_mesh,
    edge_local_mass,
    load_mesh,
    p0_prolong,
    p1_prolong,
    ray_exit_distance,
    save_mesh,
    submesh_interior,
    uniform_refine,
)

RNG = np.random.default_rng(7)


def example1_spec():
    return GeometrySpec(inner=Disk(0.0, 0.0, 1.0), outer=Disk(0.0, 0.0, 1.2))


def rect_spec():
    return GeometrySpec(inner=Rect(0, 0, 7, 7), outer=Rect(-1, -1, 8, 8))


def asymmetric_rect_spec():
    return GeometrySpec(inner=Rect(1, 0.5, 3, 2), outer=Rect(0, 0, 5, 3))


SMALL_MESHES = [(example1_spec(), 0.25), (rect_spec(), 1.0)]


def dense_boundary(shape, m):
    """Boundary samples and outward normals: 4m on a circle, or m + 1 per
    rectangle side with both of its corners."""
    pts, nrms = shape.boundary_points(4 * m)
    if isinstance(shape, Disk):
        return pts, nrms
    # boundary_points starts side k at pts[k m] and leaves out its end corner,
    # which is the start of side k + 1
    return (np.vstack([pts, np.roll(pts[::m], -1, axis=0)]),
            np.vstack([nrms, nrms[::m]]))


def first_seen_edges(mesh):
    """Dict reference for the edge table: [(a, b), first triangle, triangle
    count] per unique edge, in first-seen order over (triangle t, local edge
    k = (t[k], t[(k+1) % 3])), oriented as first seen."""
    seen = {}
    for t, tri in enumerate(mesh.triangles.tolist()):
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            key = (min(a, b), max(a, b))
            if key in seen:
                seen[key][2] += 1
            else:
                seen[key] = [(a, b), t, 1]
    return list(seen.values())


class TestGeometrySpec:
    def test_layer_depth_disk(self):
        assert example1_spec().layer_depth == pytest.approx(0.2, abs=1e-12)

    def test_layer_depth_rect(self):
        assert rect_spec().layer_depth == pytest.approx(1.0, abs=1e-9)

    def test_grazing_sine_disk(self):
        # tangent ray from the outer circle to the inner one:
        # sin(alpha) = sqrt(b^2 - rho^2) / b
        expect = np.sqrt(1.2**2 - 1.0) / 1.2
        assert example1_spec().grazing_sine == pytest.approx(expect, abs=1e-4)
        assert example1_spec().grazing_sine > 0

    def test_grazing_sine_rect_positive(self):
        assert 0 < rect_spec().grazing_sine < 1

    def test_containment_enforced(self):
        with pytest.raises(GeometryError):
            GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0.5, 0, 1.2))

    @pytest.mark.parametrize("spec, ell, eta", [
        (example1_spec(), 0.2, np.sqrt(1.2**2 - 1.0) / 1.2),
        (rect_spec(), 1.0, 1.0 / np.sqrt(65.0)),
        (asymmetric_rect_spec(), 0.5, 0.5 / np.hypot(0.5, 4.0)),
    ], ids=["disk", "lattice", "asymmetric_rect"])
    def test_closed_forms_match_brute_force_minima(self, spec, ell, eta):
        assert spec.layer_depth == pytest.approx(ell, rel=1e-14)
        assert spec.grazing_sine == pytest.approx(eta, rel=1e-14)
        outer, outer_n = dense_boundary(spec.outer, 300)
        inner, _ = dense_boundary(spec.inner, 300)
        # depth: nearest outer-boundary point to the inner region
        assert np.min(spec.inner.distance(outer)) == pytest.approx(spec.layer_depth, abs=1e-12)
        # grazing sine: unit travel directions from inner to outer boundary
        # points against the outer normal; the extremes leave the inner
        # region from its boundary, at a corner or along a tangent
        u = outer[:, None, :] - inner[None, :, :]
        cos = np.sum(u * outer_n[:, None, :], axis=2) / np.linalg.norm(u, axis=2)
        brute = cos.min()
        assert brute >= spec.grazing_sine - 1e-12
        # a sampled tangent misses the minimum at second order in the spacing
        assert brute - spec.grazing_sine <= (1e-4 if isinstance(spec.inner, Disk) else 1e-12)

    def test_rays_never_reach_the_boundary_below_the_grazing_sine(self):
        spec = asymmetric_rect_spec()
        pts, nrms = dense_boundary(spec.outer, 20)
        angles = 2 * np.pi * np.arange(180) / 180
        incidences = []
        for r, n in zip(pts, nrms):
            for ang in angles:
                s = np.array([np.cos(ang), np.sin(ang), 0.0])
                if s[:2] @ n > 0 and np.isfinite(ray_exit_distance(spec, r, s)):
                    incidences.append(s[:2] @ n)
        assert min(incidences) >= spec.grazing_sine - 1e-12
        assert min(incidences) <= spec.grazing_sine + 0.02

    # the shapes are built inside the check: a NaN disk already raises there
    @pytest.mark.parametrize("inner, outer", [
        (partial(Disk, 0.5, 0.5, 0.25), partial(Rect, 0, 0, 1, 1)),
        (partial(Rect, -0.5, -0.5, 0.5, 0.5), partial(Disk, 0, 0, 1.2)),
        (partial(Disk, 0.1, 0, 0.5), partial(Disk, 0, 0, 1.2)),
        (partial(Rect, 0, 0, 1, 1), partial(Rect, 0, 0, 2, 2)),
        (partial(Disk, 0, 0, 1.2), partial(Disk, 0, 0, 1.2)),
        (partial(Disk, np.nan, 0, 1.0), partial(Disk, np.nan, 0, 1.2)),
    ], ids=["disk_in_rect", "rect_in_disk", "non_concentric_disks",
            "touching_rects", "equal_disks", "nan_centres"])
    def test_unmeshable_layouts_rejected(self, inner, outer):
        with pytest.raises(GeometryError):
            GeometrySpec(inner=inner(), outer=outer())

    def test_nan_rect_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, np.nan, 1)

    @pytest.mark.parametrize("shape, args", [
        (Disk, (np.inf, 0, 1)), (Disk, (0, -np.inf, 1)), (Disk, (0, 0, np.inf)),
        (Disk, (0, 0, np.nan)), (Rect, (-1, -1, np.inf, 2)), (Rect, (-np.inf, -1, 1, 2)),
    ])
    def test_non_finite_shape_rejected(self, shape, args):
        with pytest.raises(GeometryError, match="finite"):
            shape(*args)


class TestBuildRect:
    def test_structured_grid_counts(self):
        # 9x9 vertex grid and 2 triangles per cell on a side-8 outer square
        spec = GeometrySpec(inner=Rect(1, 1, 7, 7), outer=Rect(0, 0, 8, 8))
        mesh = build_mesh(spec, 1.0)
        assert mesh.n_vertices == 81
        assert mesh.n_triangles == 128

    def test_example2_counts(self):
        mesh = build_mesh(rect_spec(), 1.0)
        assert mesh.n_vertices == 10 * 10
        assert mesh.n_triangles == 2 * 9 * 9
        assert set(np.unique(mesh.tags)) == {INTERIOR, LAYER}
        # interior cells of (0,7)^2: 49 cells
        assert np.count_nonzero(mesh.tags == INTERIOR) == 2 * 49

    def test_area_exact(self):
        mesh = build_mesh(rect_spec(), 0.5)
        assert mesh.areas.sum() == pytest.approx(81.0, rel=1e-12)
        assert np.all(mesh.areas > 0)

    def test_gradients_stored_with_the_triangles_innermost(self):
        # the layout the stiffness products read, so they use it uncopied
        mesh = build_mesh(rect_spec(), 1.0)
        g = mesh.gradients
        assert g.shape == (2, 3, mesh.n_triangles) and g.flags.c_contiguous
        for g_i, gm in zip(g, mesh.gradient_matrices):
            rows = gm.toarray()[np.arange(mesh.n_triangles)[:, None], mesh.triangles]
            assert np.array_equal(rows, g_i.T)

    def test_misaligned_h_rejected(self):
        with pytest.raises(GeometryError):
            build_mesh(rect_spec(), 0.7)


class TestBuildDisk:
    def test_all_tagged_and_depth(self):
        spec = example1_spec()
        mesh = build_mesh(spec, 0.1)
        assert set(np.unique(mesh.tags)) <= {INTERIOR, LAYER}
        assert np.count_nonzero(mesh.tags == LAYER) > 0
        assert spec.layer_depth == pytest.approx(0.2, abs=1e-12)
        mesh.validate()

    def test_area_close_to_disk(self):
        spec = example1_spec()
        mesh = build_mesh(spec, 0.05)
        # polygonal approximation of the circle: O(h^2) area defect
        assert mesh.areas.sum() == pytest.approx(np.pi * 1.2**2, rel=5e-3)

    def test_interior_submesh_conforms(self):
        mesh = build_mesh(example1_spec(), 0.1)
        sub, vmap, tmap = submesh_interior(mesh)
        sub.validate()
        assert sub.n_triangles == np.count_nonzero(mesh.tags == INTERIOR)
        # interior polygon vertices live on the unit circle
        r = np.linalg.norm(sub.vertices[sub.boundary_vertices], axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_non_positive_radius_rejected(self, radius):
        with pytest.raises(GeometryError, match="disk radius must be positive"):
            Disk(0.0, 0.0, radius)

    def test_quasi_uniform(self):
        mesh = build_mesh(example1_spec(), 0.1)
        a, b, c = mesh.vertices[mesh.triangles].transpose(1, 0, 2)
        edges = np.concatenate([np.linalg.norm(b - a, axis=1),
                                np.linalg.norm(c - b, axis=1),
                                np.linalg.norm(a - c, axis=1)])
        assert edges.max() / edges.min() < 8.0


class TestSizeCap:
    @pytest.mark.parametrize("spec, h", [
        (GeometrySpec(inner=Disk(0, 0, 1), outer=Disk(0, 0, 1e6)), 0.5),
        (GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1000, -1000, 1001, 1001)), 0.25),
    ], ids=["disk", "rect"])
    def test_oversized_layout_fails_fast(self, spec, h):
        # about 2e13 and 1.3e8 triangles: refused before anything is allocated
        t0 = time.perf_counter()
        with pytest.raises(GeometryError, match="MAX_TRIANGLES"):
            build_mesh(spec, h)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf])
    @pytest.mark.parametrize("spec", [example1_spec(), rect_spec()], ids=["disk", "rect"])
    def test_bad_mesh_size_rejected(self, spec, h):
        # h = inf would give the rectangle an empty mesh that passes validate()
        with pytest.raises(GeometryError, match="mesh size"):
            build_mesh(spec, h)

    @pytest.mark.parametrize("spec", [example1_spec(), rect_spec()], ids=["disk", "rect"])
    def test_subnormal_mesh_size_fails_fast(self, spec):
        # length / 5e-324 is infinite: refused before it is rounded to a count
        with pytest.raises(GeometryError, match="inf cells .* MAX_TRIANGLES"):
            build_mesh(spec, 5e-324)

    @pytest.mark.parametrize("spec, h", SMALL_MESHES, ids=["disk", "rect"])
    def test_predicted_count_is_the_built_count(self, spec, h, monkeypatch):
        n = build_mesh(spec, h).n_triangles
        monkeypatch.setattr(pnpml.mesh, "MAX_TRIANGLES", n)
        assert build_mesh(spec, h).n_triangles == n
        monkeypatch.setattr(pnpml.mesh, "MAX_TRIANGLES", n - 1)
        with pytest.raises(GeometryError):
            build_mesh(spec, h)

    def test_refinement_beyond_the_cap_raises(self, monkeypatch):
        mesh = build_mesh(example1_spec(), 0.25)
        monkeypatch.setattr(pnpml.mesh, "MAX_TRIANGLES", 4 * mesh.n_triangles)
        fine = uniform_refine(mesh)
        with pytest.raises(GeometryError, match="MAX_TRIANGLES"):
            uniform_refine(fine)


class TestRefine:
    def test_triangle_count_quadruples(self):
        spec = GeometrySpec(inner=Rect(1, 1, 7, 7), outer=Rect(0, 0, 8, 8))
        mesh = build_mesh(spec, 1.0)
        assert mesh.n_triangles == 128
        fine = uniform_refine(mesh)
        assert fine.n_triangles == 512
        fine.validate()

    def test_tags_inherited(self):
        mesh = build_mesh(example1_spec(), 0.2)
        fine = uniform_refine(mesh)
        assert np.array_equal(fine.tags, np.repeat(mesh.tags, 4))

    def test_vertex_growth_factor(self):
        mesh = build_mesh(example1_spec(), 0.2)
        n0 = mesh.n_vertices
        for _ in range(2):
            mesh = uniform_refine(mesh)
        assert mesh.n_vertices == pytest.approx(16 * n0, rel=0.3)

    def test_nested_p1_prolongation_exact(self):
        mesh = build_mesh(example1_spec(), 0.2)
        fine = uniform_refine(mesh)
        coef = RNG.normal(size=mesh.n_vertices)
        fine_coef = p1_prolong(mesh, coef)
        # a P1 function is linear on each coarse triangle: evaluate the coarse
        # field at every fine vertex through barycentric interpolation
        a, b, c = mesh.vertices[mesh.triangles].transpose(1, 0, 2)
        for t, tri in enumerate(mesh.triangles):
            for child in range(4):
                for v in fine.triangles[4 * t + child]:
                    p = fine.vertices[v]
                    T = np.column_stack([b[t] - a[t], c[t] - a[t]])
                    lam = np.linalg.solve(T, p - a[t])
                    exact = (coef[tri[0]] * (1 - lam.sum())
                             + coef[tri[1]] * lam[0] + coef[tri[2]] * lam[1])
                    assert abs(fine_coef[v] - exact) <= 1e-13

    def test_p0_prolong(self):
        vals = np.arange(5.0)
        assert np.array_equal(p0_prolong(vals), np.repeat(vals, 4))

    @pytest.mark.parametrize("spec,h", SMALL_MESHES)
    def test_numbering_follows_first_seen_edges(self, spec, h):
        mesh = build_mesh(spec, h)
        fine = uniform_refine(mesh)
        edges = first_seen_edges(mesh)
        nv = mesh.n_vertices
        assert fine.n_vertices == nv + len(edges)
        assert np.array_equal(fine.vertices[:nv], mesh.vertices)
        mid = {}
        for k, ((a, b), _, _) in enumerate(edges):
            assert np.array_equal(fine.vertices[nv + k],
                                  0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            mid[min(a, b), max(a, b)] = nv + k
        m = lambda i, j: mid[min(i, j), max(i, j)]
        for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
            ab, bc, ca = m(a, b), m(b, c), m(c, a)
            assert fine.triangles[4 * t:4 * t + 4].tolist() == [
                [a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        vals = RNG.normal(size=(nv, 2))
        fine_vals = p1_prolong(mesh, vals)
        for k, ((a, b), _, _) in enumerate(edges):
            assert np.array_equal(fine_vals[nv + k], 0.5 * (vals[a] + vals[b]))


class TestChain:
    @pytest.mark.parametrize("spec,h", SMALL_MESHES)
    def test_refined_mesh_records_its_parent_and_prolongation(self, spec, h):
        mesh = build_mesh(spec, h)
        fine = uniform_refine(mesh)
        assert fine.parent is mesh
        assert "parent" not in repr(fine)
        # reference: coarse values, then the mean of each edge's ends in table order
        ends = mesh._edges.ends
        vals = RNG.normal(size=(mesh.n_vertices, 3))
        want = np.concatenate([vals, 0.5 * (vals[ends[:, 0]] + vals[ends[:, 1]])])
        for v, w in ((vals, want), (vals[:, 0], want[:, 0])):
            got = fine.parent.prolongation @ v
            assert got.shape == w.shape and got.tobytes() == w.tobytes()
            assert p1_prolong(mesh, v).tobytes() == got.tobytes()
        assert np.array_equal(mesh.prolongation @ mesh.vertices, fine.vertices)

    def test_built_loaded_and_submeshes_have_no_parent(self, tmp_path):
        mesh = build_mesh(example1_spec(), 0.25)
        fine = uniform_refine(mesh)
        path = tmp_path / "mesh.txt"
        save_mesh(fine, path)
        assert mesh.parent is None
        assert load_mesh(path).parent is None
        assert submesh_interior(fine)[0].parent is None

    def test_problem_cache_holds_one_chain(self):
        cfg = RunConfig.parse("geometry.kind = disk\ngeometry.inner = 0 0 1.0\n"
                              "geometry.outer = 0 0 1.2\nphysics.mu = 2.0\n"
                              "physics.source = constant 1.0\ndisc.base_h = 0.25\n")
        meshes = _ProblemCache(cfg, [2], [1]).meshes
        assert len(meshes) == 3 and meshes[0].parent is None
        for k in (1, 2):
            assert meshes[k].parent is meshes[k - 1]


class TestValidate:
    def test_edge_of_three_triangles_rejected(self):
        # three positively oriented triangles on the base edge (0, 1)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
        mesh = Mesh2D(vertices=verts, triangles=[[0, 1, 2], [0, 1, 3], [0, 1, 4]],
                      tags=np.zeros(3), h=1.0)
        assert np.all(mesh.areas > 0)
        with pytest.raises(GeometryError, match="not conforming"):
            mesh.validate()


class TestRayExit:
    def test_collinear(self):
        spec = example1_spec()
        assert ray_exit_distance(spec, (1.1, 0.0), (1.0, 0.0, 0.0)) == pytest.approx(0.1, abs=1e-12)

    def test_miss_is_infinite(self):
        spec = example1_spec()
        assert ray_exit_distance(spec, (1.2, 0.0), (0.0, 1.0, 0.0)) == np.inf

    def test_boundary_normal_ray(self):
        spec = example1_spec()
        assert ray_exit_distance(spec, (1.2, 0.0), (1.0, 0.0, 0.0)) == pytest.approx(0.2, abs=1e-12)

    def test_vertical_direction_infinite(self):
        spec = example1_spec()
        assert ray_exit_distance(spec, (1.1, 0.0), (0.0, 0.0, 1.0)) == np.inf

    def test_oblique_scaling(self):
        # 3D arc length is planar distance divided by the planar speed
        spec = example1_spec()
        s = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        assert ray_exit_distance(spec, (1.1, 0.0), s) == pytest.approx(0.1 * np.sqrt(2), abs=1e-12)

    def test_inside_rejected(self):
        with pytest.raises(GeometryError):
            ray_exit_distance(example1_spec(), (0.5, 0.0), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("spec", [example1_spec(), rect_spec()])
    def test_depth_bound_and_hit_points(self, spec):
        ell = spec.layer_depth
        pts, _ = spec.outer.boundary_points(100)
        n_finite = 0
        for _ in range(100):
            v = RNG.normal(size=3)
            s = v / np.linalg.norm(v)
            for r in pts:
                d = ray_exit_distance(spec, r, s)
                if np.isinf(d):
                    continue
                n_finite += 1
                assert d >= ell - 1e-12
                p = np.hypot(s[0], s[1])
                hit = r - d * p * np.array([s[0], s[1]]) / p
                assert abs(spec.inner.distance(hit[None, :])[0]) <= 1e-9
        assert n_finite > 1000


class TestBoundaryMass:
    def test_unit_edge_local_mass(self):
        assert np.allclose(edge_local_mass(1.0),
                           [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)

    def test_row_sum_is_perimeter(self):
        mesh = build_mesh(rect_spec(), 0.5)
        R = boundary_mass_matrix(mesh)
        assert R.sum() == pytest.approx(4 * 9.0, rel=1e-12)

    def test_disk_polygon_perimeter(self):
        mesh = build_mesh(example1_spec(), 0.1)
        R = boundary_mass_matrix(mesh)
        n_edges = mesh.boundary_edges.shape[0]
        poly_perimeter = 2 * n_edges * 1.2 * np.sin(np.pi / n_edges)
        assert R.sum() == pytest.approx(poly_perimeter, rel=1e-12)
        assert R.sum() == pytest.approx(2 * np.pi * 1.2, rel=2e-3)

    def test_interior_vertices_absent(self):
        mesh = build_mesh(rect_spec(), 1.0)
        verts, R = mesh.boundary_vertices, boundary_mass_matrix(mesh)
        interior = np.setdiff1d(np.arange(mesh.n_vertices), verts)
        dense = R.toarray()
        assert np.all(dense[interior, :] == 0)
        assert np.all(dense[:, interior] == 0)

    def test_outward_normals(self):
        mesh = build_mesh(example1_spec(), 0.2)
        be = mesh.boundary_edges
        mids = 0.5 * (mesh.vertices[be[:, 0]] + mesh.vertices[be[:, 1]])
        # outward normal of the outer circle points away from the origin
        assert np.all(np.sum(mids * mesh.boundary_normals, axis=1) > 0)

    def test_edge_local_mass_broadcasts_over_lengths(self):
        lengths = np.array([0.5, 1.0, 3.0])
        stacked = edge_local_mass(lengths)
        assert stacked.shape == (3, 2, 2)
        for L, loc in zip(lengths, stacked):
            assert np.array_equal(loc, edge_local_mass(L))

    @pytest.mark.parametrize("spec,h", SMALL_MESHES)
    def test_boundary_record_follows_first_seen_edges(self, spec, h):
        for mesh in (build_mesh(spec, h), uniform_refine(build_mesh(spec, h))):
            bdry = [(ab, t) for ab, t, count in first_seen_edges(mesh) if count == 1]
            assert mesh.boundary_edges.tolist() == [list(ab) for ab, _ in bdry]
            assert mesh.boundary_owners.tolist() == [t for _, t in bdry]
            dense = np.zeros((mesh.n_vertices, mesh.n_vertices))
            for (a, b), L in zip(mesh.boundary_edges, mesh.boundary_lengths):
                dense[np.ix_([a, b], [a, b])] += edge_local_mass(L)
            assert np.array_equal(boundary_mass_matrix(mesh).toarray(), dense)

    @pytest.mark.parametrize("spec,h", SMALL_MESHES)
    def test_stored_at_the_boundary_pairs_and_placed_on_the_pattern(self, spec, h):
        mesh = build_mesh(spec, h)
        r = boundary_mass_matrix(mesh)
        assert np.shares_memory(r.indptr, mesh._pattern[0])
        assert np.shares_memory(r.indices, mesh._pattern[1])
        assert np.count_nonzero(r.data) == 2 * len(mesh.boundary_edges) + mesh.boundary_vertices.size
        # the dense sum of the edge locals: two terms at most per entry
        be, dense = mesh.boundary_edges, np.zeros(r.shape)
        np.add.at(dense, (be[:, [0, 0, 1, 1]], be[:, [0, 1, 0, 1]]),
                  edge_local_mass(mesh.boundary_lengths).reshape(-1, 4))
        assert np.array_equal(r.toarray(), dense)

    @pytest.mark.parametrize("spec,h", SMALL_MESHES)
    def test_shared_pattern_cannot_be_compacted_in_place(self, spec, h):
        # R stores zeros at every interior entry of the pattern it shares
        # with every other matrix on the mesh
        mesh = build_mesh(spec, h)
        indptr, indices = (a.copy() for a in mesh._pattern[:2])
        r = boundary_mass_matrix(mesh)
        assert np.count_nonzero(r.data) < r.nnz
        with pytest.raises(ValueError):
            r.eliminate_zeros()
        r.has_sorted_indices = False
        with pytest.raises(ValueError):
            r.sort_indices()
        assert np.array_equal(mesh._pattern[0], indptr)
        assert np.array_equal(mesh._pattern[1], indices)
        assert np.array_equal(boundary_mass_matrix(mesh).indices, indices)

    def test_boundary_owners_hold_their_edges(self):
        mesh = build_mesh(rect_spec(), 1.0)
        owners = mesh.triangles[mesh.boundary_owners]
        for (a, b), tri in zip(mesh.boundary_edges, owners):
            assert a in tri and b in tri
        assert mesh.boundary_owners.shape == mesh.boundary_lengths.shape


class TestNeighbours:
    @pytest.mark.parametrize("spec,h", SMALL_MESHES)
    def test_symmetric_with_boundary_entries(self, spec, h):
        for mesh in (build_mesh(spec, h), uniform_refine(build_mesh(spec, h))):
            nbr, bnd = mesh._neighbours
            tris = mesh.triangles
            assert nbr.shape == bnd.shape == tris.shape
            for t, k in np.ndindex(*tris.shape):
                edge = {tris[t, k], tris[t, (k + 1) % 3]}
                n = nbr[t, k]
                if n >= 0:
                    # the neighbour holds the same edge and sees t across it
                    assert bnd[t, k] == -1
                    back = [j for j in range(3) if nbr[n, j] == t]
                    assert len(back) == 1
                    assert {tris[n, back[0]], tris[n, (back[0] + 1) % 3]} == edge
                else:
                    b = bnd[t, k]
                    assert set(mesh.boundary_edges[b]) == edge
                    assert mesh.boundary_owners[b] == t
            assert np.array_equal(np.sort(bnd[bnd >= 0]), np.arange(mesh.boundary_edges.shape[0]))

    @pytest.mark.parametrize("spec,h", [(example1_spec(), 0.08), (rect_spec(), 1.0)],
                             ids=["disk", "rect"])
    def test_boundary_column_is_the_boundary_record(self, spec, h):
        mesh = build_mesh(spec, h)
        _, bnd = mesh._neighbours
        owners, local = mesh._boundary[3:]
        nb = owners.size
        assert np.array_equal(bnd[owners, local], np.arange(nb))
        others = np.ones(bnd.shape, dtype=bool)
        others[owners, local] = False
        assert np.all(bnd[others] == -1)
        if isinstance(spec.inner, Rect):
            # a triangle at an outer corner owns two boundary edges
            assert np.bincount(owners).max() == 2


class TestAsciiIO:
    def test_roundtrip(self, tmp_path):
        mesh = build_mesh(example1_spec(), 0.2)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path, h=mesh.h)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.tags, mesh.tags)
        assert np.allclose(back.vertices, mesh.vertices, atol=0)

    def test_h_defaults_to_the_median_edge(self, tmp_path):
        mesh = build_mesh(GeometrySpec(inner=Rect(1, 1, 3, 3), outer=Rect(0, 0, 4, 4)), 0.5)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        assert load_mesh(path).h == 0.5

    @pytest.mark.parametrize("h", [0.2, 0.08])
    def test_h_roundtrips_through_the_header(self, tmp_path, h):
        path = tmp_path / "mesh.txt"
        save_mesh(build_mesh(example1_spec(), h), path)
        assert load_mesh(path).h == h
        assert load_mesh(path, h=0.5).h == 0.5

    def test_header_without_h_gives_the_median_edge(self, tmp_path):
        mesh = build_mesh(example1_spec(), 0.2)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        _, body = path.read_text().split("\n", 1)
        path.write_text(f"vertices {mesh.n_vertices} triangles {mesh.n_triangles}\n{body}")
        a, b = mesh.vertices[mesh.triangles[:, 0]], mesh.vertices[mesh.triangles[:, 1]]
        median_edge = float(np.median(np.linalg.norm(b - a, axis=1)))
        assert median_edge != 0.2
        assert load_mesh(path).h == median_edge
        assert load_mesh(path, h=0.2).h == 0.2

    GOOD = "vertices 3 triangles 1\n0 0\n1 0\n0 1\n0 1 2 0\n"

    @pytest.mark.parametrize("h", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_h_override_rejected(self, tmp_path, h):
        path = tmp_path / "mesh.txt"
        for text in (self.GOOD, self.GOOD.replace("triangles 1", "triangles 1 h 0.5")):
            path.write_text(text)
            with pytest.raises(ValueError, match="h must be positive and finite"):
                load_mesh(path, h=h)

    @pytest.mark.parametrize("text", [
        "",
        "vertices 3\n",
        "vertices 0 triangles 0\n",
        GOOD.rsplit("0 1 2 0", 1)[0],
        GOOD.replace("0 1 2 0", "0 1 3 0"),
        GOOD.replace("0 1 2 0", "0 1 -1 0"),
        GOOD.replace("0 1 2 0", "0 1 2 5"),
        GOOD.replace("1 0\n", "1 0 7\n"),
        GOOD.replace("triangles 1", "triangles 1 h"),
        GOOD.replace("triangles 1", "triangles 1 k 0.5"),
        GOOD.replace("triangles 1", "triangles 1 h x"),
        GOOD.replace("triangles 1", "triangles 1 h 0.0"),
        GOOD.replace("triangles 1", "triangles 1 h nan"),
    ], ids=["empty", "short-header", "no-triangles", "truncated", "index-past-end", "negative-index",
            "unknown-tag", "ragged-row", "h-without-value", "unknown-header-key", "h-not-a-number",
            "h-zero", "h-nan"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_mesh(path)
