import numpy as np
import pytest

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


SMALL_MESHES = [(example1_spec(), 0.25), (rect_spec(), 1.0)]


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

    def test_quasi_uniform(self):
        mesh = build_mesh(example1_spec(), 0.1)
        a, b, c = mesh.corner_coords()
        edges = np.concatenate([np.linalg.norm(b - a, axis=1),
                                np.linalg.norm(c - b, axis=1),
                                np.linalg.norm(a - c, axis=1)])
        assert edges.max() / edges.min() < 8.0


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
        a, b, c = mesh.corner_coords()
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

    def test_boundary_owners_hold_their_edges(self):
        mesh = build_mesh(rect_spec(), 1.0)
        owners = mesh.triangles[mesh.boundary_owners]
        for (a, b), tri in zip(mesh.boundary_edges, owners):
            assert a in tri and b in tri
        assert mesh.boundary_owners.shape == mesh.boundary_lengths.shape


class TestAsciiIO:
    def test_roundtrip(self, tmp_path):
        mesh = build_mesh(example1_spec(), 0.2)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path, h=mesh.h)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.tags, mesh.tags)
        assert np.allclose(back.vertices, mesh.vertices, atol=0)
