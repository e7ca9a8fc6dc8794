import numpy as np
import pytest
from scipy.sparse import kron

from pnpml.angular import build_basis, coupling_matrices, quadrature_for_order
from pnpml.assembly import (
    Field,
    assemble_even_mass,
    assemble_odd_diag,
    build_operator,
    even_l2_norm2,
    explicit_matrices,
    gradient_matrices,
    odd_l2_norm2,
    p1_mass,
    project_source,
    transport_seminorm2,
)
from pnpml.mesh import (
    INTERIOR,
    LAYER,
    Disk,
    GeometrySpec,
    Mesh2D,
    Rect,
    boundary_mass_matrix,
    build_mesh,
)
from pnpml.pml import extend_coefficients

RNG = np.random.default_rng(2024)


def unit_right_triangle():
    return Mesh2D(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  triangles=np.array([[0, 1, 2]]),
                  tags=np.array([INTERIOR], dtype=np.uint8), h=1.0)


def rect_setup(h=1.0, N=3, mu=10.1, sig=10.0, exp_al=0.5):
    spec = GeometrySpec(inner=Rect(0, 0, 7, 7), outer=Rect(-1, -1, 8, 8))
    mesh = build_mesh(spec, h)
    a = -np.log(exp_al) / spec.layer_depth
    coeffs = extend_coefficients(mesh, mu, sig, 1.0, a=a)
    basis = build_basis(N)
    coup = coupling_matrices(basis, quadrature_for_order(N))
    return spec, mesh, coeffs, basis, coup


def disk_setup(h=0.1, N=3):
    spec = GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))
    mesh = build_mesh(spec, h)
    a = -np.log(0.25) / spec.layer_depth
    coeffs = extend_coefficients(
        mesh, 10.1, 10.0,
        lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1)), a=a)
    basis = build_basis(N)
    coup = coupling_matrices(basis, quadrature_for_order(N))
    return spec, mesh, coeffs, basis, coup


class TestEvenMass:
    def test_unit_right_triangle_local_mass(self):
        mesh = unit_right_triangle()
        m = p1_mass(mesh).toarray()
        assert np.allclose(m, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0, atol=1e-15)

    def test_constant_field_quadratic_form(self):
        _, mesh, coeffs, basis, _ = rect_setup()
        blocks = assemble_even_mass(mesh, coeffs, basis)
        ones = np.ones(mesh.n_vertices)
        for l, block in blocks.items():
            weight = coeffs.mu - coeffs.sigma_for_degree(l)
            assert ones @ (block @ ones) == pytest.approx(np.sum(weight * mesh.areas), rel=1e-12)

    def test_example1_weights(self):
        _, mesh, coeffs, basis, _ = rect_setup(mu=10.1, sig=10.0)
        interior = mesh.tags == INTERIOR
        w0 = coeffs.mu - coeffs.sigma_for_degree(0)
        w2 = coeffs.mu - coeffs.sigma_for_degree(2)
        assert np.allclose(w0[interior], 0.1)
        assert np.allclose(w2[interior], 10.1)

    def test_gamma_zero_warns(self):
        spec = GeometrySpec(inner=Rect(0, 0, 7, 7), outer=Rect(-1, -1, 8, 8))
        mesh = build_mesh(spec, 1.0)
        coeffs = extend_coefficients(mesh, 1.0, 1.0, 1.0, a=1.0)  # mu == sigma_0
        with pytest.warns(UserWarning):
            assemble_even_mass(mesh, coeffs, build_basis(1))

    def test_symmetry_and_positivity(self):
        _, mesh, coeffs, basis, _ = rect_setup()
        blocks = assemble_even_mass(mesh, coeffs, basis)
        for block in blocks.values():
            assert (block - block.T).nnz == 0
        for _ in range(100):
            x = RNG.normal(size=mesh.n_vertices)
            assert all(x @ (block @ x) > 0 for block in blocks.values())


class TestBoundary:
    def test_constant_field_gives_perimeter(self):
        _, mesh, _, _, _ = rect_setup()
        R = boundary_mass_matrix(mesh)
        ones = np.ones(mesh.n_vertices)
        assert ones @ (R @ ones) == pytest.approx(36.0, rel=1e-12)

    def test_interior_supported_field_vanishes(self):
        _, mesh, _, _, _ = rect_setup()
        R = boundary_mass_matrix(mesh)
        x = RNG.normal(size=mesh.n_vertices)
        x[mesh.boundary_vertices] = 0.0
        assert abs(x @ (R @ x)) == 0.0

    def test_single_block_shared_across_modes(self):
        # the same spatial block serves every even mode by construction
        _, mesh, coeffs, basis, coup = rect_setup()
        op = build_operator(mesh, basis, coup, coeffs)
        U = np.zeros((mesh.n_vertices, basis.n_plus))
        U[:, 0] = RNG.normal(size=mesh.n_vertices)
        U[:, 1] = U[:, 0]
        out = op.apply_boundary(U)
        assert np.array_equal(out[:, 0], out[:, 1])


class TestTransport:
    def test_constant_field_in_kernel(self):
        _, mesh, coeffs, basis, coup = rect_setup()
        op = build_operator(mesh, basis, coup, coeffs)
        U = np.ones((mesh.n_vertices, basis.n_plus))
        assert np.max(np.abs(op.apply_transport(U))) <= 1e-13

    def test_linear_field_single_triangle(self):
        mesh = unit_right_triangle()
        basis = build_basis(3)
        coup = coupling_matrices(basis, quadrature_for_order(3))
        g_x, g_y = gradient_matrices(mesh)
        e00 = basis.even_indices.index((0, 0))
        U = np.zeros((3, basis.n_plus))
        U[:, e00] = mesh.vertices[:, 0]  # the function x
        bu = ((coup.t_x @ (g_x @ U).T).T + (coup.t_y @ (g_y @ U).T).T)
        # gradient of x is (1, 0): output is |T| * T_x column of Y_0^0
        expect = mesh.areas[0] * coup.t_x[:, e00].toarray().ravel()
        assert np.allclose(bu[0], expect, atol=1e-14)
        degrees = basis.odd_degrees()
        assert np.all(bu[0][degrees != 1] == pytest.approx(0.0, abs=1e-14))

    def test_adjointness(self):
        _, mesh, coeffs, basis, coup = rect_setup()
        op = build_operator(mesh, basis, coup, coeffs)
        for _ in range(10):
            x = RNG.normal(size=(mesh.n_vertices, basis.n_plus))
            y = RNG.normal(size=(mesh.n_triangles, basis.n_minus))
            lhs = np.sum(op.apply_transport(x) * y)
            rhs = np.sum(x * op.apply_transport_t(y))
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestOddDiag:
    def test_example1_entries(self):
        # rect cells of h=1 split into triangles of area 1/2; the layer depth
        # is 1, so exp(-a*l) = 1/32 gives a = ln 32 = 5 ln 2 = 3.4657
        _, mesh, coeffs, basis, _ = rect_setup(mu=10.1, sig=10.0, exp_al=1 / 32)
        c = assemble_odd_diag(mesh, coeffs, basis)
        interior = mesh.tags == INTERIOR
        l1 = [k for k, (l, _) in enumerate(basis.odd_indices) if l == 1]
        assert np.allclose(c[interior][:, l1], 0.5 * 10.1)
        layer = mesh.tags == LAYER
        assert np.allclose(c[layer][:, l1], 0.5 * coeffs.a)
        assert c[layer][0, l1[0]] == pytest.approx(1.7329, abs=2e-4)

    def test_strictly_positive_when_coercive(self):
        _, mesh, coeffs, basis, _ = rect_setup()
        assert coeffs.gamma > 0
        c = assemble_odd_diag(mesh, coeffs, basis)
        assert np.all(c > 0)
        assert np.count_nonzero(c) == mesh.n_triangles * basis.n_minus


class TestProjectSource:
    def test_isotropic_total_load(self):
        spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
        mesh = build_mesh(spec, 0.5)
        basis = build_basis(3)
        qp, qm = project_source(mesh, basis, 1.0, isotropic=True)
        mode0 = basis.even_indices.index((0, 0))
        assert qp[:, mode0].sum() == pytest.approx(np.sqrt(4 * np.pi), rel=1e-12)
        other = np.delete(np.arange(basis.n_plus), mode0)
        assert np.all(qp[:, other] == 0.0)
        assert np.all(qm == 0.0)

    def test_gaussian_isotropic_has_zero_odd_load(self):
        _, mesh, _, basis, _ = disk_setup()
        q = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
        qp, qm = project_source(mesh, basis, q, isotropic=True)
        assert np.all(qm == 0.0)
        assert qp[:, basis.even_indices.index((0, 0))].max() > 0

    def test_zero_source(self):
        _, mesh, _, basis, _ = rect_setup()
        qp, qm = project_source(mesh, basis, 0.0, isotropic=True)
        assert np.all(qp == 0.0) and np.all(qm == 0.0)

    def test_anisotropic_path_matches_isotropic(self):
        spec = GeometrySpec(inner=Rect(0, 0, 2, 2), outer=Rect(-1, -1, 3, 3))
        mesh = build_mesh(spec, 1.0)
        basis = build_basis(3)
        qp_iso, qm_iso = project_source(mesh, basis, 2.0, isotropic=True)
        qp_gen, qm_gen = project_source(mesh, basis, lambda r, s: 2.0, isotropic=False)
        assert np.allclose(qp_gen, qp_iso, atol=1e-12)
        assert np.allclose(qm_gen, qm_iso, atol=1e-12)


class TestKroneckerConsistency:
    def test_matrix_free_matches_explicit(self):
        spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
        mesh = build_mesh(spec, 1.0)  # 18 triangles
        assert mesh.n_triangles <= 50
        basis = build_basis(3)
        coup = coupling_matrices(basis, quadrature_for_order(3))
        coeffs = extend_coefficients(mesh, 2.0, 1.0, 1.0, a=1.5)
        op = build_operator(mesh, basis, coup, coeffs)
        m_e, r_e, b_e, c_e = explicit_matrices(op)

        for _ in range(10):
            U = RNG.normal(size=(mesh.n_vertices, basis.n_plus))
            V = RNG.normal(size=(mesh.n_triangles, basis.n_minus))
            u, v = U.ravel(), V.ravel()
            assert np.allclose(op.apply_mass(U).ravel(), m_e @ u, atol=1e-12)
            assert np.allclose(op.apply_boundary(U).ravel(), r_e @ u, atol=1e-12)
            assert np.allclose(op.apply_transport(U).ravel(), b_e @ u, atol=1e-12)
            assert np.allclose(op.apply_transport_t(V).ravel(), b_e.T @ v, atol=1e-12)
            assert np.allclose((op.c_diag * V).ravel(), c_e @ v, atol=1e-12)

    def test_sparsity_counts(self):
        _, mesh, coeffs, basis, coup = rect_setup(h=0.5)
        op = build_operator(mesh, basis, coup, coeffs)
        counts = op.nnz_counts()
        assert counts["odd"] == mesh.n_triangles * basis.n_minus
        assert counts["mass"] / (mesh.n_vertices * basis.n_plus) <= 12
        # boundary block touches only boundary vertices
        nb = mesh.boundary_vertices.size
        assert counts["boundary"] <= 3 * nb * basis.n_plus

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_transport_count_matches_kronecker_product(self, N):
        _, mesh, coeffs, basis, coup = rect_setup(h=0.5, N=N)
        op = build_operator(mesh, basis, coup, coeffs)
        expect = kron(op.g_x, op.t_x).nnz + kron(op.g_y, op.t_y).nnz
        assert op.nnz_counts()["transport"] == expect


class TestRestrict:
    def test_shares_spatial_factors(self):
        _, mesh, coeffs, basis, coup = rect_setup(h=1.0, N=5)
        op = build_operator(mesh, basis, coup, coeffs)
        sub = op.restrict(basis.z_even())
        assert sub.mesh is op.mesh and sub.mass_blocks is op.mass_blocks
        assert sub.boundary is op.boundary
        assert sub.g_x is op.g_x and sub.g_y is op.g_y
        assert sub.t_x.shape == (sub.basis.n_minus, sub.basis.n_plus)
        assert sub.c_diag.shape == (mesh.n_triangles, sub.basis.n_minus)

    @pytest.mark.parametrize("N", [3, 5])
    def test_blocks_are_the_class_submatrices(self, N):
        spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
        mesh = build_mesh(spec, 1.0)
        basis = build_basis(N)
        coup = coupling_matrices(basis, quadrature_for_order(N))
        coeffs = extend_coefficients(mesh, 2.0, [1.0, 0.5, 0.2], 1.0, a=1.5)
        op = build_operator(mesh, basis, coup, coeffs)
        full = [m.toarray() for m in explicit_matrices(op)]
        for sub_basis in (basis.z_even(), basis.z_odd()):
            sub = op.restrict(sub_basis)
            even, odd = basis.positions(sub_basis)
            # flattened dofs are row-major over (spatial, angular)
            e_dofs = (np.arange(mesh.n_vertices)[:, None] * basis.n_plus + even).ravel()
            o_dofs = (np.arange(mesh.n_triangles)[:, None] * basis.n_minus + odd).ravel()
            rows = (e_dofs, e_dofs, o_dofs, o_dofs)
            cols = (e_dofs, e_dofs, e_dofs, o_dofs)
            for mat, big, r, c in zip(explicit_matrices(sub), full, rows, cols):
                assert np.array_equal(mat.toarray(), big[np.ix_(r, c)])
            counts = sub.nnz_counts()
            assert counts["mass"] == explicit_matrices(sub)[0].nnz
            assert counts["odd"] == mesh.n_triangles * sub_basis.n_minus


class TestNorms:
    def test_even_norm_constant(self):
        _, mesh, _, basis, coup = rect_setup()
        U = np.zeros((mesh.n_vertices, basis.n_plus))
        U[:, 0] = 1.0
        assert even_l2_norm2(mesh, U) == pytest.approx(81.0, rel=1e-12)
        assert even_l2_norm2(mesh, U, interior_only=True) == pytest.approx(49.0, rel=1e-12)

    def test_odd_norm(self):
        _, mesh, _, basis, _ = rect_setup()
        V = np.ones((mesh.n_triangles, basis.n_minus))
        expect = mesh.areas.sum() * basis.n_minus
        assert odd_l2_norm2(mesh, V) == pytest.approx(expect, rel=1e-12)

    def test_transport_seminorm_of_linear_field(self):
        # u(r, s) = x * Y00(s): |s.grad u|^2 = s_x^2 Y00^2 integrates over the
        # sphere to 1/3, so the squared seminorm is area/3
        _, mesh, coeffs, basis, coup = rect_setup()
        op = build_operator(mesh, basis, coup, coeffs)
        U = np.zeros((mesh.n_vertices, basis.n_plus))
        e00 = basis.even_indices.index((0, 0))
        U[:, e00] = mesh.vertices[:, 0]
        expect = mesh.areas.sum() / 3.0
        assert transport_seminorm2(op, U) == pytest.approx(expect, rel=1e-12)


class TestField:
    def test_zeros_shapes(self):
        _, mesh, _, basis, _ = rect_setup()
        f = Field.zeros(mesh, basis)
        assert f.even.shape == (mesh.n_vertices, basis.n_plus)
        assert f.odd.shape == (mesh.n_triangles, basis.n_minus)
