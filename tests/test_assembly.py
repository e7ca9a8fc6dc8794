import dataclasses

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags, kron, vstack

from pnpml.angular import (
    AngularCouplings,
    build_basis,
    coupling_matrices,
    degree_groups,
    quadrature_for_order,
)
import pnpml.assembly
from pnpml.assembly import (
    BlockOperator,
    Field,
    build_operator,
    even_l2_norm2,
    explicit_matrices,
    odd_l2_norm2,
    p1_mass,
    p1_stiffness_terms,
    project_source,
    transport_seminorm2,
)
from pnpml.cli import _lattice_physics
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


def weight(coeffs, l):
    """mu - sigma_l, with sigma_l = 0 beyond the kernel list."""
    return coeffs.mu - (coeffs.sigma[:, l] if l < coeffs.sigma.shape[1] else 0.0)


class TestEvenMass:
    def test_unit_right_triangle_local_mass(self):
        mesh = unit_right_triangle()
        m = p1_mass(mesh).toarray()
        assert np.allclose(m, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0, atol=1e-15)

    def test_constant_field_quadratic_form(self):
        _, mesh, coeffs, basis, coup = rect_setup()
        blocks = build_operator(mesh, basis, coup, coeffs).mass_blocks
        ones = np.ones(mesh.n_vertices)
        assert sorted(blocks) == sorted(set(basis.even_degrees().tolist()))
        for l, block in blocks.items():
            want = np.sum(weight(coeffs, l) * mesh.areas)
            assert ones @ (block @ ones) == pytest.approx(want, rel=1e-12)

    def test_example1_weights(self):
        _, mesh, coeffs, basis, coup = rect_setup(mu=10.1, sig=10.0)
        interior = mesh.tags == INTERIOR
        w = build_operator(mesh, basis, coup, coeffs).collision
        assert w.shape == (mesh.n_triangles, basis.order + 1)
        assert np.allclose(w[interior, 0], 0.1)
        assert np.allclose(w[interior, 1:], 10.1)
        for l in range(basis.order + 1):
            assert np.array_equal(w[:, l], weight(coeffs, l))

    @pytest.mark.parametrize("kernel", [10.0, [1.0, 0.3, 0.1]], ids=["isotropic", "anisotropic"])
    def test_blocks_are_the_per_degree_masses(self, kernel):
        _, mesh, coeffs, basis, coup = rect_setup(N=7, sig=kernel)
        blocks = build_operator(mesh, basis, coup, coeffs).mass_blocks
        for l, block in blocks.items():
            want = p1_mass(mesh, weight=weight(coeffs, l))
            assert (block.data.tobytes(), block.indices.tobytes()) == (
                want.data.tobytes(), want.indices.tobytes())

    def test_gamma_zero_warns(self):
        spec = GeometrySpec(inner=Rect(0, 0, 7, 7), outer=Rect(-1, -1, 8, 8))
        mesh = build_mesh(spec, 1.0)
        coeffs = extend_coefficients(mesh, 1.0, 1.0, 1.0, a=1.0)  # mu == sigma_0
        basis = build_basis(1)
        coup = coupling_matrices(basis, quadrature_for_order(1))
        with pytest.warns(UserWarning, match="collision coercivity gamma <= 0"):
            build_operator(mesh, basis, coup, coeffs)

    def test_symmetry_and_positivity(self):
        _, mesh, coeffs, basis, coup = rect_setup()
        blocks = build_operator(mesh, basis, coup, coeffs).mass_blocks
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
        out = op.boundary @ U
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
        g_x, g_y = mesh.gradient_matrices
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
        _, mesh, coeffs, basis, coup = rect_setup(mu=10.1, sig=10.0, exp_al=1 / 32)
        c = build_operator(mesh, basis, coup, coeffs).c_diag
        interior = mesh.tags == INTERIOR
        l1 = [k for k, (l, _) in enumerate(basis.odd_indices) if l == 1]
        assert np.allclose(c[interior][:, l1], 0.5 * 10.1)
        layer = mesh.tags == LAYER
        assert np.allclose(c[layer][:, l1], 0.5 * coeffs.a)
        assert c[layer][0, l1[0]] == pytest.approx(1.7329, abs=2e-4)

    def test_strictly_positive_when_coercive(self):
        _, mesh, coeffs, basis, coup = rect_setup()
        assert coeffs.gamma > 0
        c = build_operator(mesh, basis, coup, coeffs).c_diag
        assert np.all(c > 0)
        assert np.count_nonzero(c) == mesh.n_triangles * basis.n_minus

    @pytest.mark.parametrize("case", ["disk", "lattice", "10-3-1"])
    def test_odd_weights_are_at_least_gamma(self, case):
        # gamma is the minimum of collision(K), K the kernel length, whose
        # columns are every mu - sigma_l with l < K and mu itself, so no
        # column of collision(N) falls below it at any N; the odd columns
        # are positive, so the odd block is nonsingular
        if case == "disk":
            _, _, coeffs, _, _ = disk_setup(h=0.2, N=3)
        elif case == "lattice":
            mu, kernel, _ = _lattice_physics()
            _, _, coeffs, _, _ = rect_setup(mu=mu, sig=kernel)
        else:
            _, _, coeffs, _, _ = rect_setup(sig=[10.0, 3.0, 1.0])
        for order in (1, 2, 3, 9):
            w = coeffs.collision(order)
            assert w.min() >= coeffs.gamma
            assert w[:, 1::2].min() > 0

    @pytest.mark.parametrize("modes", ["full", "z_even", "z_odd"])
    def test_entries_are_area_times_weight(self, modes):
        _, mesh, coeffs, basis, coup = rect_setup(N=5, sig=[1.0, 0.3, 0.1])
        op = build_operator(mesh, basis, coup, coeffs)
        if modes != "full":
            op = op.restrict(getattr(basis, modes)())
        for k, l in enumerate(op.basis.odd_degrees()):
            assert np.array_equal(op.c_diag[:, k], mesh.areas * weight(coeffs, l))


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
    @pytest.mark.parametrize("N", [3, 5])
    @pytest.mark.parametrize("modes", ["full", "z_even", "z_odd"])
    def test_matrix_free_matches_explicit(self, modes, N):
        spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
        mesh = build_mesh(spec, 1.0)  # 18 triangles
        assert mesh.n_triangles <= 50
        basis = build_basis(N)
        coup = coupling_matrices(basis, quadrature_for_order(N))
        coeffs = extend_coefficients(mesh, 2.0, [1.0, 0.5, 0.2], 1.0, a=1.5)
        op = build_operator(mesh, basis, coup, coeffs)
        if modes != "full":
            op = op.restrict(getattr(basis, modes)())
        m_e, r_e, b_e, c_e = explicit_matrices(op)

        for _ in range(10):
            U = RNG.normal(size=(mesh.n_vertices, op.basis.n_plus))
            V = RNG.normal(size=(mesh.n_triangles, op.basis.n_minus))
            u, v = U.ravel(), V.ravel()
            bu, btv = op.apply_transport(U), op.apply_transport_t(V)
            assert bu.flags.c_contiguous and btv.flags.c_contiguous
            assert np.allclose(op.apply_mass(U).ravel(), m_e @ u, atol=1e-12)
            assert np.allclose((op.boundary @ U).ravel(), r_e @ u, atol=1e-12)
            assert np.allclose(bu.ravel(), b_e @ u, atol=1e-12)
            assert np.allclose(btv.ravel(), b_e.T @ v, atol=1e-12)
            assert np.allclose((op.c_diag * V).ravel(), c_e @ v, atol=1e-12)

    def test_sparsity_counts(self):
        _, mesh, coeffs, basis, coup = rect_setup(h=0.5)
        op = build_operator(mesh, basis, coup, coeffs)
        counts = op.nnz_counts()
        assert counts["odd"] == mesh.n_triangles * basis.n_minus
        assert counts["mass"] / (mesh.n_vertices * basis.n_plus) <= 12
        # boundary block: nonzero at the boundary pairs only
        nb = mesh.boundary_vertices.size
        assert counts["boundary"] == (2 * len(mesh.boundary_edges) + nb) * basis.n_plus

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
        assert sub.mesh is op.mesh and sub.collision is op.collision
        assert sub.g_x is op.g_x and sub.g_y is op.g_y
        # the constructor assembles its own masses and R, bitwise the parent's
        for m, want in [(sub.boundary, op.boundary),
                        *((sub.mass_blocks[d], op.mass_blocks[d]) for d in sub.mass_blocks)]:
            assert m.data.tobytes() == want.data.tobytes()
            assert np.array_equal(m.indices, want.indices)
            assert np.array_equal(m.indptr, want.indptr)
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

    @pytest.mark.parametrize("kernel", [10.0, [10.0, 3.0, 1.0]], ids=["isotropic", "10-3-1"])
    @pytest.mark.parametrize("modes", ["z_even", "z_odd"])
    def test_equals_a_direct_build_on_the_sub_basis(self, kernel, modes):
        _, mesh, coeffs, basis, coup = rect_setup(N=5, sig=kernel)
        op = build_operator(mesh, basis, coup, coeffs)
        sub_basis = getattr(basis, modes)()
        even, odd = basis.positions(sub_basis)
        sliced = AngularCouplings(*(t[odd][:, even] for t in (coup.t_x, coup.t_y, coup.t_z)))
        sub, direct = op.restrict(sub_basis), build_operator(mesh, sub_basis, sliced, coeffs)
        pairs = [(sub.c_diag, direct.c_diag), (sub.diffusion, direct.diffusion),
                 *zip(sub._t_dense, direct._t_dense),
                 *((a.data, b.data) for (_, a), (_, b) in zip(sub.class_blocks(),
                                                              direct.class_blocks()))]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for got, want in [(sub.classes, direct.classes), (sub.odd_classes, direct.odd_classes)]:
            assert [l for l, _ in got] == [l for l, _ in want]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
        for got, want in [(sub.t_x, direct.t_x), (sub.t_y, direct.t_y)]:
            assert (got != want).nnz == 0

    def test_fields_are_the_inputs(self):
        names = [f.name for f in dataclasses.fields(BlockOperator)]
        assert names == ["mesh", "basis", "t_x", "t_y", "collision"]

    def test_replaced_collision_reforms_the_masses(self):
        # doubling w_2 of an isotropic kernel splits the class {2, 4} in two
        _, mesh, coeffs, basis, coup = rect_setup(h=1.0, N=5)
        op = build_operator(mesh, basis, coup, coeffs)
        w = op.collision.copy()
        w[:, 2] *= 2.0
        new = dataclasses.replace(op, collision=w)
        assert class_degrees(op) == [(0, [0]), (2, [2, 4])]
        assert class_degrees(new) == [(0, [0]), (2, [2]), (4, [4])]
        for d in range(0, 5, 2):
            want = p1_mass(mesh, weight=w[:, d])
            assert new.mass_blocks[d].data.tobytes() == want.data.tobytes()


def coo_mass(mesh, weight=None, triangles=None):
    """The P1 mass matrix summed from COO triplets, the reference form."""
    tri = np.arange(mesh.n_triangles) if triangles is None else triangles
    w = mesh.areas[tri] * (1.0 if weight is None else weight[tri])
    t = mesh.triangles[tri]
    vals = np.outer(w, np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]).ravel() / 12.0)
    return csr_matrix((vals.ravel(), (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())),
                      shape=(mesh.n_vertices,) * 2)


class TestPattern:
    @pytest.mark.parametrize("setup", [rect_setup, disk_setup], ids=["rect", "disk"])
    def test_scatter_names_each_local_pair(self, setup):
        mesh = setup()[1]
        indptr, indices, scatter = mesh._pattern
        rows = np.repeat(np.arange(mesh.n_vertices), np.diff(indptr))
        t = mesh.triangles
        assert np.array_equal(rows[scatter], np.repeat(t, 3, axis=1))
        assert np.array_equal(indices[scatter], np.tile(t, (1, 3)))
        # canonical CSR, and every entry is the pair of some triangle
        assert np.all(np.diff(rows * mesh.n_vertices + indices) > 0)
        assert np.array_equal(np.unique(scatter), np.arange(indices.size))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("subset", [False, True])
    def test_mass_matches_the_coo_form(self, weighted, subset):
        _, mesh, _, _, _ = disk_setup()
        weight = RNG.uniform(0.5, 2.0, mesh.n_triangles) if weighted else None
        tri = np.flatnonzero(mesh.tags == INTERIOR) if subset else None
        got = p1_mass(mesh, weight=weight, triangles=tri).toarray()
        want = coo_mass(mesh, weight, tri).toarray()
        # positive terms summed in another order: within 4 ulp per entry
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("pairs", [((0, 0), (1, 1)), ((0, 1),), ((1, 0),)])
    def test_stiffness_is_bitwise_the_sparse_products(self, pairs):
        _, mesh, _, _, _ = disk_setup()
        weight = RNG.uniform(0.5, 2.0, mesh.n_triangles)
        g = mesh.gradient_matrices
        # one product sums all pairs of a triangle entry, pair by pair
        left = vstack([g[i] for i, _ in pairs], format="csr")
        right = vstack([g[j] for _, j in pairs], format="csr")
        want = left.T @ diags(np.tile(weight, len(pairs))) @ right
        got = mesh.pattern_matrix(p1_stiffness_terms(mesh, [(weight, pairs)])[0])
        assert got.toarray().tobytes() == want.toarray().tobytes()

    @pytest.mark.parametrize("modes", ["full", "z_even", "lattice_z_even", "disk_z_even"])
    def test_class_blocks_are_bitwise_the_sparse_products(self, modes):
        if modes == "lattice_z_even":
            # the scattering cells have w_0 = 0, so class {0} sums to zero at
            # pattern entries the sparse sum drops and the block stores
            mu, kernel, _ = _lattice_physics()
            _, mesh, coeffs, basis, coup = rect_setup(N=5, mu=mu, sig=kernel)
            with pytest.warns(UserWarning, match="gamma <= 0"):
                op = build_operator(mesh, basis, coup, coeffs)
        else:
            # the disk's entries round, so their summation order shows
            _, mesh, coeffs, basis, coup = (disk_setup(h=0.2, N=5) if modes == "disk_z_even"
                                            else rect_setup(N=5, sig=[1.0, 0.3, 0.1]))
            op = build_operator(mesh, basis, coup, coeffs)
        if modes != "full":
            op = op.restrict(basis.z_even())
        g = vstack([op.g_x, op.g_y], format="csr")
        stored_zeros = 0
        for (l, cols), (cols_b, block) in zip(op.classes, op.class_blocks()):
            k = diags(np.tile(op.diffusion[:, l] / mesh.areas, 2))
            want = op.mass_blocks[l] + op.boundary + g.T @ k @ g
            assert np.array_equal(cols, cols_b)
            assert block.toarray().tobytes() == want.toarray().tobytes()
            assert np.shares_memory(block.indptr, mesh._pattern[0])
            assert np.shares_memory(block.indices, mesh._pattern[1])
            stored_zeros += block.nnz - np.count_nonzero(block.data)
        assert (stored_zeros > 0) == (modes == "lattice_z_even")


# degrees 5, 6 and 7 repeat the weights of degrees 1, 2 and 3
SPLIT_KERNEL = [1.0, 0.02, 0.01, 0.01, 0.005, 0.02, 0.01, 0.01]


def class_degrees(op):
    """The even degrees of each coefficient class, led by the class's l."""
    degrees = op.basis.even_degrees()
    return [(l, sorted(set(degrees[cols].tolist()))) for l, cols in op.classes]


class TestClasses:
    @staticmethod
    def operator(N, kernel):
        _, mesh, coeffs, basis, coup = rect_setup(N=N, sig=kernel)
        return build_operator(mesh, basis, coup, coeffs)

    @pytest.mark.parametrize("N", [3, 7, 9])
    def test_isotropic_kernel_gives_two_z_even_classes(self, N):
        op = self.operator(N, 10.0).restrict(build_basis(N).z_even())
        assert class_degrees(op) == [(0, [0]), (2, list(range(2, N, 2)))]

    def test_anisotropic_kernel_splits_the_low_degrees(self):
        op = self.operator(7, [1.0, 0.3, 0.1])
        assert class_degrees(op) == [(0, [0]), (2, [2]), (4, [4, 6])]

    def test_unequal_odd_neighbours_keep_a_degree_apart(self):
        # degree 6 has the mass weight of degree 2 and its odd neighbours
        # (c_5, c_7) = (c_1, c_3), but c_1 != c_3: their diffusion weights
        # differ, and neither degree may share a class
        op = self.operator(7, [1.0, 0.02, 0.01, 0.01, 0.005, 0.02, 0.01, 0.01])
        assert class_degrees(op) == [(0, [0]), (2, [2]), (4, [4]), (6, [6])]

    def test_pure_absorber_gives_one_z_even_class(self):
        # every even degree has w_l = mu and k_l = 1/(3 mu): degree 0 joins the rest
        op = self.operator(7, 0.0).restrict(build_basis(7).z_even())
        assert class_degrees(op) == [(0, [0, 2, 4, 6])]

    def test_diffusion_is_the_p_n_weight(self):
        op = self.operator(7, [1.0, 0.3, 0.1])
        w = op.collision
        for l in range(0, 7, 2):
            want = ((l + 1) / w[:, l + 1] + (l / w[:, l - 1] if l else 0.0)) / (3 * (2 * l + 1))
            assert np.all(np.abs(op.diffusion[:, l] - want) <= 1e-15 * want)
            if l == 0 or np.array_equal(w[:, l - 1], w[:, l + 1]):  # l = 0 and l = 4
                assert op.diffusion[:, l].tobytes() == (1.0 / w[:, l + 1] / 3.0).tobytes()
        assert not op.diffusion[:, 1::2].any()

    def test_classes_formed_once_per_operator(self, monkeypatch):
        _, mesh, coeffs, basis, coup = rect_setup(N=7, sig=[1.0, 0.3, 0.1])
        classes, calls = pnpml.assembly._coefficient_classes, []

        def counted(*args):
            calls.append(args)
            return classes(*args)

        monkeypatch.setattr(pnpml.assembly, "_coefficient_classes", counted)
        op = build_operator(mesh, basis, coup, coeffs)
        # one grouping of the even degrees and one of the odd ones
        for sub_basis in (basis, basis.z_even(), basis.z_odd()):
            if sub_basis is not basis:
                op.restrict(sub_basis)
            even, odd = (args[2] for args in calls[-2:])
            assert np.array_equal(even, sub_basis.even_degrees())
            assert np.array_equal(odd, sub_basis.odd_degrees())
        assert len(calls) == 6

    @pytest.mark.parametrize("kernel", [10.0, [1.0, 0.3, 0.1]], ids=["isotropic", "anisotropic"])
    @pytest.mark.parametrize("modes", ["full", "z_even", "z_odd"])
    def test_classes_partition_the_even_columns(self, kernel, modes):
        op = self.operator(7, kernel)
        if modes != "full":
            op = op.restrict(getattr(op.basis, modes)())
        cols = np.concatenate([c for _, c in op.classes])
        assert np.array_equal(np.sort(cols), np.arange(op.basis.n_plus))
        degrees = op.basis.even_degrees()
        for l, c in op.classes:
            assert l == degrees[c].min()

    @pytest.mark.parametrize("kernel", [10.0, [1.0, 0.3, 0.1]], ids=["isotropic", "anisotropic"])
    def test_mass_products_and_counts_match_the_per_degree_loop(self, kernel):
        _, mesh, coeffs, basis, coup = rect_setup(N=7, sig=kernel)
        op = build_operator(mesh, basis, coup, coeffs)
        u = RNG.normal(size=(op.mesh.n_vertices, op.basis.n_plus))
        want = np.empty_like(u)
        groups = degree_groups(op.basis.even_degrees())
        masses = {l: p1_mass(mesh, weight=weight(coeffs, l)) for l, _ in groups}
        for l, cols in groups:
            want[:, cols] = masses[l] @ u[:, cols]
        assert op.apply_mass(u).tobytes() == want.tobytes()
        assert op.nnz_counts()["mass"] == sum(masses[l].nnz * cols.size for l, cols in groups)

    @pytest.mark.parametrize("kernel, n_classes", [(10.0, 2), ([1.0, 0.3, 0.1], 3),
                                                   (SPLIT_KERNEL, 4)],
                             ids=["isotropic", "anisotropic", "split"])
    def test_one_mass_per_class_per_construction(self, kernel, n_classes, monkeypatch):
        _, mesh, coeffs, basis, coup = rect_setup(N=7, sig=kernel)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("weight"))
            return p1_mass(*args, **kwargs)

        monkeypatch.setattr(pnpml.assembly, "p1_mass", counted)
        op = build_operator(mesh, basis, coup, coeffs)
        assert len(op.classes) == n_classes
        for sub_basis in (basis, basis.z_even(), basis.z_odd()):
            # each construction assembles one mass per class, restrict included
            sub = op if sub_basis is basis else op.restrict(sub_basis)
            weights = calls.copy()
            calls.clear()
            assert len(weights) == len(sub.classes)
            degrees = sub.basis.even_degrees()
            assert sorted(sub.mass_blocks) == np.unique(degrees).tolist()
            for (l, cols), w in zip(sub.classes, weights):
                assert w.tobytes() == sub.collision[:, l].tobytes()
                for degree in degrees[cols]:
                    assert sub.mass_blocks[degree] is sub.mass_blocks[l]


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
