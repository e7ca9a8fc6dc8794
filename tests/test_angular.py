import numpy as np
import pytest

from pnpml.angular import (
    MAX_ORDER,
    build_basis,
    coupling_matrices,
    degree_groups,
    kernel_function,
    quadrature_for_order,
    real_sph_harm,
    scattering_eigenvalues,
    sphere_quadrature,
)

RNG = np.random.default_rng(20240817)


def random_directions(n):
    v = RNG.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestRealSphHarm:
    def test_constant_mode(self):
        s = random_directions(5)
        assert real_sph_harm(0, 0, s) == pytest.approx(0.2820947918, abs=1e-10)

    def test_axis_value(self):
        assert real_sph_harm(1, 0, (0.0, 0.0, 1.0)) == pytest.approx(0.4886025119, abs=1e-10)

    def test_self_product_integrates_to_one(self):
        quad = quadrature_for_order(5)
        y = real_sph_harm(2, 1, quad.nodes)
        assert quad.integrate(y * y) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_indices_raise(self):
        with pytest.raises(ValueError):
            real_sph_harm(1, 2, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            real_sph_harm(-1, 0, (0.0, 0.0, 1.0))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            real_sph_harm(1, 0, (0.0, 0.0, 2.0))

    def test_parity(self):
        s = random_directions(1000)
        for l in range(0, 6):
            for m in range(-l, l + 1):
                plus = real_sph_harm(l, m, s)
                minus = real_sph_harm(l, m, -s)
                assert np.max(np.abs(minus - (-1.0) ** l * plus)) <= 1e-12

    def test_orthonormality_gram(self):
        N = 7
        quad = quadrature_for_order(N)
        cols = [real_sph_harm(l, m, quad.nodes)
                for l in range(N + 1) for m in range(-l, l + 1)]
        tab = np.column_stack(cols)
        gram = (tab * quad.weights[:, None]).T @ tab
        assert np.max(np.abs(gram - np.eye(tab.shape[1]))) <= 1e-10


class TestBasis:
    def test_counts_n1(self):
        b = build_basis(1)
        assert (b.n_plus, b.n_minus) == (1, 3)

    def test_counts_n11(self):
        b = build_basis(11)
        assert (b.n_plus, b.n_minus) == (66, 78)

    def test_counts_n31(self):
        b = build_basis(31)
        assert b.n_plus + b.n_minus == 1024

    def test_order_above_max_rejected(self):
        assert build_basis(MAX_ORDER).order == MAX_ORDER
        with pytest.raises(ValueError, match="MAX_ORDER"):
            build_basis(MAX_ORDER + 2)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            build_basis(4)
        with pytest.raises(ValueError):
            build_basis(0)

    def test_index_lists_sorted_unique(self):
        b = build_basis(9)
        assert list(b.even_indices) == sorted(set(b.even_indices))
        assert list(b.odd_indices) == sorted(set(b.odd_indices))
        assert b.n_plus + b.n_minus == (b.order + 1) ** 2

    def test_z_parity_classes_n9(self):
        b = build_basis(9)
        ze, zo = b.z_even(), b.z_odd()
        assert (ze.n_plus, ze.n_minus) == (25, 30)
        assert (zo.n_plus, zo.n_minus) == (20, 25)
        assert ze.order == zo.order == 9
        assert all((l + abs(m)) % 2 == 0 for l, m in ze.even_indices + ze.odd_indices)
        # the two classes partition the basis, and build_basis keeps full counts
        assert sorted(ze.even_indices + zo.even_indices) == list(b.even_indices)
        assert sorted(ze.odd_indices + zo.odd_indices) == list(b.odd_indices)
        assert (b.n_plus, b.n_minus) == (45, 55)

    def test_positions_of_sub_basis(self):
        b = build_basis(5)
        ze = b.z_even()
        even, odd = b.positions(ze)
        assert [b.even_indices[k] for k in even] == list(ze.even_indices)
        assert [b.odd_indices[k] for k in odd] == list(ze.odd_indices)
        with pytest.raises(ValueError):
            ze.positions(b)

    def test_degree_groups_on_sub_basis(self):
        ze = build_basis(7).z_even()
        degrees = ze.odd_degrees()
        groups = degree_groups(degrees)
        assert [l for l, _ in groups] == [1, 3, 5, 7]
        for l, pos in groups:
            assert pos.size == l + 1  # the odd |m| in 1..l, both signs
            assert np.all(degrees[pos] == l)
        assert np.array_equal(np.sort(np.concatenate([p for _, p in groups])),
                              np.arange(ze.n_minus))


class TestQuadrature:
    def test_weight_sum(self):
        quad = sphere_quadrature(6, 13)
        assert quad.weights.sum() == pytest.approx(4 * np.pi, rel=1e-13)
        assert np.all(quad.weights > 0)
        assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0, atol=1e-14)

    def test_exactness_for_products(self):
        # all products up to total degree 2N+2 must integrate exactly
        N = 5
        quad = quadrature_for_order(N)
        idx = [(l, m) for l in range(N + 2) for m in range(-l, l + 1)]
        tab = np.column_stack([real_sph_harm(l, m, quad.nodes) for l, m in idx])
        gram = (tab * quad.weights[:, None]).T @ tab
        assert np.max(np.abs(gram - np.eye(len(idx)))) <= 1e-12


def analytic_tz(basis):
    """Independent oracle: the classic degree recurrence for z * Y_l^m."""
    out = np.zeros((basis.n_minus, basis.n_plus))

    def up(l, m):
        return np.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3)))

    def down(l, m):
        return np.sqrt((l - m) * (l + m) / ((2 * l - 1) * (2 * l + 1)))

    for j, (lo, mo) in enumerate(basis.odd_indices):
        for k, (le, me) in enumerate(basis.even_indices):
            if mo != me:
                continue
            am = abs(me)
            if lo == le + 1:
                out[j, k] = up(le, am)
            elif lo == le - 1:
                out[j, k] = down(le, am)
    return out


class TestCouplings:
    def test_tz_first_entry(self):
        basis = build_basis(1)
        coup = coupling_matrices(basis, quadrature_for_order(1))
        j = basis.odd_indices.index((1, 0))
        k = basis.even_indices.index((0, 0))
        assert coup.t_z[j, k] == pytest.approx(0.5773502692, abs=1e-10)

    def test_tx_first_entry_zero(self):
        basis = build_basis(1)
        coup = coupling_matrices(basis, quadrature_for_order(1))
        j = basis.odd_indices.index((1, 0))
        k = basis.even_indices.index((0, 0))
        assert coup.t_x[j, k] == 0.0

    @pytest.mark.parametrize("N", [1, 3, 5, 7, 9, 11, 13])
    def test_row_sparsity(self, N):
        basis = build_basis(N)
        coup = coupling_matrices(basis, quadrature_for_order(N))
        for mat, cap in ((coup.t_x, 4), (coup.t_y, 4), (coup.t_z, 2)):
            per_row = np.diff(mat.indptr)
            assert per_row.max() <= cap

    @pytest.mark.parametrize("N", [5, 9, 15])
    def test_tx_ty_never_cross_z_parity(self, N):
        # s_x and s_y are even under s_z -> -s_z, so they keep l + |m| parity
        basis = build_basis(N)
        coup = coupling_matrices(basis, quadrature_for_order(N))
        z_e = np.array([(l + abs(m)) % 2 for l, m in basis.even_indices])
        z_o = np.array([(l + abs(m)) % 2 for l, m in basis.odd_indices])
        cross = z_o[:, None] != z_e[None, :]
        for mat in (coup.t_x, coup.t_y):
            dense = mat.toarray()
            assert np.all(dense[cross] == 0.0)
            assert np.any(dense[~cross] != 0.0)

    @pytest.mark.parametrize("N", [1, 3, 5, 7, 9, 11, 13, 15])
    def test_order_mean_of_planar_couplings_is_isotropic(self, N):
        # averaged over the 2l+1 orders of even degree l, s_x and s_y reach
        # degree l+1 with weight (l+1)/(3(2l+1)), degree l-1 with l/(3(2l+1)),
        # and never mix: the weights of the per-degree preconditioner blocks
        basis = build_basis(N)
        coup = coupling_matrices(basis, quadrature_for_order(N))
        tx, ty = coup.t_x.toarray(), coup.t_y.toarray()
        odd_groups = degree_groups(basis.odd_degrees())
        for l, cols in degree_groups(basis.even_degrees()):
            for lo, rows in odd_groups:
                want = {l + 1: (l + 1) / (3 * (2 * l + 1)),
                        l - 1: l / (3 * (2 * l + 1))}.get(lo, 0.0)
                txo, tyo = tx[np.ix_(rows, cols)], ty[np.ix_(rows, cols)]
                assert abs(np.mean(np.sum(txo**2, axis=0)) - want) <= 1e-13
                assert abs(np.mean(np.sum(tyo**2, axis=0)) - want) <= 1e-13
                assert abs(np.mean(np.sum(txo * tyo, axis=0))) <= 1e-13

    def test_tz_matches_recurrence_oracle(self):
        basis = build_basis(7)
        coup = coupling_matrices(basis, quadrature_for_order(7))
        assert np.max(np.abs(coup.t_z.toarray() - analytic_tz(basis))) <= 1e-12

    def test_quadrature_order_insensitive(self):
        # doubling the rule must not change the entries: they are exact
        basis = build_basis(5)
        a = coupling_matrices(basis, quadrature_for_order(5))
        b = coupling_matrices(basis, quadrature_for_order(11))
        for i in range(3):
            assert np.max(np.abs(a.component(i).toarray() - b.component(i).toarray())) <= 1e-12

    @pytest.mark.parametrize("N", [1, 3, 5, 7])
    def test_projection_residual(self, N):
        # s_i * (even basis) lies in the odd span when N is odd
        basis = build_basis(N)
        quad = quadrature_for_order(N)
        coup = coupling_matrices(basis, quad)
        even_tab = basis.evaluate_even(quad.nodes)
        odd_tab = basis.evaluate_odd(quad.nodes)
        for i in range(3):
            f = quad.nodes[:, i][:, None] * even_tab        # (nq, n_plus)
            proj = odd_tab @ coup.component(i).toarray()    # projection values
            resid2 = quad.integrate((f - proj) ** 2)
            assert np.max(resid2) <= 1e-10


class TestScattering:
    def test_isotropic(self):
        basis = build_basis(5)
        sig = scattering_eigenvalues(10.0, basis)
        assert sig[0] == pytest.approx(10.0)
        assert all(sig[l] == 0.0 for l in range(1, 6))

    def test_zero_kernel(self):
        basis = build_basis(3)
        sig = scattering_eigenvalues(0.0, basis)
        assert all(v == 0.0 for v in sig.values())

    def test_hg_list_matches_quadrature(self):
        # Henyey-Greenstein-type list sigma_l = c * g^l; recover each
        # eigenvalue by direct 1-d Gauss quadrature of 2 pi int k(t) P_l(t) dt
        from scipy.special import eval_legendre, roots_legendre

        c, g = 2.0, 0.5
        coeffs = [c * g**l for l in range(16)]
        basis = build_basis(5)
        sig = scattering_eigenvalues(coeffs, basis)
        k = kernel_function(coeffs)
        t, w = roots_legendre(40)
        for l in range(6):
            direct = 2 * np.pi * np.sum(w * k(t) * eval_legendre(l, t))
            assert sig[l] == pytest.approx(direct, abs=1e-12)

    def test_sigma0_dominates(self):
        basis = build_basis(7)
        for kern in (10.0, [2.0, 1.0, 0.4], [3.0 * 0.5**l for l in range(16)]):
            sig = scattering_eigenvalues(kern, basis)
            assert all(sig[0] >= sig[l] for l in sig)

    def test_negative_kernel_rejected(self):
        basis = build_basis(3)
        with pytest.raises(ValueError):
            scattering_eigenvalues([1.0, 5.0], basis)  # strongly negative at t = -1
