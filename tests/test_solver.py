import dataclasses
import functools

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags, vstack
from scipy.sparse.linalg import splu

from pnpml.angular import build_basis, coupling_matrices, degree_groups, quadrature_for_order
from pnpml.assembly import build_operator, explicit_matrices, project_source
from pnpml.cli import _lattice_physics
from pnpml.mesh import Disk, GeometrySpec, Mesh2D, Rect, build_mesh, uniform_refine
from pnpml.pml import extend_coefficients
import pnpml.solver
from pnpml.solver import (
    BLOCK_SPATIAL,
    JACOBI,
    PRECONDITIONERS,
    _OMEGA,
    _SWEEPS,
    BlockSpatialPreconditioner,
    ConvergenceError,
    JacobiPreconditioner,
    NumericalError,
    SchurOperator,
    build_preconditioner,
    galerkin_residuals,
    pcg_solve,
    recover_odd,
    schur_rhs,
    solve_system,
    triple_norm2,
)

RNG = np.random.default_rng(31415)


def in_float64(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the block_spatial hierarchy stored and run
    in float64 instead of _PRECISION."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pnpml.solver, "_PRECISION", np.float64)
        return fn(*args, **kwargs)


@pytest.fixture
def float64_hierarchy(monkeypatch):
    """The block_spatial hierarchy in float64, for the tests that check the
    cycle's algebra (exact LUs, symmetry, the residual form) to float64
    bounds."""
    monkeypatch.setattr(pnpml.solver, "_PRECISION", np.float64)


# sigma_2 = sigma_6, sigma_1 = sigma_5 and sigma_3 = sigma_7, so degree 6
# has the mass weight and the odd neighbours c_5, c_7 of degree 2 (c_1, c_3)
SPLIT_KERNEL = [1.0, 0.02, 0.01, 0.01, 0.005, 0.02, 0.01, 0.01]


def small_instance(N=3, kernel=1.0):
    """<= 50 triangles, suitable for dense verification."""
    spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
    mesh = build_mesh(spec, 1.0)
    assert mesh.n_triangles <= 50
    basis = build_basis(N)
    coup = coupling_matrices(basis, quadrature_for_order(N))
    coeffs = extend_coefficients(mesh, 2.0, kernel, 1.0, a=1.5)
    blocks = build_operator(mesh, basis, coup, coeffs)
    qp, qm = project_source(mesh, basis, 1.0, isotropic=True)
    return mesh, basis, blocks, qp, qm


def desk_instance(h=0.2, N=3, exp_al=0.25, mu=10.1, sig=10.0, levels=0):
    spec = GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))
    mesh = build_mesh(spec, h)
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    basis = build_basis(N)
    coup = coupling_matrices(basis, quadrature_for_order(N))
    a = -np.log(exp_al) / spec.layer_depth
    src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
    coeffs = extend_coefficients(mesh, mu, sig, src, a=a)
    blocks = build_operator(mesh, basis, coup, coeffs)
    qp, qm = project_source(mesh, basis, src, isotropic=True)
    return mesh, basis, blocks, qp, qm


class TestSchurApply:
    def test_zero_maps_to_zero(self):
        _, _, blocks, _, _ = small_instance()
        op = SchurOperator(blocks)
        assert np.all(op.apply(np.zeros(op.n)) == 0.0)

    def test_symmetry(self):
        _, _, blocks, _, _ = small_instance()
        op = SchurOperator(blocks)
        for _ in range(10):
            x = RNG.normal(size=op.n)
            y = RNG.normal(size=op.n)
            sx, sy = op.apply(x), op.apply(y)
            assert abs(x @ sy - y @ sx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)

    @pytest.mark.parametrize("kernel", [1.0, [1.0, 0.5, 0.2]], ids=["isotropic", "anisotropic"])
    def test_reused_product_buffer_gives_the_unbuffered_apply(self, kernel):
        # the GEMM writes into one buffer per operator: each apply must still
        # equal a fresh product bitwise, and an earlier result stay untouched
        _, basis, blocks, _, _ = small_instance(5, kernel)
        op = SchurOperator(blocks.restrict(basis.z_even()))
        nv, n = op.blocks.mesh.n_vertices, op.blocks.basis.n_plus

        def unbuffered(x):
            u = x.reshape(nv, n)
            out = op._a @ (u @ op._w).reshape(op._a.shape[1], n)
            for cols, a in op._gathers:
                out[:, cols] += a @ u[:, cols]
            return out.ravel()

        x1, x2 = RNG.normal(size=op.n), RNG.normal(size=op.n)
        y1 = op.apply(x1)
        kept = y1.copy()
        y2 = op.apply(x2)
        assert np.array_equal(y1, unbuffered(x1))
        assert np.array_equal(y2, unbuffered(x2))
        assert np.array_equal(y1, kept)

    def test_matches_dense_oracle(self):
        _, _, blocks, _, _ = small_instance()
        m_e, r_e, b_e, c_e = explicit_matrices(blocks)
        s_dense = (m_e + r_e).toarray() + b_e.T.toarray() @ np.linalg.inv(c_e.toarray()) @ b_e.toarray()
        op = SchurOperator(blocks)
        for _ in range(10):
            x = RNG.normal(size=op.n)
            assert np.allclose(op.apply(x), s_dense @ x,
                               atol=1e-12 * np.linalg.norm(s_dense @ x, np.inf) + 1e-13)

    @pytest.mark.parametrize("modes", ["full", "z_even", "z_odd"])
    def test_several_classes_match_dense_oracle(self, modes):
        # kernel 10 3 1 at N = 5: even classes {0}, {2}, {4}, odd classes {1}, {3, 5}
        spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
        mesh = build_mesh(spec, 1.0)
        basis = build_basis(5)
        coup = coupling_matrices(basis, quadrature_for_order(5))
        coeffs = extend_coefficients(mesh, 10.1, [10.0, 3.0, 1.0], 1.0, a=1.5)
        blocks = build_operator(mesh, basis, coup, coeffs)
        assert [l for l, _ in blocks.classes] == [0, 2, 4]
        odd = blocks.odd_classes
        assert [sorted(set(basis.odd_degrees()[c].tolist())) for _, c in odd] == [[1], [3, 5]]
        sub = blocks if modes == "full" else blocks.restrict(getattr(basis, modes)())
        m_e, r_e, b_e, c_e = explicit_matrices(sub)
        s_dense = ((m_e + r_e).toarray()
                   + b_e.T.toarray() @ np.diag(1.0 / c_e.diagonal()) @ b_e.toarray())
        op = SchurOperator(sub)
        for _ in range(5):
            x = RNG.normal(size=op.n)
            want = s_dense @ x
            assert np.linalg.norm(op.apply(x) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("N, modes", [(3, "z_even"), (3, "z_odd"), (1, "z_odd")])
    def test_isotropic_restrictions_match_dense_oracle(self, N, modes):
        # N = 1 z-odd has no even mode: S is the empty operator
        _, basis, blocks, _, _ = small_instance(N)
        sub = blocks.restrict(getattr(basis, modes)())
        m_e, r_e, b_e, c_e = explicit_matrices(sub)
        s_dense = ((m_e + r_e).toarray()
                   + b_e.T.toarray() @ np.diag(1.0 / c_e.diagonal()) @ b_e.toarray())
        op = SchurOperator(sub)
        for _ in range(5):
            x = RNG.normal(size=op.n)
            want = s_dense @ x
            assert op.apply(x).shape == want.shape
            assert np.linalg.norm(op.apply(x) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kernel, terms", [(1.0, 4), ([1.0, 0.3, 0.1], 9)])
    def test_stacked_term_count(self, kernel, terms):
        # mass + R, then xx, yy and one merged cross term per full odd class,
        # or xx, yy and two cross terms per partial one ({1} and {3, 5})
        _, _, blocks, _, _ = small_instance(5, kernel=kernel)
        a = SchurOperator(blocks)._a
        assert a.shape == (blocks.mesh.n_vertices, terms * blocks.mesh.n_vertices)

    def test_singular_odd_block_raises(self):
        mesh, basis, blocks, qp, qm = small_instance()
        w = blocks.collision.copy()
        w[0, basis.odd_degrees()[0]] = 0.0
        with pytest.raises(NumericalError):
            SchurOperator(dataclasses.replace(blocks, collision=w)).apply(np.ones(blocks.n_even))


def _odd_class_products(basis, sub_basis, cols):
    """T_y^T P T_x and the norms of T_x, T_y for the odd modes ``cols`` of
    ``sub_basis``, a sub-basis of ``basis``."""
    even, odd = basis.positions(sub_basis)
    coup = coupling_matrices(basis, quadrature_for_order(basis.order))
    t_x, t_y = (t[odd][:, even].toarray()[cols] for t in (coup.t_x, coup.t_y))
    return t_y.T @ t_x, np.linalg.norm(t_x) * np.linalg.norm(t_y)


class TestCrossTermMerge:
    @pytest.mark.parametrize("N", range(1, 16, 2))
    @pytest.mark.parametrize("modes", ["full", "z_even", "z_odd"])
    def test_full_odd_class_cross_product_is_symmetric(self, N, modes):
        # T_y^T T_x is the even projection of multiplication by s_x s_y
        basis = build_basis(N)
        sub = basis if modes == "full" else getattr(basis, modes)()
        prod, scale = _odd_class_products(basis, sub, np.arange(sub.n_minus))
        assert np.linalg.norm(prod - prod.T) <= 1e-13 * scale

    def test_partial_odd_classes_cross_product_is_not_symmetric(self):
        # a three-term kernel such as 10 3 1 at N = 5: odd classes {1}, {3, 5}
        _, basis, blocks, _, _ = small_instance(5, kernel=[1.0, 0.3, 0.1])
        odd = blocks.odd_classes
        assert [sorted(set(basis.odd_degrees()[c].tolist())) for _, c in odd] == [[1], [3, 5]]
        for _, cols in odd:
            prod, _ = _odd_class_products(basis, basis, cols)
            assert np.linalg.norm(prod - prod.T) >= 0.1 * np.linalg.norm(prod)


def _textbook_pcg(matvec, rhs, psolve, tol, max_iter):
    """PCG written out with fresh arrays: x and the residual history, the
    recurrence residual replaced by the true one every 50 iterations and
    confirmed by it before stopping."""
    norm = np.linalg.norm(rhs)
    x, r = np.zeros_like(rhs), rhs.copy()
    z = psolve(r)
    p, rz, history = z.copy(), float(r @ z), []
    for k in range(1, max_iter + 1):
        sp = matvec(p)
        alpha = rz / float(p @ sp)
        x = x + alpha * p
        r = rhs - matvec(x) if k % 50 == 0 else r - alpha * sp
        history.append(float(np.linalg.norm(r)) / norm)
        if history[-1] <= tol:
            r = rhs - matvec(x)
            history[-1] = float(np.linalg.norm(r)) / norm
            if history[-1] <= tol:
                break
        z = psolve(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x, history


class TestPCG:
    @pytest.mark.parametrize("precond", [False, True])
    def test_bitwise_the_textbook_recurrence(self, precond):
        # a tridiagonal SPD matrix that needs more than 50 iterations, so the
        # true-residual replacement runs too
        n = 200
        d = np.linspace(2.001, 2.1, n)
        a = diags([d, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1], format="csr")
        matvec = lambda v: a @ v
        rhs = RNG.normal(size=n)

        class Diagonal:
            def apply(self, r):
                return r / d

        pre = Diagonal() if precond else None
        psolve = pre.apply if precond else (lambda r: r)
        x, report = pcg_solve(matvec, rhs, preconditioner=pre, tol=1e-12, max_iter=500)
        want_x, want_history = _textbook_pcg(matvec, rhs, psolve, 1e-12, 500)
        assert report.iterations > 50
        assert np.array_equal(x, want_x)
        assert report.residual_history == want_history
        with pytest.raises(ConvergenceError) as err:
            pcg_solve(matvec, rhs, preconditioner=pre, tol=1e-12, max_iter=30)
        assert err.value.report.residual_history == _textbook_pcg(matvec, rhs, psolve, 1e-12, 30)[1]

    def test_zero_rhs(self):
        _, _, blocks, _, _ = small_instance()
        op = SchurOperator(blocks)
        x, rep = pcg_solve(op, np.zeros(op.n), tol=1e-10)
        assert rep.iterations == 0
        assert np.all(x == 0.0)

    def test_mass_only_system_converges_fast(self):
        # a single-mode pure mass operator is well conditioned
        spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
        mesh = build_mesh(spec, 0.5)
        basis = build_basis(1)
        coup = coupling_matrices(basis, quadrature_for_order(1))
        coeffs = extend_coefficients(mesh, 1.0, 0.0, 1.0, a=1.0)
        blocks = build_operator(mesh, basis, coup, coeffs)
        m = blocks.mass_blocks[0]
        rhs = RNG.normal(size=mesh.n_vertices)
        x, rep = pcg_solve(lambda v: m @ v, rhs, tol=1e-10, max_iter=200)
        assert rep.iterations <= 40
        assert np.linalg.norm(m @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_identity_like_jacobi_matches_unpreconditioned(self):
        class UnitDiag:
            def apply(self, r):
                return r

        rhs = RNG.normal(size=50)
        x0, rep0 = pcg_solve(lambda v: v, rhs, tol=1e-12)
        x1, rep1 = pcg_solve(lambda v: v, rhs, preconditioner=UnitDiag(), tol=1e-12)
        assert rep0.iterations == rep1.iterations == 1
        assert np.allclose(x0, x1)

    def test_breakdown_detected(self):
        with pytest.raises(NumericalError):
            pcg_solve(lambda v: -v, np.ones(5), tol=1e-10)

    def test_nan_stops_at_first_iteration(self):
        calls = []

        def matvec(v):
            calls.append(1)
            return v

        with pytest.raises(NumericalError):
            pcg_solve(matvec, np.full(5, np.nan), tol=1e-10, max_iter=1000)
        assert len(calls) == 1

    def test_max_iter_exceeded(self):
        _, _, blocks, qp, qm = small_instance()
        op = SchurOperator(blocks)
        with pytest.raises(ConvergenceError) as err:
            pcg_solve(op, schur_rhs(blocks, qp, qm), tol=1e-14, max_iter=2)
        report = err.value.report
        assert not report.converged
        assert report.iterations == 2 and len(report.residual_history) == 2

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            pcg_solve(lambda v: v, np.ones(3), max_iter=0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_tolerance_rejected_before_any_matvec(self, tol):
        def no_matvec(v):
            raise AssertionError("no matvec may run on a bad tolerance")

        with pytest.raises(ValueError, match="tol must be positive and finite"):
            pcg_solve(no_matvec, np.ones(3), tol=tol)

    def test_deterministic(self):
        _, _, blocks, qp, qm = small_instance()
        op = SchurOperator(blocks)
        rhs = schur_rhs(blocks, qp, qm)
        x1, r1 = pcg_solve(op, rhs, tol=1e-10)
        x2, r2 = pcg_solve(op, rhs, tol=1e-10)
        assert np.array_equal(x1, x2)
        assert r1.residual_history == r2.residual_history

    def test_report_tolerance_invariant(self):
        _, _, blocks, qp, qm = small_instance()
        op = SchurOperator(blocks)
        rhs = schur_rhs(blocks, qp, qm)
        _, rep = pcg_solve(op, rhs, tol=1e-9)
        assert rep.converged
        assert rep.final_residual <= 1e-9


class TestSchurRhs:
    """q+ + B^T C^{-1} q-, the second term skipped where q- is zero."""

    def test_zero_odd_load_gives_a_copy_of_the_even_load(self, monkeypatch):
        _, _, blocks, qp, qm = small_instance()
        assert not qm.any()  # an isotropic source
        want = (qp + blocks.apply_transport_t(qm / blocks.c_diag)).ravel()

        def no_transport_t(*args):
            raise AssertionError("B^T applied to a zero odd load")

        monkeypatch.setattr(type(blocks), "apply_transport_t", no_transport_t)
        rhs = schur_rhs(blocks, qp, qm)
        assert rhs.tobytes() == want.tobytes()
        assert not np.shares_memory(rhs, qp)

    def test_odd_load_adds_the_transport_term(self):
        mesh, basis, blocks, _, _ = small_instance()
        q = lambda r, s: (1.0 + r[0]) * (1.0 + s[2] + s[0] * s[2])
        qp, qm = project_source(mesh, basis, q, isotropic=False)
        assert qm.any()
        want = (qp + blocks.apply_transport_t(qm / blocks.c_diag)).ravel()
        assert schur_rhs(blocks, qp, qm).tobytes() == want.tobytes()
        assert not np.array_equal(want, qp.ravel())


class TestElimination:
    def test_zero_data(self):
        _, _, blocks, _, _ = small_instance()
        out = recover_odd(blocks, np.zeros_like(blocks.c_diag),
                          np.zeros((blocks.mesh.n_vertices, blocks.basis.n_plus)))
        assert np.all(out == 0.0)

    def test_block_system_residual(self):
        _, _, blocks, qp, qm = small_instance()
        tol = 1e-10
        fld, rep = solve_system(blocks, qp, qm, tol=tol)
        res1, res2 = galerkin_residuals(blocks, fld, qp, qm)
        qnorm = np.sqrt(np.sum(qp**2) + np.sum(qm**2))
        assert res2 <= 1e-14 * max(1.0, qnorm)
        assert res1 <= 10 * tol * qnorm

    def test_matches_dense_block_solve(self):
        mesh, basis, blocks, qp, qm = small_instance()
        m_e, r_e, b_e, c_e = explicit_matrices(blocks)
        n_even, n_odd = blocks.n_even, blocks.n_odd
        full = np.zeros((n_even + n_odd, n_even + n_odd))
        full[:n_even, :n_even] = (m_e + r_e).toarray()
        full[:n_even, n_even:] = -b_e.T.toarray()
        full[n_even:, :n_even] = b_e.toarray()
        full[n_even:, n_even:] = c_e.toarray()
        rhs = np.concatenate([qp.ravel(), qm.ravel()])
        dense = np.linalg.solve(full, rhs)

        fld, _ = solve_system(blocks, qp, qm, tol=1e-13)
        approx = np.concatenate([fld.even.ravel(), fld.odd.ravel()])
        assert np.max(np.abs(approx - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


class TestPreconditioners:
    @pytest.mark.parametrize("kind", [JACOBI, BLOCK_SPATIAL])
    def test_spd(self, kind):
        _, _, blocks, _, _ = small_instance()
        pre = build_preconditioner(blocks, kind)
        for _ in range(100):
            x = RNG.normal(size=blocks.n_even)
            assert x @ pre.apply(x) > 0

    @pytest.mark.parametrize("kind", [JACOBI, BLOCK_SPATIAL])
    def test_preconditioned_solution_unchanged(self, kind):
        _, _, blocks, qp, qm = small_instance()
        op = SchurOperator(blocks)
        rhs = schur_rhs(blocks, qp, qm)
        x_plain, _ = pcg_solve(op, rhs, tol=1e-12)
        x_pre, _ = pcg_solve(op, rhs, preconditioner=build_preconditioner(blocks, kind),
                             tol=1e-12)
        assert np.allclose(x_pre, x_plain, atol=1e-9 * np.linalg.norm(x_plain))

    def test_unknown_kind_rejected(self):
        _, _, blocks, _, _ = small_instance()
        with pytest.raises(ValueError):
            build_preconditioner(blocks, "multigrid")

    # with [1, .3, .1] no class merges at N <= 5; the isotropic kernel
    # merges degrees 2 and 4 into one class; SPLIT_KERNEL has equal mass
    # weights and odd neighbours at degrees 2 and 6, but not equal blocks
    @pytest.mark.parametrize("N, kernel", [(3, [1.0, 0.3, 0.1]), (5, [1.0, 0.3, 0.1]), (5, 1.0),
                                           (7, SPLIT_KERNEL)],
                             ids=["3", "5", "5-isotropic", "7-split"])
    @pytest.mark.parametrize("modes", ["full", "z_even", "z_odd"])
    def test_degree_blocks_are_order_means_of_schur_blocks(self, N, kernel, modes):
        # the block of each class is, within rounding, the mean over all
        # 2l+1 orders of the diagonal blocks of the dense S of the full
        # basis, for every degree l of the class and for a restricted basis too
        _, basis, blocks, _, _ = small_instance(N, kernel=kernel)
        m_e, r_e, b_e, c_e = explicit_matrices(blocks)
        s_dense = ((m_e + r_e).toarray()
                   + b_e.T.toarray() @ np.diag(1.0 / c_e.diagonal()) @ b_e.toarray())
        n = basis.n_plus
        mean = {l: np.mean([s_dense[e::n, e::n] for e in cols], axis=0)
                for l, cols in degree_groups(basis.even_degrees())}
        sub_basis = basis if modes == "full" else getattr(basis, modes)()
        sub = blocks.restrict(sub_basis)
        class_blocks = sub.class_blocks()
        assert len(class_blocks) == len(sub.classes) > 0
        for (l, cols), (cols_b, block) in zip(sub.classes, class_blocks):
            assert np.array_equal(cols, cols_b)
            for degree in np.unique(sub.basis.even_degrees()[cols]):
                assert (np.linalg.norm(block.toarray() - mean[degree])
                        <= 1e-12 * np.linalg.norm(mean[degree]))

    @pytest.mark.parametrize("kernel", [1.0, [1.0, 0.3, 0.1], SPLIT_KERNEL],
                             ids=["isotropic", "anisotropic", "split"])
    def test_class_block_is_the_block_of_every_member_degree(self, kernel):
        _, basis, blocks, _, _ = small_instance(7, kernel=kernel)
        degrees = basis.even_degrees()
        # every degree a class of its own; mass_blocks keys every degree to
        # the mass of its class, bitwise the mass of its own weight
        per_degree = dataclasses.replace(blocks)
        per_degree.classes = degree_groups(degrees)
        own = {l: block.toarray() for (l, _), (_, block)
               in zip(per_degree.classes, per_degree.class_blocks())}
        for (_, cols), (_, block) in zip(blocks.classes, blocks.class_blocks()):
            for degree in np.unique(degrees[cols]):
                assert own[degree].tobytes() == block.toarray().tobytes()

    @pytest.mark.usefixtures("float64_hierarchy")
    @pytest.mark.parametrize("modes", ["full", "z_even", "z_odd"])
    def test_both_kinds_come_from_the_degree_blocks(self, modes):
        _, basis, blocks, _, _ = small_instance(5, kernel=[1.0, 0.3, 0.1])
        sub = blocks if modes == "full" else blocks.restrict(getattr(basis, modes)())
        shape = (sub.mesh.n_vertices, sub.basis.n_plus)
        jac = JacobiPreconditioner(sub)
        blk = BlockSpatialPreconditioner(sub)
        class_blocks = sub.class_blocks()
        # one LU per even degree of the class, not one per mode
        assert len(blk._solvers) == len(np.unique(sub.basis.even_degrees()))
        r = RNG.normal(size=sub.n_even)
        inv_diag, z = jac._inv_diag.reshape(shape), blk.apply(r).reshape(shape)
        for cols, block in class_blocks:
            assert np.all(inv_diag[:, cols] == 1.0 / block.diagonal()[:, None])
            want = np.linalg.solve(block.toarray(), r.reshape(shape)[:, cols])
            assert np.allclose(z[:, cols], want, rtol=1e-10, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", [JACOBI, BLOCK_SPATIAL])
    def test_singular_odd_block_rejected(self, kind):
        _, basis, blocks, _, _ = small_instance()
        w = blocks.collision.copy()
        w[3, basis.odd_degrees()[1]] = 0.0
        with pytest.raises(NumericalError):
            build_preconditioner(dataclasses.replace(blocks, collision=w), kind)

    def test_block_spatial_beats_jacobi_on_desk_case(self):
        # comparison is recorded, not asserted numerically
        _, _, blocks, qp, qm = desk_instance(h=0.2, N=3)
        op = SchurOperator(blocks)
        rhs = schur_rhs(blocks, qp, qm)
        _, rep_j = pcg_solve(op, rhs, preconditioner=build_preconditioner(blocks, JACOBI),
                             tol=1e-7, max_iter=20000)
        _, rep_b = pcg_solve(op, rhs, preconditioner=build_preconditioner(blocks, BLOCK_SPATIAL),
                             tol=1e-7, max_iter=20000)
        print(f"\npreconditioner iterations: jacobi={rep_j.iterations} "
              f"block_spatial={rep_b.iterations}")
        assert rep_j.converged and rep_b.converged


def without_chain(blocks):
    """The same operator on a copy of its mesh that has no parent."""
    m = blocks.mesh
    return dataclasses.replace(blocks, mesh=Mesh2D(m.vertices, m.triangles, m.tags, m.h))


class TestVCycle:
    """``block_spatial`` on the desk instance refined twice, a chain of three
    meshes, against the exact per-class LU of the same fine mesh.  The tests
    held to float64 bounds run the hierarchy in float64."""

    @pytest.fixture(scope="class")
    def chain(self):
        return desk_instance(h=0.2, N=3, levels=2)

    @pytest.mark.usefixtures("float64_hierarchy")
    def test_symmetric_and_positive(self, chain):
        _, _, blocks, _, _ = chain
        pre = BlockSpatialPreconditioner(blocks)
        x, y = RNG.normal(size=(2, blocks.n_even))
        px, py = pre.apply(x), pre.apply(y)
        assert abs(x @ py - y @ px) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(py)
        for v in RNG.normal(size=(5, blocks.n_even)):
            assert v @ pre.apply(v) > 0

    def test_coarsest_lu_per_degree(self, chain):
        # one coarse LU per coefficient class: {0} and {2} at N = 3
        mesh, _, blocks, _, _ = chain
        coarsest = mesh.parent.parent
        assert coarsest.parent is None
        pre = BlockSpatialPreconditioner(blocks)
        assert len(pre._solvers) == 2
        assert all(lu.shape == (coarsest.n_vertices,) * 2 for lu in pre._solvers)

    @pytest.mark.usefixtures("float64_hierarchy")
    def test_mesh_without_parent_gets_the_exact_lu(self, chain):
        _, _, blocks, _, _ = chain
        flat = without_chain(blocks)
        shape = (flat.mesh.n_vertices, flat.basis.n_plus)
        r = RNG.normal(size=shape)
        z = BlockSpatialPreconditioner(flat).apply(r.ravel()).reshape(shape)
        for cols, block in flat.class_blocks():
            assert np.count_nonzero(block.data) == block.nnz  # no zero for the LU to drop
            want = pnpml.solver._factor(block).solve(r[:, cols])
            assert z[:, cols].tobytes() == want.tobytes()

    @pytest.mark.usefixtures("float64_hierarchy")
    def test_merged_class_matches_the_per_degree_lu(self):
        # the isotropic kernel puts degrees 2 and 4 in one class, solved with
        # the block of degree 2; each degree's own block gives the same
        # solution up to rounding
        _, _, blocks, _, _ = desk_instance(h=0.2, N=5)
        flat = without_chain(blocks)
        assert [l for l, _ in flat.classes] == [0, 2]
        per_degree = dataclasses.replace(flat)
        per_degree.classes = degree_groups(flat.basis.even_degrees())
        shape = (flat.mesh.n_vertices, flat.basis.n_plus)
        r = RNG.normal(size=shape)
        z = BlockSpatialPreconditioner(flat).apply(r.ravel()).reshape(shape)
        want = np.empty(shape)
        for cols, block in per_degree.class_blocks():
            want[:, cols] = splu(block.tocsc()).solve(r[:, cols])
        assert np.linalg.norm(z - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.usefixtures("float64_hierarchy")
    def test_pure_absorber_needs_one_lu(self):
        # kernel 0: the z-even degrees 0, 2 and 4 form one class with one LU,
        # and each degree's own block gives the same solution
        _, basis, blocks, _, _ = desk_instance(h=0.2, N=5, sig=0.0)
        flat = without_chain(blocks).restrict(basis.z_even())
        degrees = flat.basis.even_degrees()
        assert [(l, np.unique(degrees[cols]).tolist()) for l, cols in flat.classes] == [
            (0, [0, 2, 4])]
        pre = BlockSpatialPreconditioner(flat)
        assert len(pre._solvers) == 1
        per_degree = dataclasses.replace(flat)
        per_degree.classes = degree_groups(degrees)
        shape = (flat.mesh.n_vertices, flat.basis.n_plus)
        r = RNG.normal(size=shape)
        z = pre.apply(r.ravel()).reshape(shape)
        want = np.empty(shape)
        for cols, block in per_degree.class_blocks():
            want[:, cols] = splu(block.tocsc()).solve(r[:, cols])
        assert np.linalg.norm(z - want) <= 1e-14 * np.linalg.norm(want)

    def test_iterations_within_two_of_the_lu_path(self, chain):
        _, _, blocks, qp, qm = chain
        fld, rep = solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-7)
        fld_lu, rep_lu = solve_system(without_chain(blocks), qp, qm,
                                      precond=BLOCK_SPATIAL, tol=1e-7)
        print(f"\nPCG iterations: V-cycle {rep.iterations}, LU {rep_lu.iterations}")
        assert rep.converged and rep_lu.converged
        assert rep.iterations <= rep_lu.iterations + 2
        for got, want in ((fld.even, fld_lu.even), (fld.odd, fld_lu.odd)):
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_deterministic_across_builds(self, chain):
        _, _, blocks, qp, qm = chain
        runs = [solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-7)
                for _ in range(2)]
        (f1, r1), (f2, r2) = runs
        assert r1.iterations == r2.iterations
        assert r1.residual_history == r2.residual_history
        assert f1.even.tobytes() == f2.even.tobytes()
        assert f1.odd.tobytes() == f2.odd.tobytes()


def residual_form_v_cycle(mesh, a, b):
    """One V-cycle from zero for a x = b over the mesh's refinement chain,
    each damped-Jacobi sweep in residual form x += w (b - a x), w = omega /
    diag(a), with the Galerkin coarse blocks and the exact coarsest solve."""
    if mesh.parent is None:
        return splu(a.tocsc()).solve(b)
    p = mesh.parent.prolongation
    pt = p.T.tocsr()
    w = _OMEGA / a.diagonal()[:, None]
    x = w * b
    for _ in range(_SWEEPS - 1):
        x += w * (b - a @ x)
    x += p @ residual_form_v_cycle(mesh.parent, pt @ a @ p, pt @ (b - a @ x))
    for _ in range(_SWEEPS):
        x += w * (b - a @ x)
    return x


class TestIterationMatrixCycle:
    """The V-cycle sweeps x <- J x + c with J = I - omega D^{-1} A stored per
    level; in exact arithmetic that is the residual-form sweep (compared
    with the hierarchy in float64)."""

    @pytest.mark.usefixtures("float64_hierarchy")
    @pytest.mark.parametrize("N, sig, n_classes", [(3, 10.0, 2), (5, [10.0, 3.0, 1.0], 3)])
    def test_matches_the_residual_form_cycle(self, N, sig, n_classes):
        _, _, blocks, _, _ = desk_instance(h=0.2, N=N, sig=sig, levels=2)
        assert len(blocks.classes) == n_classes
        pre = BlockSpatialPreconditioner(blocks)
        shape = (blocks.mesh.n_vertices, blocks.basis.n_plus)
        r = RNG.normal(size=shape)
        z = pre.apply(r.ravel()).reshape(shape)
        for cols, block in blocks.class_blocks():
            want = residual_form_v_cycle(blocks.mesh, block.tocsr(), r[:, cols])
            assert np.linalg.norm(z[:, cols] - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.usefixtures("float64_hierarchy")
    def test_class_that_is_not_one_run_keeps_its_index_array(self):
        # degrees 0 and 4 in one class, solved with the block of degree 0
        _, _, blocks, _, _ = desk_instance(h=0.2, N=5, levels=1)
        by_degree = dict(degree_groups(blocks.basis.even_degrees()))
        merged = dataclasses.replace(blocks)
        merged.classes = [(0, np.concatenate([by_degree[0], by_degree[4]])), (2, by_degree[2])]
        pre = BlockSpatialPreconditioner(merged)
        assert isinstance(pre._cols[0], np.ndarray) and isinstance(pre._cols[1], slice)
        shape = (merged.mesh.n_vertices, merged.basis.n_plus)
        r = RNG.normal(size=shape)
        z = pre.apply(r.ravel()).reshape(shape)
        for cols, block in merged.class_blocks():
            want = residual_form_v_cycle(merged.mesh, block.tocsr(), r[:, cols])
            assert np.linalg.norm(z[:, cols] - want) <= 1e-14 * np.linalg.norm(want)

    def test_isotropic_z_even_classes_are_slices(self):
        _, basis, blocks, _, _ = desk_instance(h=0.2, N=9)
        sub = blocks.restrict(basis.z_even())
        pre = BlockSpatialPreconditioner(sub)
        assert len(pre._cols) == len(sub.classes) == 2
        for got, (_, cols) in zip(pre._cols, sub.classes):
            assert isinstance(got, slice)
            assert np.array_equal(np.arange(sub.basis.n_plus)[got], cols)

    @pytest.mark.parametrize("precond, value", [
        pytest.param(pre, value, id=f"{tag}{value}")
        for tag, pre in (("", BlockSpatialPreconditioner), ("jacobi-", JacobiPreconditioner))
        for value in (-1e-3, np.nan)])
    def test_bad_smoothed_diagonal_rejected(self, precond, value):
        # w_1 < 0 makes the diffusion k_0 = 1/(3 w_1) and the block diagonal
        # negative; NaN makes it NaN.  The odd block stays nonsingular.
        _, _, blocks, _, _ = desk_instance(h=0.2, N=3, levels=1)
        w = blocks.collision.copy()
        w[:, 1] = value
        with pytest.raises(NumericalError, match="diagonal"):
            precond(dataclasses.replace(blocks, collision=w))


# (N, kernel) per kernel of the precision tests: the split kernel needs N = 7
PRECISION_KERNELS = {"isotropic": (3, 10.0), "10-3-1": (5, [10.0, 3.0, 1.0]),
                     "split": (7, SPLIT_KERNEL)}


@functools.lru_cache
def chained_instance(kernel):
    """The desk instance refined twice (a chain of three meshes)."""
    n, sig = PRECISION_KERNELS[kernel]
    return desk_instance(h=0.2, N=n, sig=sig, levels=2)


def precision_case(kernel, modes, chain):
    """The z-parity operator ``modes`` of :func:`chained_instance`, on the
    chain or on a copy of its fine mesh without one."""
    _, basis, blocks, _, _ = chained_instance(kernel)
    sub = blocks.restrict(getattr(basis, modes)())
    return sub if chain else without_chain(sub)


precision_cases = pytest.mark.parametrize(
    "kernel, modes, chain",
    [pytest.param(k, m, c, id=f"{k}-{m}-{'chain' if c else 'flat'}")
     for k in PRECISION_KERNELS for m in ("z_even", "z_odd") for c in (True, False)])


class TestSinglePrecisionHierarchy:
    """``block_spatial`` stores, factorizes and runs its hierarchy in
    float32 (_PRECISION); the same cycle in float64 is the reference."""

    @precision_cases
    def test_apply_matches_the_float64_hierarchy(self, kernel, modes, chain):
        sub = precision_case(kernel, modes, chain)
        pre = BlockSpatialPreconditioner(sub)
        assert all(lu.L.dtype == np.float32 for lu in pre._solvers)
        assert all(m.dtype == np.float32 for levels in pre._levels for lv in levels for m in lv)
        r = RNG.normal(size=sub.n_even)
        z = pre.apply(r)
        want = in_float64(lambda: BlockSpatialPreconditioner(sub).apply(r))
        assert z.dtype == np.float64
        assert np.linalg.norm(z - want) <= 1e-5 * np.linalg.norm(want)

    @precision_cases
    def test_symmetric_and_positive(self, kernel, modes, chain):
        sub = precision_case(kernel, modes, chain)
        pre = BlockSpatialPreconditioner(sub)
        x, y = RNG.normal(size=(2, sub.n_even))
        px, py = pre.apply(x), pre.apply(y)
        assert abs(x @ py - y @ px) <= 1e-6 * np.linalg.norm(x) * np.linalg.norm(py)
        for v in RNG.normal(size=(5, sub.n_even)):
            assert v @ pre.apply(v) > 0

    @precision_cases
    def test_solve_matches_the_float64_hierarchy(self, kernel, modes, chain):
        # a smooth load on the z-parity class ``modes`` only
        _, basis, blocks, qp_iso, qm = chained_instance(kernel)
        if not chain:
            blocks = without_chain(blocks)
        even, _ = basis.positions(getattr(basis, modes)())
        qp = np.zeros_like(qp_iso)
        qp[:, even] = qp_iso.sum(axis=1)[:, None] * np.linspace(1.0, 0.5, even.size)
        fld, rep = solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-7)
        ref, rep_ref = in_float64(solve_system, blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-7)
        assert rep.converged and rep.iterations == rep_ref.iterations
        for got, want in ((fld.even, ref.even), (fld.odd, ref.odd)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("chain", [True, False], ids=["chain", "flat"])
    def test_block_beyond_the_float32_range_rejected(self, chain):
        # w_1 = 1e-40 makes the diffusion k_0 = 1/(3 w_1), and with it the
        # class block of degree 0, exceed the float32 range; every float64
        # entry stays finite and the odd block nonsingular.  Without a chain
        # the block is the coarse block the LU factorizes.
        _, _, blocks, _, _ = desk_instance(h=0.2, N=3, levels=1)
        w = blocks.collision.copy()
        w[:, 1] = 1e-40
        tiny = dataclasses.replace(blocks, collision=w)
        if not chain:
            tiny = without_chain(tiny)
        in_float64(BlockSpatialPreconditioner, tiny)
        with pytest.raises(NumericalError, match="overflows float32"):
            BlockSpatialPreconditioner(tiny)


class TestOddTermData:
    @pytest.mark.parametrize("kernel", [1.0, [1.0, 0.3, 0.1]])
    def test_terms_are_bitwise_the_sparse_products(self, kernel):
        # xx, yy and the merged cross pair of a full odd class, or both cross
        # terms of a partial one, after the even term, in class order.  The
        # stacked matrix stores term t of pattern column j in column j k + t,
        # its nonzero entries only
        mesh, basis, blocks, _, _ = small_instance(5, kernel=kernel)
        a = SchurOperator(blocks)._a
        k = a.shape[1] // mesh.n_vertices
        rows = np.repeat(np.arange(mesh.n_vertices), np.diff(a.indptr))
        terms = [csr_matrix((a.data[sel], (rows[sel], a.indices[sel] // k)),
                            shape=(mesh.n_vertices,) * 2)
                 for sel in (a.indices % k == t for t in range(k))]
        g = (blocks.g_x, blocks.g_y)
        want = []
        for _, cols in blocks.odd_classes:
            d = 1.0 / blocks.c_diag[:, cols[0]]
            cross = ([[(0, 1), (1, 0)]] if cols.size == basis.n_minus
                     else [[(0, 1)], [(1, 0)]])
            for pairs in [[(0, 0)], [(1, 1)], *cross]:
                # one product sums all pairs of a triangle entry, pair by pair
                left = vstack([g[i] for i, _ in pairs], format="csr")
                right = vstack([g[j] for _, j in pairs], format="csr")
                want.append(left.T @ diags(np.tile(d, len(pairs))) @ right)
        assert len(want) == k - 1
        for got, ref in zip(terms[1:], want):
            assert got.toarray().tobytes() == ref.toarray().tobytes()


@functools.lru_cache
def lattice_instance():
    """The lattice preset at N = 3 on the 7 x 7 rect mesh refined once (361
    vertices).  Its scattering cells have w_0 = 0, and the stiffness terms
    of its axis-aligned right triangles vanish on many entries, so the P1
    pattern holds exact zeros in the stacked Schur terms, in the gather of
    class {2} and in the class block of degree 0."""
    spec = GeometrySpec(inner=Rect(0, 0, 7, 7), outer=Rect(-1, -1, 8, 8))
    mesh = uniform_refine(build_mesh(spec, 1.0))
    mu, kernel, source = _lattice_physics()
    basis = build_basis(3)
    coeffs = extend_coefficients(mesh, mu, kernel, source, a=-np.log(1 / 32) / spec.layer_depth)
    with pytest.warns(UserWarning, match="gamma <= 0"):
        blocks = build_operator(mesh, basis, coupling_matrices(basis, quadrature_for_order(3)),
                                coeffs)
    qp, qm = project_source(mesh, basis, source, isotropic=True)
    return mesh, basis, blocks, qp, qm


def in_full_pattern(fn, *args):
    """``fn(*args)`` with every CSR matrix keeping its stored zeros, as on
    the full P1 pattern."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr_matrix, "eliminate_zeros", lambda self: None)
        return fn(*args)


class TestZeroFreeStorage:
    """The sparse matrices PCG applies store only their nonzero entries;
    skipping a product with an exact zero leaves every sum bitwise as it
    was on the full pattern."""

    def test_schur_terms_and_gathers_store_no_zero(self):
        mesh, basis, blocks, _, _ = lattice_instance()
        sub = blocks.restrict(basis.z_even())
        schur, full = SchurOperator(sub), in_full_pattern(SchurOperator, sub)
        assert len(schur._gathers) == 1
        assert np.all(schur._a.data != 0) and schur._a.nnz < full._a.nnz
        for (cols, a), (full_cols, full_a) in zip(schur._gathers, full._gathers):
            assert isinstance(cols, slice) and cols == full_cols
            assert np.all(a.data != 0) and a.nnz < full_a.nnz
            assert a.toarray().tobytes() == full_a.toarray().tobytes()
        stored = {}
        schur.record(stored)
        assert stored == {"schur_nnz": schur._a.nnz + schur._gathers[0][1].nnz}

    def test_v_cycle_levels_store_no_zero(self):
        _, basis, blocks, _, _ = lattice_instance()
        pre = BlockSpatialPreconditioner(blocks.restrict(basis.z_even()))
        full = in_full_pattern(BlockSpatialPreconditioner, blocks.restrict(basis.z_even()))
        for levels, full_levels in zip(pre._levels, full._levels):
            for (a, j, *_), (full_a, full_j, *_) in zip(levels, full_levels):
                for m, full_m in ((a, full_a), (j, full_j)):
                    assert np.all(m.data != 0)
                    assert m.toarray().tobytes() == full_m.toarray().tobytes()
        # the class block of degree 0 stores zero sums, so its levels lose them
        assert pre._levels[0][0][0].nnz < full._levels[0][0][0].nnz

    def test_schur_apply_is_bitwise_the_full_pattern(self):
        _, basis, blocks, _, _ = lattice_instance()
        for sub_basis in (basis.z_even(), basis.z_odd()):
            sub = blocks.restrict(sub_basis)
            x = RNG.normal(size=sub.n_even)
            want = in_full_pattern(SchurOperator, sub).apply(x)
            assert np.array_equal(SchurOperator(sub).apply(x), want)

    def test_jacobi_solve_is_bitwise_the_full_pattern(self):
        _, _, blocks, qp, qm = lattice_instance()
        fld, rep = solve_system(blocks, qp, qm, precond=JACOBI, tol=1e-7)
        ref, rep_ref = in_full_pattern(solve_system, blocks, qp, qm, JACOBI, 1e-7)
        assert rep.converged and np.array_equal(rep.residual_history, rep_ref.residual_history)
        assert np.array_equal(fld.even, ref.even) and np.array_equal(fld.odd, ref.odd)
        assert rep.parameters["schur_nnz"] < rep_ref.parameters["schur_nnz"]

    def test_mesh_pattern_unchanged(self):
        mesh, basis, blocks, _, _ = lattice_instance()
        indptr, indices = (a.copy() for a in mesh._pattern[:2])
        sub = blocks.restrict(basis.z_even())
        SchurOperator(sub)
        for kind in PRECONDITIONERS:
            build_preconditioner(sub, kind)
        for got, want in zip(mesh._pattern, (indptr, indices)):
            assert np.array_equal(got, want) and not got.flags.writeable
        # the class blocks keep the whole pattern, zero sums stored
        (_, block), *_ = sub.class_blocks()
        assert np.shares_memory(block.indices, mesh._pattern[1])
        assert np.count_nonzero(block.data) < block.nnz


class TestTrends:
    def test_iterations_drop_with_layer_absorption(self):
        iters = {}
        for exp_al in (15 / 16, 1 / 8):
            _, _, blocks, qp, qm = desk_instance(h=0.2, N=3, exp_al=exp_al)
            _, rep = solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-7)
            iters[exp_al] = rep.iterations
        assert iters[1 / 8] < iters[15 / 16]

    def test_mesh_independence_of_block_spatial(self):
        # iterations vary by at most 2x across two uniform refinements
        spec = GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))
        mesh = build_mesh(spec, 0.2)
        basis = build_basis(3)
        coup = coupling_matrices(basis, quadrature_for_order(3))
        a = -np.log(0.25) / spec.layer_depth
        src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
        counts = []
        for _ in range(3):
            coeffs = extend_coefficients(mesh, 10.1, 10.0, src, a=a)
            blocks = build_operator(mesh, basis, coup, coeffs)
            qp, qm = project_source(mesh, basis, src, isotropic=True)
            _, rep = solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-7)
            counts.append(rep.iterations)
            mesh = uniform_refine(mesh)
        print(f"\nblock_spatial iterations across refinements: {counts}")
        assert max(counts) <= 2 * min(counts)

    def test_stability_constant_growth(self):
        # triple norm of the solution over the source norm stays within the
        # at-most-linear growth in 1/gamma across gamma in {0.1, 1, 10}
        spec = GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))
        mesh = build_mesh(spec, 0.2)
        basis = build_basis(3)
        coup = coupling_matrices(basis, quadrature_for_order(3))
        src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
        ratios = {}
        for gamma in (0.1, 1.0, 10.0):
            coeffs = extend_coefficients(mesh, gamma, 0.0, src, a=gamma)
            blocks = build_operator(mesh, basis, coup, coeffs)
            qp, qm = project_source(mesh, basis, src, isotropic=True)
            fld, _ = solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-9)
            # ||q||_{L2(D x S)} for the isotropic source
            cent = mesh.centroids
            q_tri = src(cent)
            qnorm = np.sqrt(4 * np.pi * np.sum(mesh.areas * q_tri**2 * (coeffs.source > 0)))
            ratios[gamma] = np.sqrt(triple_norm2(blocks, fld)) / qnorm
        print(f"\nstability ratios by gamma: {ratios}")
        assert all(np.isfinite(v) for v in ratios.values())
        # linear growth in 1/gamma with a factor-2 envelope
        assert ratios[0.1] <= 2 * 10 * ratios[1.0]
        assert ratios[1.0] <= 2 * 10 * ratios[10.0]


class TestZParityClasses:
    @pytest.mark.parametrize("kind", [JACOBI, BLOCK_SPATIAL])
    def test_matches_full_operator_solve(self, kind, monkeypatch):
        _, basis, blocks, qp, qm = desk_instance(h=0.2, N=5)
        op = SchurOperator(blocks)
        x, rep_full = pcg_solve(op, schur_rhs(blocks, qp, qm),
                                preconditioner=build_preconditioner(blocks, kind), tol=1e-7)
        u_full = x.reshape(blocks.mesh.n_vertices, basis.n_plus)
        v_full = recover_odd(blocks, qm, u_full)

        import pnpml.solver
        built = []
        real_build = pnpml.solver.build_preconditioner

        def recording_build(b, k):
            built.append(b.basis.n_plus)
            return real_build(b, k)

        monkeypatch.setattr(pnpml.solver, "build_preconditioner", recording_build)
        fld, rep = solve_system(blocks, qp, qm, precond=kind, tol=1e-7)

        # the isotropic load only reaches the z-even class
        assert built == [basis.z_even().n_plus]
        assert rep.iterations == rep_full.iterations
        assert (rep.dofs_even, rep.dofs_odd) == (blocks.n_even, blocks.n_odd)
        even, odd = basis.positions(basis.z_odd())
        assert np.all(fld.even[:, even] == 0.0) and np.all(fld.odd[:, odd] == 0.0)
        assert np.linalg.norm(fld.even - u_full) <= 1e-12 * np.linalg.norm(u_full)
        assert np.linalg.norm(fld.odd - v_full) <= 1e-12 * np.linalg.norm(v_full)

    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("angular", ["z_odd_only", "both_classes"])
    def test_anisotropic_load_matches_dense_block_solve(self, N, angular):
        mesh, basis, blocks, _, _ = small_instance(N)
        offset = 0.0 if angular == "z_odd_only" else 1.0

        def q(r, s):
            return (1.0 + r[0]) * (offset + s[2] + s[0] * s[2])

        qp, qm = project_source(mesh, basis, q, isotropic=False)
        m_e, r_e, b_e, c_e = explicit_matrices(blocks)
        n_even, n_odd = blocks.n_even, blocks.n_odd
        full = np.zeros((n_even + n_odd, n_even + n_odd))
        full[:n_even, :n_even] = (m_e + r_e).toarray()
        full[:n_even, n_even:] = -b_e.T.toarray()
        full[n_even:, :n_even] = b_e.toarray()
        full[n_even:, n_even:] = c_e.toarray()
        dense = np.linalg.solve(full, np.concatenate([qp.ravel(), qm.ravel()]))

        fld, rep = solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-13)
        approx = np.concatenate([fld.even.ravel(), fld.odd.ravel()])
        assert np.max(np.abs(approx - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))
        assert rep.converged and rep.final_residual <= 1e-13

    def test_failed_class_report_keeps_the_solved_class(self, monkeypatch):
        mesh, basis, blocks, _, _ = small_instance(3)
        q = lambda r, s: (1.0 + r[0]) * (1.0 + s[2] + s[0] * s[2])
        qp, qm = project_source(mesh, basis, q, isotropic=False)

        import pnpml.solver
        real_pcg = pnpml.solver.pcg_solve
        solved = []

        def second_class_fails(*args, **kwargs):
            if solved:
                kwargs["max_iter"] = 3
            x, part = real_pcg(*args, **kwargs)
            solved.append(part)
            return x, part

        monkeypatch.setattr(pnpml.solver, "pcg_solve", second_class_fails)
        with pytest.raises(ConvergenceError) as err:
            solve_system(blocks, qp, qm, tol=1e-12, params={"case": "z-odd fails"})
        report, first = err.value.report, solved[0]
        assert len(solved) == 1 and first.converged
        assert not report.converged
        assert report.iterations == first.iterations + 3
        assert report.residual_history[:first.iterations] == first.residual_history
        assert len(report.residual_history) == first.iterations + 3
        assert (report.dofs_even, report.dofs_odd) == (blocks.n_even, blocks.n_odd)
        # the failed class's operator was built, and counted, before its PCG
        stored = {}
        for sub_basis in (basis.z_even(), basis.z_odd()):
            SchurOperator(blocks.restrict(sub_basis)).record(stored)
        assert report.parameters == {"case": "z-odd fails", **stored}

    def test_zero_load_solves_nothing(self):
        _, _, blocks, qp, qm = small_instance()
        fld, rep = solve_system(blocks, np.zeros_like(qp), np.zeros_like(qm),
                                precond=BLOCK_SPATIAL)
        assert rep.iterations == 0 and rep.residual_history == []
        assert np.all(fld.even == 0.0) and np.all(fld.odd == 0.0)

    def test_unknown_kind_rejected(self):
        _, _, blocks, qp, qm = small_instance()
        with pytest.raises(ValueError):
            solve_system(blocks, qp, qm, precond="multigrid")
