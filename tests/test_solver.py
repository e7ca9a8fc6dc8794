import numpy as np
import pytest

from pnpml.angular import build_basis, coupling_matrices, quadrature_for_order
from pnpml.assembly import (
    build_operator,
    explicit_matrices,
    project_source,
)
from pnpml.mesh import Disk, GeometrySpec, Rect, build_mesh, uniform_refine
from pnpml.pml import extend_coefficients
from pnpml.solver import (
    BLOCK_SPATIAL,
    JACOBI,
    ConvergenceError,
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


def small_instance(N=3):
    """<= 50 triangles, suitable for dense verification."""
    spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
    mesh = build_mesh(spec, 1.0)
    assert mesh.n_triangles <= 50
    basis = build_basis(N)
    coup = coupling_matrices(basis, quadrature_for_order(N))
    coeffs = extend_coefficients(mesh, 2.0, 1.0, 1.0, a=1.5)
    blocks = build_operator(mesh, basis, coup, coeffs)
    qp, qm = project_source(mesh, basis, 1.0, isotropic=True)
    return mesh, basis, blocks, qp, qm


def desk_instance(h=0.2, N=3, exp_al=0.25, mu=10.1, sig=10.0):
    spec = GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))
    mesh = build_mesh(spec, h)
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

    def test_matches_dense_oracle(self):
        _, _, blocks, _, _ = small_instance()
        m_e, r_e, b_e, c_e = explicit_matrices(blocks)
        s_dense = (m_e + r_e).toarray() + b_e.T.toarray() @ np.linalg.inv(c_e.toarray()) @ b_e.toarray()
        op = SchurOperator(blocks)
        for _ in range(10):
            x = RNG.normal(size=op.n)
            assert np.allclose(op.apply(x), s_dense @ x,
                               atol=1e-12 * np.linalg.norm(s_dense @ x, np.inf) + 1e-13)

    def test_singular_odd_block_raises(self):
        mesh, basis, blocks, qp, qm = small_instance()
        blocks.c_diag = blocks.c_diag.copy()
        blocks.c_diag[0, 0] = 0.0
        with pytest.raises(ZeroDivisionError):
            SchurOperator(blocks).apply(np.ones(blocks.n_even))


class TestPCG:
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
        assert report.parameters == {"case": "z-odd fails"}

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
