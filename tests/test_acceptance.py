"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured numbers they rest on.
"""

import numpy as np
import pytest

from pnpml.angular import build_basis, coupling_matrices, quadrature_for_order
from pnpml.assembly import build_operator, explicit_matrices, project_source
from pnpml.cli import RunConfig, angular_mean, convergence_study
from pnpml.mesh import (
    Disk,
    GeometrySpec,
    Rect,
    build_mesh,
    ray_exit_distance,
    submesh_interior,
    uniform_refine,
)
from pnpml.oracle import (
    REFLECT,
    VACUUM,
    SweepOperator,
    boundary_trace_norm,
    build_ordinates,
    ordinate_mean,
    source_iteration,
)
from pnpml.pml import extend_coefficients
from pnpml.solver import BLOCK_SPATIAL, SchurOperator, solve_system

RNG = np.random.default_rng(12345)


def _line(num: int, ok: bool, msg: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {num} failed: {msg}"


# --------------------------------------------------------------------------
# criterion 1: mode counts (exact)

def test_criterion_1_mode_counts():
    b11 = build_basis(11)
    b31 = build_basis(31)
    ok = (b11.n_plus == 66 and b11.n_minus == 78
          and b31.n_plus + b31.n_minus == 1024)
    _line(1, ok, f"n_plus(11)={b11.n_plus}, n_minus(11)={b11.n_minus}, "
                 f"total(31)={b31.n_plus + b31.n_minus}")


# --------------------------------------------------------------------------
# criterion 2: parity compatibility, projection residual <= 1e-10

def test_criterion_2_compatibility():
    worst = 0.0
    for N in (1, 3, 5, 7):
        basis = build_basis(N)
        quad = quadrature_for_order(N)
        coup = coupling_matrices(basis, quad)
        even_tab = basis.evaluate_even(quad.nodes)
        odd_tab = basis.evaluate_odd(quad.nodes)
        for i in range(3):
            f = quad.nodes[:, i][:, None] * even_tab
            proj = odd_tab @ coup.component(i).toarray()
            resid2 = quad.integrate((f - proj) ** 2)
            worst = max(worst, float(np.max(resid2)))
    _line(2, worst <= 1e-10, f"max squared projection residual {worst:.3e}")


# --------------------------------------------------------------------------
# criterion 3: small-instance dense oracle equivalence

def test_criterion_3_small_instance_oracle():
    spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
    mesh = build_mesh(spec, 1.0)
    assert mesh.n_triangles <= 50
    basis = build_basis(3)
    coup = coupling_matrices(basis, quadrature_for_order(3))
    coeffs = extend_coefficients(mesh, 2.0, 1.0, 1.0, a=1.5)
    blocks = build_operator(mesh, basis, coup, coeffs)
    qp, qm = project_source(mesh, basis, 1.0, isotropic=True)

    m_e, r_e, b_e, c_e = explicit_matrices(blocks)
    s_dense = ((m_e + r_e).toarray()
               + b_e.T.toarray() @ np.linalg.inv(c_e.toarray()) @ b_e.toarray())
    op = SchurOperator(blocks)
    apply_err = 0.0
    for _ in range(20):
        x = RNG.normal(size=op.n)
        ref = s_dense @ x
        apply_err = max(apply_err,
                        float(np.max(np.abs(op.apply(x) - ref)))
                        / max(1.0, float(np.max(np.abs(ref)))))

    n_even, n_odd = blocks.n_even, blocks.n_odd
    full = np.zeros((n_even + n_odd, n_even + n_odd))
    full[:n_even, :n_even] = (m_e + r_e).toarray()
    full[:n_even, n_even:] = -b_e.T.toarray()
    full[n_even:, :n_even] = b_e.toarray()
    full[n_even:, n_even:] = c_e.toarray()
    dense = np.linalg.solve(full, np.concatenate([qp.ravel(), qm.ravel()]))
    fld, _ = solve_system(blocks, qp, qm, tol=1e-13)
    mine = np.concatenate([fld.even.ravel(), fld.odd.ravel()])
    solve_err = float(np.max(np.abs(mine - dense))) / max(1.0, float(np.max(np.abs(dense))))

    ok = apply_err <= 1e-12 and solve_err <= 1e-10
    _line(3, ok, f"schur apply error {apply_err:.3e} (tol 1e-12), "
                 f"eliminated solve error {solve_err:.3e} (tol 1e-10)")


# --------------------------------------------------------------------------
# criteria 4 and 5 share the desk-scale damping study of the constant
# coefficient disk problem: N in {5, 7}, h in {0.08, 0.04}, reference at
# N=9, h=0.02, exp(-a l) = 1/32

STUDY_CONFIG = """
geometry.kind = disk
geometry.inner = 0 0 1.0
geometry.outer = 0 0 1.2
physics.mu = 10.1
physics.kernel = 10.0
physics.source = gaussian 0.75 0 5.0
disc.base_h = 0.08
pml.exp_al = 0.9375 0.5 0.25 0.125
study.n = 5 7
study.levels = 0 1
study.ref_n = 9
study.ref_level = 2
study.ref_exp_al = 0.03125
solver.tol = 1e-7
solver.max_iter = 20000
solver.precond = block_spatial
"""

SWEEP_ALS = [15 / 16, 1 / 2, 1 / 4, 1 / 8]


@pytest.fixture(scope="module")
def desk_study():
    rows, _ = convergence_study(RunConfig.parse(STUDY_CONFIG))
    table = {}
    for r in rows:
        if r["N"] == 9:
            continue
        table.setdefault((r["N"], round(r["h"], 6)), {})[round(r["exp_al"], 6)] = r
    return table


def test_criterion_4_pml_decay_trend(desk_study):
    # Table-1 shape: the error decays with the damping target until the
    # discretization error saturates it.  Past saturation only a small plateau
    # variation is allowed (the curved-boundary second-order effect is
    # recorded, not asserted).  The pre-saturation decay must be at least
    # first order in exp(-a*l), with a factor-2 slack.
    details = []
    ok = True
    for (n, h), by_al in sorted(desk_study.items()):
        errs = [by_al[round(t, 6)]["e_h"] for t in SWEEP_ALS]
        details.append(f"(N={n}, h={h}): " + ", ".join(f"{e:.4f}" for e in errs))
        k_star = 0
        for k in range(1, len(errs)):
            if errs[k] <= 0.97 * errs[k - 1]:
                k_star = k
            else:
                break
        ok &= k_star >= 1                      # a genuine decay step exists
        ok &= errs[-1] < errs[0]               # net decrease over the sweep
        plateau = max(abs(e - errs[k_star]) for e in errs[k_star:])
        ok &= plateau <= 0.05 * errs[k_star]   # saturation, not growth
        ratio = errs[k_star] / errs[0]
        bound = 2.0 * SWEEP_ALS[k_star] / SWEEP_ALS[0]
        ok &= ratio <= bound
        details[-1] += (f" | decay-to-saturation ratio {ratio:.3f} <= {bound:.3f},"
                        f" plateau variation {plateau / errs[k_star]:.3%}")
    _line(4, ok, "; ".join(details))


def test_mesh_refinement_reduces_error(desk_study):
    # companion check on the same sweep: at fixed damping and order, the
    # error drops under mesh refinement
    for n in (5, 7):
        for t in SWEEP_ALS:
            coarse = desk_study[(n, 0.08)][round(t, 6)]["e_h"]
            fine = desk_study[(n, 0.04)][round(t, 6)]["e_h"]
            assert fine < coarse


def test_criterion_5_iteration_trend(desk_study):
    details = []
    ok = True
    for (n, h), by_al in sorted(desk_study.items()):
        its = [by_al[round(t, 6)]["iters"] for t in SWEEP_ALS]
        ok &= its[-1] < its[0]                       # strictly fewer at 1/8
        ok &= all(i1 <= i0 for i0, i1 in zip(its[:-1], its[1:]))
        details.append(f"(N={n}, h={h}): iters " + " -> ".join(map(str, its)))
    _line(5, ok, "; ".join(details))


# --------------------------------------------------------------------------
# criterion 6 and the scattering-regime check compare the P_N angular mean
# with the ordinate oracle on one set-up: a disk in a disk, a Gaussian source
# at (0.75, 0), the oracle on the inner part of the h = 0.08 base mesh with
# 8 x 16 ordinates, and P_N solves with exp(-a l) = 1/32 along a path of
# (N, level), each read at the base inner centroids

CROSS_SPEC = GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))


def _cross_src(p):
    return np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))


def _cross_oracle_setup():
    """The base mesh, its inner submesh, the submesh-to-base triangle map
    and the oracle's ordinates."""
    base = build_mesh(CROSS_SPEC, 0.08)
    sub, _, tri_map = submesh_interior(base)
    return base, sub, tri_map, build_ordinates(8, 16)


def _pn_discrepancies(base, sub, tri_map, oracle_mean, mu, sig0, path):
    """Relative L2 discrepancy over the inner base triangles between
    ``oracle_mean`` and the P_N angular mean, for each (N, level) of
    ``path``."""
    areas = sub.areas
    a = -np.log(1 / 32) / CROSS_SPEC.layer_depth
    bases = {}
    discrepancies = []
    meshes = [base]
    for n, level in path:
        while len(meshes) <= level:
            meshes.append(uniform_refine(meshes[-1]))
        mesh = meshes[level]
        if n not in bases:
            basis = build_basis(n)
            bases[n] = basis, coupling_matrices(basis, quadrature_for_order(n))
        basis, coup = bases[n]
        coeffs = extend_coefficients(mesh, mu, sig0, _cross_src, a=a)
        blocks = build_operator(mesh, basis, coup, coeffs)
        qp, qm = project_source(mesh, basis, _cross_src, isotropic=True)
        fld, _ = solve_system(blocks, qp, qm, precond=BLOCK_SPATIAL, tol=1e-9)
        mean_vertex = angular_mean(fld, basis)
        # value at each base interior centroid: follow the central child chain
        tri_idx = tri_map.copy()
        for _ in range(level):
            tri_idx = 4 * tri_idx + 3
        pn_mean = mean_vertex[mesh.triangles[tri_idx]].mean(axis=1)
        rel = np.sqrt(np.sum(areas * (pn_mean - oracle_mean) ** 2)
                      / np.sum(areas * oracle_mean**2))
        discrepancies.append(rel)
    return discrepancies


# --------------------------------------------------------------------------
# criterion 6: pure-absorption cross-validation against the characteristics
# oracle; relative L2 mean discrepancy decreases over (h, N) and ends < 5%

def test_criterion_6_pure_absorption_cross_validation():
    mu = 2.0
    base, sub, tri_map, ords = _cross_oracle_setup()

    # ordinate-averaged characteristics reference at the base interior
    # centroids: a single vacuum sweep of the purely absorbing problem
    sub_coeffs = extend_coefficients(sub, mu, 0.0, _cross_src, a=0.0)
    sweep = SweepOperator(sub, sub_coeffs.mu, ords, q_analytic=_cross_src)
    tri_vals, _ = sweep.apply(np.zeros(sub.n_triangles),
                              np.zeros((sub.boundary_edges.shape[0], ords.n_dirs)))
    oracle_mean = tri_vals @ ords.weights

    discrepancies = _pn_discrepancies(base, sub, tri_map, oracle_mean, mu, 0.0,
                                      ((5, 0), (7, 1), (9, 2)))
    ok = (all(d1 < d0 for d0, d1 in zip(discrepancies[:-1], discrepancies[1:]))
          and discrepancies[-1] < 0.05)
    _line(6, ok, "relative mean discrepancies "
          + " -> ".join(f"{d:.4f}" for d in discrepancies) + " (< 0.05 at finest)")


# --------------------------------------------------------------------------
# the paper's scattering regime: the same cross-validation at mu = 2,
# sigma = 1 against the vacuum source iteration

def test_scattering_regime_cross_validation():
    mu, sig0 = 2.0, 1.0
    base, sub, tri_map, ords = _cross_oracle_setup()
    field = source_iteration(sub, extend_coefficients(sub, mu, sig0, _cross_src, a=0.0),
                             ords, VACUUM, tol=1e-8, q=_cross_src)
    discrepancies = _pn_discrepancies(base, sub, tri_map, ordinate_mean(field), mu, sig0,
                                      ((3, 0), (5, 0), (5, 1), (7, 1), (9, 2)))
    text = " -> ".join(f"{d:.4f}" for d in discrepancies)
    print(f"\nscattering regime (mu = {mu}, sigma = {sig0}): relative mean discrepancies {text}")
    # measured 0.1082 -> 0.0898 -> 0.0394 -> 0.0350 -> 0.0130; the bound
    # leaves about 1.5 times the last value
    assert all(d1 < d0 for d0, d1 in zip(discrepancies[:-1], discrepancies[1:])), text
    assert discrepancies[-1] < 0.02, text


# --------------------------------------------------------------------------
# criterion 7: reflection-problem invariants of the ordinate oracle

def test_criterion_7_reflection_invariants():
    spec = GeometrySpec(inner=Disk(0, 0, 1.0), outer=Disk(0, 0, 1.2))
    ell = spec.layer_depth
    mesh = build_mesh(spec, 0.25)
    ords = build_ordinates(4, 8)
    src = lambda p: np.exp(-5 * np.sum((p - [0.75, 0]) ** 2, axis=1))
    tol = 1e-8

    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                  + mesh.vertices[mesh.boundary_edges[:, 1]])
    missing = np.zeros((mids.shape[0], ords.n_dirs), dtype=bool)
    for b, rm in enumerate(mids):
        for d, s in enumerate(ords.directions):
            missing[b, d] = (np.isinf(ray_exit_distance(spec, rm, s))
                             and np.isinf(ray_exit_distance(spec, rm, -s)))
    assert missing.any()

    a1 = -np.log(1 / 16) / ell
    norms = {}
    untouched = None
    for a in (a1, 2 * a1):
        coeffs = extend_coefficients(mesh, 2.0, 0.6, src, a=a)
        field = source_iteration(mesh, coeffs, ords, REFLECT, tol=tol, q=src)
        norms[a] = boundary_trace_norm(field)
        if untouched is None:
            untouched = float(np.max(np.abs(field.boundary_values[missing])))

    fitted = float(np.log(norms[a1] / norms[2 * a1]) / a1)
    ok = untouched <= tol and abs(fitted - ell) <= 0.25 * ell
    _line(7, ok, f"untouched-line values {untouched:.2e} <= tol {tol:g}; "
                 f"fitted decay depth {fitted:.4f} vs layer depth {ell} (25% band)")


# --------------------------------------------------------------------------
# criterion 8: determinism of repeated studies

DETERMINISM_CONFIG = """
geometry.kind = disk
geometry.inner = 0 0 1.0
geometry.outer = 0 0 1.2
physics.mu = 10.1
physics.kernel = 10.0
physics.source = gaussian 0.75 0 5.0
disc.base_h = 0.2
pml.exp_al = 0.5 0.125
study.n = 3
study.levels = 0
study.ref_n = 5
study.ref_level = 1
study.ref_exp_al = 0.03125
solver.tol = 1e-7
solver.precond = block_spatial
"""


def test_criterion_8_determinism():
    cfg = RunConfig.parse(DETERMINISM_CONFIG)
    rows1, _ = convergence_study(cfg)
    rows2, _ = convergence_study(cfg)
    same = all(r1["e_h"] == r2["e_h"] and r1["iters"] == r2["iters"]
               and r1["dofs_even"] == r2["dofs_even"]
               for r1, r2 in zip(rows1, rows2))
    _line(8, same, "e_h and iteration columns bit-identical across reruns")
