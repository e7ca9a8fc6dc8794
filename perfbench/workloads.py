"""The four benchmark workloads: inputs from a seed, one timed pass, and the
correctness check that runs after the timed region.

Each workload calls the public pnpml API through module attributes (never
names bound at import time), so a traced pass sees every call.

Seeds: seed 0 puts the Gaussian source centre at (0.75, 0), the ROADMAP case.
Any other seed draws the centre's polar angle, keeping its radius 0.75, so
every seed solves the same problem rotated about the disk centre.  The work
done and the checked quantities then stay within the mesh's anisotropy of the
seed-0 values, and the tolerances below state how far.
"""

from __future__ import annotations

import contextlib
import math
import resource
import time
import warnings

import numpy as np

import pnpml.assembly as assembly
import pnpml.cli as cli
import pnpml.mesh as mesh
import pnpml.oracle as oracle
import pnpml.pml as pml
import pnpml.solver as solver

SOURCE_RADIUS = 0.75

DISK_CONFIG = """
geometry.kind = disk
geometry.inner = 0 0 1.0
geometry.outer = 0 0 1.2
physics.mu = 10.1
physics.kernel = 10.0
physics.source = gaussian {cx!r} {cy!r} 5.0
solver.tol = 1e-7
solver.max_iter = 20000
solver.precond = block_spatial
"""

DISK_SCATTER = DISK_CONFIG + """
disc.base_h = 0.08
disc.n = 9
disc.level = 2
pml.exp_al = 0.03125
"""

LATTICE = """
geometry.kind = rect
geometry.inner = 0 0 7 7
geometry.outer = -1 -1 8 8
physics.preset = lattice
disc.base_h = 0.125
disc.n = 7
disc.level = 0
pml.exp_al = 0.03125
solver.tol = 1e-7
solver.max_iter = 20000
solver.precond = jacobi
"""

STUDY = DISK_CONFIG + """
disc.base_h = 0.08
pml.exp_al = 0.5 0.125
study.n = 5 7
study.levels = 0 1
study.ref_n = 7
study.ref_level = 1
study.ref_exp_al = 0.03125
"""

ORACLE_H = 0.16
ORACLE_ORDINATES = (4, 8)
ORACLE_TOL = 1e-8
ORACLE_DAMPING = (1 / 16, 1 / 256)

# Values computed with pnpml 0.1.0 at seed 0; each check below compares with
# them.  REL_SEED0 applies at seed 0.  REL_ROTATED applies at every other
# seed, where the same problem is rotated and only the mesh (6-fold) and
# ordinate (8 azimuths) anisotropy differ.  Largest deviations measured over
# all rotations: mean integral 5.1e-5, trace norms 7.6% (at 90 degrees),
# e_h 4.8% (at 30 degrees); each tolerance is about twice that.
REFERENCE = {
    "disk-scatter": {"mean_integral": 17.421655868479903},
    "lattice-jacobi": {"mean_integral": 35.98543262437512},
    "oracle-reflect": {"trace_norms": [0.02322570103256995, 0.0010366770857015094]},
    "study-desk": {"e_h": [0.5440274766633599, 0.550655976493914, 0.15064462456309693,
                           0.1471218341283337, 0.5411233740544695, 0.5445600398403069,
                           0.08740516969831962, 0.05556577857649865, 0.0]},
}
REL_SEED0 = {"mean_integral": 1e-6, "trace_norms": 1e-6, "e_h": 1e-4}
REL_ROTATED = {"mean_integral": 1e-4, "trace_norms": 0.15, "e_h": 0.1}
EXPECTED_GAMMA_WARNING = "collision coercivity gamma <= 0"


def source_centre(seed: int) -> tuple[float, float]:
    if seed == 0:
        return SOURCE_RADIUS, 0.0
    theta = 2.0 * math.pi * np.random.default_rng(seed).random()
    return SOURCE_RADIUS * math.cos(theta), SOURCE_RADIUS * math.sin(theta)


def inputs(workload: str, seed: int) -> dict:
    """Everything a pass needs, derived from the seed only."""
    if workload == "lattice-jacobi":
        return {"config": LATTICE, "source": "fixed by the lattice preset (seed unused)"}
    cx, cy = source_centre(seed)
    text = {"disk-scatter": DISK_SCATTER, "study-desk": STUDY,
            "oracle-reflect": ""}[workload]
    return {"config": text.format(cx=cx, cy=cy), "centre": (cx, cy),
            "source": f"gaussian centre ({cx:.6f}, {cy:.6f}), decay 5"}


class Clock:
    """Wall and CPU marks of one pass; ``phase`` opens a traced span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def cpu(self) -> float:
        return time.process_time() - self.c0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- passes ------------------------------------------------------------------

def pn_pass(inp: dict, clock: Clock) -> dict:
    """One ``pnpml.cli.run_case`` solve of the configured problem.  solve_s
    is the PCG time the program reports; setup_s is the rest of the call."""
    cfg = cli.RunConfig.parse(inp["config"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        case = cli.run_case(cfg)
    total = clock.elapsed()
    report = case.report
    return {
        "setup_s": total - report.wall_time, "solve_s": report.wall_time,
        "total_s": total, "iterations": report.iterations,
        "counts": {"iterations": report.iterations, "dofs_even": report.dofs_even,
                   "dofs_odd": report.dofs_odd},
        "warnings": [str(w.message) for w in caught],
        "_check": (cfg, case),
    }


def pn_check_inputs(result: dict) -> tuple:
    """Operator, load, field, basis and tolerance of a finished PN pass; the
    load is projected again here, outside the timed region."""
    cfg, case = result["_check"]
    _, _, source = cli.physics_from_config(cfg)
    q_plus, q_minus = assembly.project_source(case.mesh, case.basis, source, isotropic=True)
    return (case.blocks, q_plus, q_minus, case.field, case.basis,
            cfg.get_float("solver.tol"))


def oracle_setup(src) -> dict:
    """Mesh, ordinates and extended coefficients; the sweep operator itself
    is built inside ``source_iteration``."""
    spec = mesh.GeometrySpec(inner=mesh.Disk(0, 0, 1.0), outer=mesh.Disk(0, 0, 1.2))
    ell = spec.layer_depth
    grid = mesh.build_mesh(spec, ORACLE_H)
    absorptions = [-math.log(t) / ell for t in ORACLE_DAMPING]
    return {"grid": grid, "ell": ell, "absorptions": absorptions,
            "ords": oracle.build_ordinates(*ORACLE_ORDINATES),
            "coeffs": [pml.extend_coefficients(grid, 2.0, 0.6, src, a=a) for a in absorptions]}


def oracle_pass(inp: dict, clock: Clock) -> dict:
    """Criterion 7: reflective source iteration at two layer absorptions."""
    cx, cy = inp["centre"]
    src = lambda p: np.exp(-5.0 * ((p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2))
    with clock.phase("setup"):
        st = oracle_setup(src)
    setup = clock.elapsed()
    sweeps = [0]

    def monitor(it, _field):
        sweeps[0] += 1

    with clock.phase("solve"):
        fields = [oracle.source_iteration(st["grid"], c, st["ords"], oracle.REFLECT,
                                          tol=ORACLE_TOL, q=src, monitor=monitor)
                  for c in st["coeffs"]]
    total = clock.elapsed()
    norms = [oracle.boundary_trace_norm(f) for f in fields]
    return {
        "setup_s": setup, "solve_s": total - setup, "total_s": total,
        "iterations": sweeps[0],
        "counts": {"iterations": sweeps[0], "triangles": st["grid"].n_triangles,
                   "directions": st["ords"].n_dirs},
        "warnings": [],
        "_check": (norms, st["absorptions"], st["ell"]),
    }


def study_pass(inp: dict, clock: Clock) -> dict:
    """The Table-1 workflow: ``convergence_study`` at one thread."""
    cfg = cli.RunConfig.parse(inp["config"])
    with clock.phase("study"):
        rows, csv_text = cli.convergence_study(cfg, threads=1)
    total = clock.elapsed()
    solve = sum(r["seconds"] for r in rows)
    iters = sum(r["iters"] for r in rows)
    return {
        "setup_s": total - solve, "solve_s": solve, "total_s": total,
        "iterations": iters,
        "counts": {"iterations": iters, "cases": len(rows),
                   "dofs_even": sum(r["dofs_even"] for r in rows)},
        "warnings": [],
        "_check": (rows, csv_text),
    }


PASSES = {"disk-scatter": pn_pass, "lattice-jacobi": pn_pass,
          "oracle-reflect": oracle_pass, "study-desk": study_pass}


# -- checks (outside the timed region) ----------------------------------------

def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _tolerance(key: str, seed: int, workload: str) -> float:
    rotated = seed != 0 and workload != "lattice-jacobi"
    return (REL_ROTATED if rotated else REL_SEED0)[key]


def mean_integral(fld, basis, grid) -> float:
    """Integral of the angular mean over the inner region."""
    interior = np.flatnonzero(grid.tags == mesh.INTERIOR)
    mean = cli.angular_mean(fld, basis)
    return float(np.sum(assembly.p1_mass(grid, triangles=interior) @ mean))


def check_pn(blocks, q_plus, q_minus, fld, basis, tol, ref_integral, rel_tol) -> tuple[list, dict]:
    """True residual of S x = rhs, Galerkin residuals of the recovered pair,
    and the angular-mean integral against its reference."""
    fails = []
    rhs = solver.schur_rhs(blocks, q_plus, q_minus)
    res = rhs - solver.SchurOperator(blocks).apply(fld.even.ravel())
    rel_res = float(np.linalg.norm(res) / np.linalg.norm(rhs))
    if not rel_res <= tol:
        fails.append(f"true relative residual {rel_res:.3e} > tol {tol:g}")
    r1, r2 = solver.galerkin_residuals(blocks, fld, q_plus, q_minus)
    scale1 = float(np.linalg.norm(q_plus))
    scale2 = float(np.linalg.norm(blocks.apply_transport(fld.even))) + float(np.linalg.norm(q_minus))
    if not r1 <= 1.01 * tol * scale1:
        fails.append(f"even Galerkin residual {r1 / scale1:.3e} (relative) > {tol:g}")
    if not r2 <= 1e-10 * scale2:
        fails.append(f"odd Galerkin residual {r2 / scale2:.3e} (relative) > 1e-10")
    integral = mean_integral(fld, basis, blocks.mesh)
    if ref_integral is not None and not _rel(integral, ref_integral) <= rel_tol:
        fails.append(f"angular-mean integral {integral:.12g} differs from "
                     f"{ref_integral:.12g} by more than {rel_tol:g} (relative)")
    return fails, {"rel_residual": rel_res, "mean_integral": integral}


def check_oracle(norms, absorptions, ell, ref_norms, rel_tol) -> tuple[list, dict]:
    """Criterion 7 decay depth, and the boundary-trace norms."""
    fails = []
    a1, a2 = absorptions
    fitted = math.log(norms[0] / norms[1]) / (a2 - a1) if norms[1] > 0 else math.inf
    if not abs(fitted - ell) <= 0.25 * ell:
        fails.append(f"fitted decay depth {fitted:.4f} not within 25% of {ell:.4f}")
    for k, (got, ref) in enumerate(zip(norms, ref_norms)):
        if ref is not None and not _rel(got, ref) <= rel_tol:
            fails.append(f"boundary-trace norm {k} = {got:.12g} differs from "
                         f"{ref:.12g} by more than {rel_tol:g} (relative)")
    return fails, {"fitted_depth": fitted, "trace_norms": list(norms)}


def check_study(rows, csv_text, ref_e_h, rel_tol) -> tuple[list, dict]:
    """CSV header, the criterion-5 iteration shape, and e_h per row."""
    fails = []
    header = csv_text.splitlines()[0] if csv_text else ""
    if header != cli.CSV_HEADER:
        fails.append(f"CSV header {header!r} != {cli.CSV_HEADER!r}")
    by_case: dict = {}
    for r in rows[:-1]:  # the last row is the reference solve
        by_case.setdefault((r["N"], round(r["h"], 9)), []).append((r["exp_al"], r["iters"]))
    for key, runs in sorted(by_case.items()):
        iters = [it for _, it in sorted(runs, reverse=True)]  # weakest damping first
        if any(b > a for a, b in zip(iters, iters[1:])):
            fails.append(f"iterations rise with damping at (N, h) = {key}: {iters}")
    e_h = [r["e_h"] for r in rows]
    if ref_e_h is not None:
        if len(ref_e_h) != len(e_h):
            fails.append(f"{len(e_h)} study rows, expected {len(ref_e_h)}")
        for k, (got, ref) in enumerate(zip(e_h, ref_e_h)):
            ok = got == 0.0 if ref == 0.0 else _rel(got, ref) <= rel_tol
            if not ok:
                fails.append(f"e_h of row {k} = {got:.10e} differs from "
                             f"{ref:.10e} by more than {rel_tol:g} (relative)")
    return fails, {"e_h": e_h}


def check(workload: str, seed: int, result: dict) -> tuple[list, dict]:
    """Run the workload's correctness check on a finished pass."""
    ref = REFERENCE[workload]
    if workload in ("disk-scatter", "lattice-jacobi"):
        blocks, q_plus, q_minus, fld, basis, tol = pn_check_inputs(result)
        fails, values = check_pn(blocks, q_plus, q_minus, fld, basis, tol,
                                 ref["mean_integral"],
                                 _tolerance("mean_integral", seed, workload))
        unexpected = [w for w in result["warnings"]
                      if not (workload == "lattice-jacobi"
                              and w.startswith(EXPECTED_GAMMA_WARNING))]
        fails += [f"unexpected warning: {w}" for w in unexpected]
        return fails, values
    if workload == "oracle-reflect":
        norms, absorptions, ell = result["_check"]
        return check_oracle(norms, absorptions, ell, ref["trace_norms"],
                            _tolerance("trace_norms", seed, workload))
    rows, csv_text = result["_check"]
    return check_study(rows, csv_text, ref["e_h"], _tolerance("e_h", seed, workload))
