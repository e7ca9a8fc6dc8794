"""Configuration-driven experiment runner.

Configs are flat ``section.key = value`` text files.  Subcommands:

  solve <config>    single end-to-end solve, report appended to the run log
  study <config>    damping/discretization sweep against a nested reference,
                    written as CSV
  export <config>   solve and write the per-vertex angular mean (CSV or VTK)

Exit codes: 0 success, 2 configuration error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import resource
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pnpml.angular import AngularBasis, build_basis, coupling_matrices, quadrature_for_order
from pnpml.assembly import (
    BlockOperator,
    Field,
    build_operator,
    even_l2_norm2,
    odd_l2_norm2,
    project_source,
    transport_seminorm2,
)
from pnpml.mesh import (
    Disk,
    GeometryError,
    GeometrySpec,
    Mesh2D,
    Rect,
    _check_size,
    build_mesh,
    p0_prolong,
    p1_prolong,
    uniform_refine,
)
from pnpml.pml import ModelError, extend_coefficients
from pnpml.solver import (
    BLOCK_SPATIAL,
    PRECONDITIONERS,
    ConvergenceError,
    NumericalError,
    SolveReport,
    solve_system,
)

__all__ = [
    "RunConfig",
    "ConfigError",
    "CaseResult",
    "run_case",
    "convergence_study",
    "export_field",
    "main",
    "CSV_HEADER",
]

CSV_HEADER = "N,h,exp_al,e_h,iters,seconds,dofs_even,dofs_odd"

# export format (output.field_format) -> suffix of the written file
_EXPORT_SUFFIX = {"csv": "csv", "vtk": "vtk", "vtk_legacy": "vtk"}

# standard 7x7 shielding lattice: absorbing cells in a checkerboard around the
# central source cell, symmetric left-right, open directly above the source
_LATTICE_ABSORBERS = [(1, 1), (3, 1), (5, 1), (2, 2), (4, 2), (1, 3), (5, 3),
                      (2, 4), (4, 4), (1, 5), (5, 5)]


# every key a run reads; any other key is a typo and fails the run
CONFIG_KEYS = frozenset({
    "geometry.kind", "geometry.inner", "geometry.outer",
    "physics.preset", "physics.mu", "physics.kernel", "physics.source",
    "disc.base_h", "disc.n", "disc.level", "pml.exp_al",
    "study.n", "study.levels", "study.ref_n", "study.ref_level", "study.ref_exp_al",
    "solver.tol", "solver.max_iter", "solver.precond",
    "output.dir", "output.field_format",
})


class ConfigError(ValueError):
    """Invalid or missing configuration data."""


def _finite(key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    if not np.isfinite(val):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return val


@dataclass
class RunConfig:
    """Flat dotted-key configuration."""

    data: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        data = {}
        for ln_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {ln_no}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            data[key.strip().lower()] = value.strip()
        return cls(data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            return cls.parse(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def check_keys(self) -> None:
        """Raise ConfigError on any key outside CONFIG_KEYS."""
        unknown = sorted(set(self.data) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                              f"expected keys among {', '.join(sorted(CONFIG_KEYS))}")

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.data.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.data:
            raise ConfigError(f"missing required config key {key!r}")
        return self.data[key]

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        return _finite(key, raw)

    def get_int(self, key: str, default: int | None = None) -> int:
        val = self.get_float(key, default=None if default is None else float(default))
        if val != int(val):
            raise ConfigError(f"{key}: expected an integer, got {val}")
        return int(val)

    def get_floats(self, key: str, default: list[float] | None = None) -> list[float]:
        raw = self.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return list(default)
        tokens = raw.split()
        if not tokens:
            raise ConfigError(f"{key}: expected at least one number, got an empty list")
        return [_finite(key, tok) for tok in tokens]

    def get_ints(self, key: str, default: list[int] | None = None) -> list[int]:
        vals = self.get_floats(key, None if default is None else [float(v) for v in default])
        if any(v != int(v) for v in vals):
            raise ConfigError(f"{key}: expected integers")
        return [int(v) for v in vals]


def _check_exp_al(value: float) -> float:
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"pml damping target exp(-a*l) must lie in (0, 1], got {value}")
    return value


def geometry_from_config(cfg: RunConfig) -> GeometrySpec:
    kind = cfg.require("geometry.kind").lower()
    inner = cfg.get_floats("geometry.inner")
    outer = cfg.get_floats("geometry.outer")
    try:
        if kind == "disk":
            if len(inner) != 3 or len(outer) != 3:
                raise ConfigError("disk geometry needs 'cx cy radius'")
            return GeometrySpec(inner=Disk(*inner), outer=Disk(*outer))
        if kind in ("rect", "rectangle"):
            if len(inner) != 4 or len(outer) != 4:
                raise ConfigError("rectangle geometry needs 'x0 y0 x1 y1'")
            return GeometrySpec(inner=Rect(*inner), outer=Rect(*outer))
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown geometry kind {kind!r}")


def _source_from_config(cfg: RunConfig):
    kind, *rest = cfg.require("physics.source").split() or [""]
    kind = kind.lower()
    args = [_finite("physics.source", tok) for tok in rest]
    if kind == "gaussian":
        if len(args) != 3:
            raise ConfigError("gaussian source needs 'cx cy decay'")
        cx, cy, alpha = args
        return lambda p: np.exp(-alpha * ((p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2))
    if kind == "box":
        if len(args) != 4:
            raise ConfigError("box source needs 'x0 y0 x1 y1'")
        x0, y0, x1, y1 = args
        return lambda p: ((p[:, 0] >= x0) & (p[:, 0] <= x1)
                          & (p[:, 1] >= y0) & (p[:, 1] <= y1)).astype(float)
    if kind == "constant":
        if len(args) != 1:
            raise ConfigError("constant source needs one value")
        return lambda p: np.full(p.shape[0], args[0])
    raise ConfigError(f"unknown source kind {kind!r}")


def _lattice_physics():
    cells = _LATTICE_ABSORBERS

    def in_absorber(p):
        hit = np.zeros(p.shape[0], dtype=bool)
        for i, j in cells:
            hit |= ((p[:, 0] >= i) & (p[:, 0] <= i + 1)
                    & (p[:, 1] >= j) & (p[:, 1] <= j + 1))
        return hit

    mu = lambda p: np.where(in_absorber(p), 10.0, 1.0)
    kernel = lambda p: np.where(in_absorber(p), 0.0, 1.0)
    source = lambda p: ((p[:, 0] >= 3) & (p[:, 0] <= 4)
                        & (p[:, 1] >= 3) & (p[:, 1] <= 4)).astype(float)
    return mu, kernel, source


def physics_from_config(cfg: RunConfig):
    preset = cfg.get("physics.preset")
    if preset is not None:
        if preset.lower() == "lattice":
            return _lattice_physics()
        raise ConfigError(f"unknown physics preset {preset!r}")
    mu = cfg.get_float("physics.mu")
    kernel = cfg.get_floats("physics.kernel", [0.0])
    source = _source_from_config(cfg)
    return mu, kernel, source


@dataclass
class CaseResult:
    """One solve.  ``blocks`` is the full-basis operator; the solve formed
    only its restricted operators' tables, so it forms each table that a
    later reader (an error norm, a residual check) needs on first use."""

    field: Field
    report: SolveReport
    mesh: Mesh2D
    basis: AngularBasis
    blocks: BlockOperator


class _ProblemCache:
    """Everything the cases of one run share, built before any solve: the
    geometry and physics, the mesh chain ``meshes[0..max(levels)]`` and the
    basis and couplings ``angular[n]`` of every order.  Read-only after
    construction, so study threads share it without a lock."""

    def __init__(self, cfg: RunConfig, levels: list[int], orders: list[int]):
        if min(levels) < 0:
            raise ConfigError("refinement level must be nonnegative")
        self.cfg = cfg
        self.spec = geometry_from_config(cfg)
        self.mu, self.kernel, self.source = physics_from_config(cfg)
        self.ell = self.spec.layer_depth
        self.eta = self.spec.grazing_sine
        try:
            bases = {n: build_basis(n) for n in sorted(set(orders))}
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.angular = {n: (basis, coupling_matrices(basis, quadrature_for_order(n)))
                        for n, basis in bases.items()}
        try:
            self.meshes = [build_mesh(self.spec, cfg.get_float("disc.base_h"))]
            # level k holds 4**k times the base triangles: refuse before refining
            _check_size(self.meshes[0].n_triangles * 4 ** max(levels))
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc
        for _ in range(max(levels)):
            self.meshes.append(uniform_refine(self.meshes[-1]))

    def solve_case(self, n: int, level: int, exp_al: float, tol: float,
                   max_iter: int, precond_kind: str) -> CaseResult:
        basis, coup = self.angular[n]
        mesh = self.meshes[level]
        a = -np.log(exp_al) / self.ell
        coeffs = extend_coefficients(mesh, self.mu, self.kernel, self.source, a=a)
        blocks = build_operator(mesh, basis, coup, coeffs)
        q_plus, q_minus = project_source(mesh, basis, self.source, isotropic=True)
        params = {
            "n": n, "h": mesh.h, "level": level, "exp_al": exp_al,
            "a": a, "ell": self.ell, "eta": self.eta, "tol": tol,
            "precond": precond_kind, "gamma": coeffs.gamma,
            "big_gamma": coeffs.big_gamma, "n_plus": basis.n_plus,
            "n_minus": basis.n_minus, "coefficient_sampling": "centroid",
        }
        params.update({f"config.{k}": v for k, v in self.cfg.data.items()})
        fld, report = solve_system(blocks, q_plus, q_minus, precond=precond_kind,
                                   tol=tol, max_iter=max_iter, params=params)
        return CaseResult(field=fld, report=report, mesh=mesh, basis=basis,
                          blocks=blocks)


def _solver_options(cfg: RunConfig):
    tol = cfg.get_float("solver.tol", 1e-7)
    if tol <= 0:
        raise ConfigError("solver tolerance must be positive")
    max_iter = cfg.get_int("solver.max_iter", 10000)
    if max_iter < 1:
        raise ConfigError("solver iteration budget must be at least 1")
    precond = cfg.get("solver.precond", BLOCK_SPATIAL).lower()
    if precond not in PRECONDITIONERS:
        raise ConfigError(f"unknown solver.precond {precond!r}; "
                          f"expected one of {', '.join(sorted(PRECONDITIONERS))}")
    return tol, max_iter, precond


def run_case(cfg: RunConfig) -> CaseResult:
    """Single end-to-end solve of the configured problem."""
    cfg.check_keys()
    n = cfg.get_int("disc.n")
    level = cfg.get_int("disc.level", 0)
    exp_al = _check_exp_al(cfg.get_floats("pml.exp_al")[0])
    tol, max_iter, precond = _solver_options(cfg)
    cache = _ProblemCache(cfg, [level], [n])
    return cache.solve_case(n, level, exp_al, tol, max_iter, precond)


def _error_vs_reference(cache: _ProblemCache, case: CaseResult, level: int,
                        ref: CaseResult, ref_level: int) -> float:
    """e_h between a coarse case and the reference: L2 difference of both
    components plus the directional-gradient seminorm of the even part,
    restricted to the inner region, on the reference grid.  The case is
    prolonged up the cache's own mesh chain."""
    even = case.field.even
    odd = case.field.odd
    for coarse in cache.meshes[level:ref_level]:
        even = p1_prolong(coarse, even)
        odd = p0_prolong(odd)
    if even.shape[0] != ref.mesh.n_vertices:
        raise ConfigError("case and reference grids are not nested")

    even_pos, odd_pos = ref.basis.positions(case.basis)
    d_even = ref.field.even.copy()
    d_even[:, even_pos] -= even
    d_odd = ref.field.odd.copy()
    d_odd[:, odd_pos] -= odd

    err2 = (even_l2_norm2(ref.mesh, d_even, interior_only=True)
            + odd_l2_norm2(ref.mesh, d_odd, interior_only=True)
            + transport_seminorm2(ref.blocks, d_even, interior_only=True))
    return float(np.sqrt(err2))


def convergence_study(cfg: RunConfig, threads: int = 1):
    """Sweep (N, level, exp_al) against a fine nested self-reference.

    Returns (rows, csv_text); each row is a dict with the CSV fields.
    """
    cfg.check_keys()
    sweep_n = cfg.get_ints("study.n")
    levels = cfg.get_ints("study.levels")
    exp_als = [_check_exp_al(v) for v in cfg.get_floats("pml.exp_al")]
    ref_n = cfg.get_int("study.ref_n")
    ref_level = cfg.get_int("study.ref_level")
    ref_exp_al = _check_exp_al(cfg.get_float("study.ref_exp_al"))
    tol, max_iter, precond = _solver_options(cfg)
    if ref_level < max(levels):
        raise ConfigError("the reference level must be at least as fine as the sweep")
    if ref_n < max(sweep_n):
        raise ConfigError("the reference order must be at least the largest swept order")
    cache = _ProblemCache(cfg, levels + [ref_level], sweep_n + [ref_n])

    ref = cache.solve_case(ref_n, ref_level, ref_exp_al, tol, max_iter, precond)
    # the error norms read these reference tables: form them before threads share them
    ref.blocks._t_dense, ref.blocks.g_x
    cases = [(n, level, exp_al) for n in sweep_n for level in levels
             for exp_al in exp_als]

    def run_one(args):
        n, level, exp_al = args
        case = cache.solve_case(n, level, exp_al, tol, max_iter, precond)
        e_h = _error_vs_reference(cache, case, level, ref, ref_level)
        return {
            "N": n, "h": case.mesh.h, "exp_al": exp_al, "e_h": e_h,
            "iters": case.report.iterations, "seconds": case.report.wall_time,
            "dofs_even": case.report.dofs_even, "dofs_odd": case.report.dofs_odd,
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_one, cases))
    else:
        rows = [run_one(c) for c in cases]

    rows.append({
        "N": ref_n, "h": ref.mesh.h, "exp_al": ref_exp_al, "e_h": 0.0,
        "iters": ref.report.iterations, "seconds": ref.report.wall_time,
        "dofs_even": ref.report.dofs_even, "dofs_odd": ref.report.dofs_odd,
    })

    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r['N']},{r['h']:.10g},{r['exp_al']:.10g},{r['e_h']:.10e},"
                     f"{r['iters']},{r['seconds']:.3f},{r['dofs_even']},{r['dofs_odd']}")
    return rows, "\n".join(lines) + "\n"


def angular_mean(field: Field, basis: AngularBasis) -> np.ndarray:
    """Per-vertex angular average: sqrt(4 pi) times the constant moment."""
    mode0 = basis.even_indices.index((0, 0))
    return np.sqrt(4 * np.pi) * field.even[:, mode0]


def _export_suffix(fmt: str) -> str:
    suffix = _EXPORT_SUFFIX.get(fmt.lower())
    if suffix is None:
        raise ConfigError(f"unknown export format {fmt!r}; "
                          f"expected one of {', '.join(_EXPORT_SUFFIX)}")
    return suffix


def export_field(field: Field, mesh: Mesh2D, basis: AngularBasis,
                 fmt: str, path) -> Path:
    """Write the angular mean with coordinates, as CSV or legacy VTK."""
    suffix = _export_suffix(fmt)
    path = Path(path)
    mean = angular_mean(field, basis)
    if suffix == "csv":
        with open(path, "w") as f:
            f.write("x,y,mean\n")
            for (x, y), v in zip(mesh.vertices, mean):
                f.write(f"{x:.10g},{y:.10g},{v:.10e}\n")
        return path
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nangular mean\nASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.10g} {y:.10g} 0.0\n")
        f.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            f.write(f"3 {i} {j} {k}\n")
        f.write(f"CELL_TYPES {mesh.n_triangles}\n")
        f.write("5\n" * mesh.n_triangles)
        f.write(f"POINT_DATA {mesh.n_vertices}\n")
        f.write("SCALARS mean double 1\nLOOKUP_TABLE default\n")
        for v in mean:
            f.write(f"{v:.10e}\n")
        f.write(f"CELL_DATA {mesh.n_triangles}\n")
        f.write("SCALARS region int 1\nLOOKUP_TABLE default\n")
        for t in mesh.tags:
            f.write(f"{int(t)}\n")
    return path


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.tol is not None:
        cfg.data["solver.tol"] = str(args.tol)
    if args.precond is not None:
        cfg.data["solver.precond"] = args.precond
    if args.out_dir is not None:
        cfg.data["output.dir"] = args.out_dir
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.get("output.dir", "runs"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _append_run_log(report: SolveReport, cfg: RunConfig) -> None:
    """Append ``report`` to the run log, with the peak resident set size of
    the process so far, in MB, as ``peak_rss_mb``."""
    report.parameters["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.append_to(_out_dir(cfg) / "run_log.txt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pnpml", description=__doc__)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--precond", choices=sorted(PRECONDITIONERS), default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "study", "export"):
        p = sub.add_parser(name)
        p.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = _apply_overrides(RunConfig.load(args.config), args)
        if args.command == "solve":
            case = run_case(cfg)
            _append_run_log(case.report, cfg)
            print(f"solved: {case.report.iterations} iterations, "
                  f"residual {case.report.final_residual:.3e}, "
                  f"dofs {case.report.dofs_even}+{case.report.dofs_odd}")
        elif args.command == "study":
            rows, csv_text = convergence_study(cfg, threads=max(1, args.threads))
            csv_path = _out_dir(cfg) / "study.csv"
            csv_path.write_text(csv_text)
            print(csv_text, end="")
            print(f"written: {csv_path}")
        elif args.command == "export":
            fmt = cfg.get("output.field_format", "csv")
            suffix = _export_suffix(fmt)
            case = run_case(cfg)
            out = _out_dir(cfg)
            path = export_field(case.field, case.mesh, case.basis, fmt,
                                out / f"field.{suffix}")
            _append_run_log(case.report, cfg)
            print(f"written: {path}")
        return 0
    except (ConfigError, ModelError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError) as exc:
        if isinstance(exc, ConvergenceError) and args.command in ("solve", "export"):
            _append_run_log(exc.report, cfg)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
