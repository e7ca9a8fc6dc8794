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
    build_mesh,
    p0_prolong,
    p1_prolong,
    uniform_refine,
)
from pnpml.pml import ModelError, extend_coefficients
from pnpml.solver import (
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

# standard 7x7 shielding lattice: absorbing cells in a checkerboard around the
# central source cell, symmetric left-right, open directly above the source
_LATTICE_ABSORBERS = [(1, 1), (3, 1), (5, 1), (2, 2), (4, 2), (1, 3), (5, 3),
                      (2, 4), (4, 4), (1, 5), (5, 5)]


class ConfigError(ValueError):
    """Invalid or missing configuration data."""


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
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc

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
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError as exc:
            raise ConfigError(f"{key}: expected numbers, got {raw!r}") from exc

    def get_ints(self, key: str, default: list[int] | None = None) -> list[int]:
        vals = self.get_floats(key, None if default is None else [float(v) for v in default])
        if any(v != int(v) for v in vals):
            raise ConfigError(f"{key}: expected integers")
        return [int(v) for v in vals]


def _check_odd_order(n: int) -> int:
    if n < 1 or n % 2 == 0:
        raise ConfigError(f"truncation order must be odd and >= 1, got {n}")
    return n


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
    spec = cfg.require("physics.source").split()
    kind = spec[0].lower()
    args = [float(v) for v in spec[1:]]
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
    field: Field
    report: SolveReport
    mesh: Mesh2D
    basis: AngularBasis
    blocks: BlockOperator


class _ProblemCache:
    """Meshes, bases, and couplings shared across the cases of one run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.spec = geometry_from_config(cfg)
        self.mu, self.kernel, self.source = physics_from_config(cfg)
        self.base_h = cfg.get_float("disc.base_h")
        self.ell = self.spec.layer_depth
        self.eta = self.spec.grazing_sine
        self._meshes: list[Mesh2D] = []
        self._angular = {}

    def mesh(self, level: int) -> Mesh2D:
        if level < 0:
            raise ConfigError("refinement level must be nonnegative")
        if not self._meshes:
            try:
                self._meshes.append(build_mesh(self.spec, self.base_h))
            except GeometryError as exc:
                raise ConfigError(str(exc)) from exc
        while len(self._meshes) <= level:
            self._meshes.append(uniform_refine(self._meshes[-1]))
        return self._meshes[level]

    def angular(self, n: int):
        if n not in self._angular:
            basis = build_basis(_check_odd_order(n))
            coup = coupling_matrices(basis, quadrature_for_order(n))
            self._angular[n] = (basis, coup)
        return self._angular[n]

    def solve_case(self, n: int, level: int, exp_al: float, tol: float,
                   max_iter: int, precond_kind: str) -> CaseResult:
        _check_exp_al(exp_al)
        basis, coup = self.angular(n)
        mesh = self.mesh(level)
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
    precond = cfg.get("solver.precond", "block_spatial").lower()
    return tol, max_iter, precond


def run_case(cfg: RunConfig) -> CaseResult:
    """Single end-to-end solve of the configured problem."""
    cache = _ProblemCache(cfg)
    n = cfg.get_int("disc.n")
    level = cfg.get_int("disc.level", 0)
    exp_al = cfg.get_floats("pml.exp_al")[0]
    tol, max_iter, precond = _solver_options(cfg)
    return cache.solve_case(n, level, exp_al, tol, max_iter, precond)


def _mode_embedding(coarse: AngularBasis, fine: AngularBasis):
    # index lists are sorted by (l, m), so a lower order is a prefix
    assert fine.even_indices[:coarse.n_plus] == coarse.even_indices
    assert fine.odd_indices[:coarse.n_minus] == coarse.odd_indices
    return coarse.n_plus, coarse.n_minus


def _error_vs_reference(cache: _ProblemCache, case: CaseResult, level: int,
                        ref: CaseResult, ref_level: int) -> float:
    """e_h between a coarse case and the reference: L2 difference of both
    components plus the directional-gradient seminorm of the even part,
    restricted to the inner region, on the reference grid.  The case is
    prolonged up the cache's own mesh chain."""
    even = case.field.even
    odd = case.field.odd
    for lvl in range(level, ref_level):
        even = p1_prolong(cache.mesh(lvl), even)
        odd = p0_prolong(odd)
    if even.shape[0] != ref.mesh.n_vertices:
        raise ConfigError("case and reference grids are not nested")

    n_plus, n_minus = _mode_embedding(case.basis, ref.basis)
    d_even = ref.field.even.copy()
    d_even[:, :n_plus] -= even
    d_odd = ref.field.odd.copy()
    d_odd[:, :n_minus] -= odd

    err2 = (even_l2_norm2(ref.mesh, d_even, interior_only=True)
            + odd_l2_norm2(ref.mesh, d_odd, interior_only=True)
            + transport_seminorm2(ref.blocks, d_even, interior_only=True))
    return float(np.sqrt(err2))


def convergence_study(cfg: RunConfig, threads: int = 1):
    """Sweep (N, level, exp_al) against a fine nested self-reference.

    Returns (rows, csv_text); each row is a dict with the CSV fields.
    """
    cache = _ProblemCache(cfg)
    sweep_n = [_check_odd_order(n) for n in cfg.get_ints("study.n")]
    levels = cfg.get_ints("study.levels")
    exp_als = [_check_exp_al(v) for v in cfg.get_floats("pml.exp_al")]
    ref_n = _check_odd_order(cfg.get_int("study.ref_n"))
    ref_level = cfg.get_int("study.ref_level")
    ref_exp_al = _check_exp_al(cfg.get_float("study.ref_exp_al"))
    tol, max_iter, precond = _solver_options(cfg)
    if ref_level < max(levels):
        raise ConfigError("the reference level must be at least as fine as the sweep")

    # reference first (also warms the mesh chain serially)
    ref = cache.solve_case(ref_n, ref_level, ref_exp_al, tol, max_iter, precond)

    cases = [(n, level, exp_al) for n in sweep_n for level in levels
             for exp_al in exp_als]
    # the cache fills lazily without a lock: fill it before any worker starts
    for n, level, _ in cases:
        cache.mesh(level)
        cache.angular(n)

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


def export_field(field: Field, mesh: Mesh2D, basis: AngularBasis,
                 fmt: str, path) -> Path:
    """Write the angular mean with coordinates, as CSV or legacy VTK."""
    path = Path(path)
    mean = angular_mean(field, basis)
    fmt = fmt.lower()
    if fmt == "csv":
        with open(path, "w") as f:
            f.write("x,y,mean\n")
            for (x, y), v in zip(mesh.vertices, mean):
                f.write(f"{x:.10g},{y:.10g},{v:.10e}\n")
        return path
    if fmt in ("vtk", "vtk_legacy"):
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
    raise ConfigError(f"unknown export format {fmt!r}")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pnpml", description=__doc__)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--precond", choices=["jacobi", "block_spatial"], default=None)
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
            out = _out_dir(cfg)
            case.report.append_to(out / "run_log.txt")
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
            case = run_case(cfg)
            out = _out_dir(cfg)
            fmt = cfg.get("output.field_format", "csv")
            suffix = "vtk" if fmt.startswith("vtk") else "csv"
            path = export_field(case.field, case.mesh, case.basis, fmt,
                                out / f"field.{suffix}")
            case.report.append_to(out / "run_log.txt")
            print(f"written: {path}")
        return 0
    except (ConfigError, ModelError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError) as exc:
        if isinstance(exc, ConvergenceError) and args.command in ("solve", "export"):
            exc.report.append_to(_out_dir(cfg) / "run_log.txt")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
