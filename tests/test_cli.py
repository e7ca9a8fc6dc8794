import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pnpml.assembly
import pnpml.cli
from pnpml.assembly import BlockOperator, Field
from pnpml.cli import (
    CONFIG_KEYS,
    CSV_HEADER,
    ConfigError,
    RunConfig,
    _blas_pools,
    _source_from_config,
    angular_mean,
    convergence_study,
    export_field,
    geometry_from_config,
    main,
    run_case,
)
from pnpml.mesh import Disk, GeometrySpec, Rect, build_mesh
from pnpml.angular import build_basis
from pnpml.solver import ConvergenceError, SchurOperator

EXAMPLE1 = """
# disk with an absorbing shell
geometry.kind = disk
geometry.inner = 0 0 1.0
geometry.outer = 0 0 1.2
physics.mu = 10.1
physics.kernel = 10.0
physics.source = gaussian 0.75 0 5.0
disc.base_h = 0.2
disc.n = 3
disc.level = 0
pml.exp_al = 0.25
solver.tol = 1e-7
solver.precond = block_spatial
"""

STUDY = """
geometry.kind = disk
geometry.inner = 0 0 1.0
geometry.outer = 0 0 1.2
physics.mu = 10.1
physics.kernel = 10.0
physics.source = gaussian 0.75 0 5.0
disc.base_h = 0.2
pml.exp_al = 0.5 0.25
study.n = 3
study.levels = 0
study.ref_n = 5
study.ref_level = 1
study.ref_exp_al = 0.03125
solver.tol = 1e-7
solver.precond = block_spatial
"""


class TestConfigParsing:
    def test_comments_and_whitespace(self):
        cfg = RunConfig.parse("a.b = 1  # comment\n\n# full comment\n c.d =  x y \n")
        assert cfg.get("a.b") == "1"
        assert cfg.get("c.d") == "x y"

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("just some words\n")

    def test_missing_key(self):
        cfg = RunConfig.parse("a.b = 1\n")
        with pytest.raises(ConfigError):
            cfg.require("z.z")

    def test_typed_accessors(self):
        cfg = RunConfig.parse("x.f = 2.5\nx.i = 3\nx.list = 1 2 3\n")
        assert cfg.get_float("x.f") == 2.5
        assert cfg.get_int("x.i") == 3
        assert cfg.get_ints("x.list") == [1, 2, 3]
        with pytest.raises(ConfigError):
            cfg.get_int("x.f")
        empty = RunConfig.parse("x.list =\n")
        with pytest.raises(ConfigError):
            empty.get_floats("x.list")
        with pytest.raises(ConfigError):
            empty.get_ints("x.list", default=[1])

    def test_geometry_roundtrip(self):
        cfg = RunConfig.parse(EXAMPLE1)
        spec = geometry_from_config(cfg)
        assert isinstance(spec.inner, Disk)
        assert spec.layer_depth == pytest.approx(0.2, abs=1e-12)

    def test_box_and_constant_sources(self):
        pts = np.array([[0.0, 0.0], [0.5, 1.5], [1.0, 2.0], [1.01, 1.0], [0.5, -0.01]])
        box = _source_from_config(RunConfig.parse("physics.source = box 0 0 1 2\n"))
        assert np.array_equal(box(pts), [1.0, 1.0, 1.0, 0.0, 0.0])
        const = _source_from_config(RunConfig.parse("physics.source = constant 0.25\n"))
        assert np.array_equal(const(pts), np.full(5, 0.25))

    def test_degenerate_geometry_is_config_error(self):
        cfg = RunConfig.parse(EXAMPLE1)
        cfg.data["geometry.inner"] = "0 0 1.5"  # not inside the outer disk
        with pytest.raises(ConfigError):
            geometry_from_config(cfg)


class TestRunCase:
    def test_example1_completes_with_mode_count(self):
        cfg = RunConfig.parse(EXAMPLE1)
        cfg.data["disc.n"] = "5"
        case = run_case(cfg)
        # n_plus(5) = 1 + 5 + 9 = 15
        assert case.basis.n_plus == 15
        assert case.report.dofs_even == case.mesh.n_vertices * 15
        assert case.report.converged

    def test_even_order_rejected_before_allocation(self):
        cfg = RunConfig.parse(EXAMPLE1)
        cfg.data["disc.n"] = "4"
        with pytest.raises(ConfigError):
            run_case(cfg)

    def test_invalid_exp_al_rejected(self):
        cfg = RunConfig.parse(EXAMPLE1)
        cfg.data["pml.exp_al"] = "1.5"
        with pytest.raises(ConfigError):
            run_case(cfg)

    def test_report_echoes_resolved_config(self):
        cfg = RunConfig.parse(EXAMPLE1)
        case = run_case(cfg)
        p = case.report.parameters
        assert p["ell"] == pytest.approx(0.2, abs=1e-12)
        assert p["a"] == pytest.approx(-np.log(0.25) / 0.2)
        assert p["config.physics.mu"] == "10.1"
        assert 0 < p["eta"] < 1

    def test_rerun_identical_except_wall_time(self):
        cfg = RunConfig.parse(EXAMPLE1)
        c1 = run_case(cfg)
        c2 = run_case(cfg)
        assert c1.report.iterations == c2.report.iterations
        assert c1.report.residual_history == c2.report.residual_history
        assert np.array_equal(c1.field.even, c2.field.even)
        assert np.array_equal(c1.field.odd, c2.field.odd)


# the disk-scatter benchmark case (perfbench/workloads.py) one level coarser
DISK_SCATTER_L1 = """
geometry.kind = disk
geometry.inner = 0 0 1.0
geometry.outer = 0 0 1.2
physics.mu = 10.1
physics.kernel = 10.0
physics.source = gaussian 0.75 0 5.0
disc.base_h = 0.08
disc.n = 9
disc.level = 1
pml.exp_al = 0.03125
solver.tol = 1e-7
solver.max_iter = 20000
solver.precond = block_spatial
"""

# every table BlockOperator forms on first use
OPERATOR_TABLES = ("c_diag", "diffusion", "classes", "odd_classes", "mass_blocks",
                   "boundary", "_t_dense")


class TestOperatorTablesOnFirstUse:
    """An isotropic source loads the z-even class only, so run_case forms the
    tables of that restricted operator and none of the full-basis one."""

    def test_solve_forms_no_full_basis_table(self, monkeypatch):
        calls = {"p1_mass": 0, "boundary_mass_matrix": 0}
        for name in calls:
            def counted(*args, _real=getattr(pnpml.assembly, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(pnpml.assembly, name, counted)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            case = run_case(RunConfig.parse(DISK_SCATTER_L1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert case.report.iterations == 44
        assert not {"c_diag", "mass_blocks", "classes"} & set(vars(case.blocks))
        # two z-even classes, one mass each, and the interior mass of the load
        assert calls == {"p1_mass": 3, "boundary_mass_matrix": 1}
        assert peak <= 17 * 2**20

    def test_fields_equal_a_solve_with_every_table_formed_first(self, monkeypatch):
        cfg = RunConfig.parse(DISK_SCATTER_L1)
        lazy = run_case(cfg)
        post_init = BlockOperator.__post_init__

        def eager(op):
            post_init(op)
            for name in (*OPERATOR_TABLES, "g_x", "g_y"):
                getattr(op, name)

        monkeypatch.setattr(BlockOperator, "__post_init__", eager)
        formed = run_case(cfg)
        assert set(OPERATOR_TABLES) <= set(vars(formed.blocks))
        assert lazy.report.residual_history == formed.report.residual_history
        assert np.array_equal(lazy.field.even, formed.field.even)
        assert np.array_equal(lazy.field.odd, formed.field.odd)


class TestStudy:
    def test_columns_and_reference_row(self):
        cfg = RunConfig.parse(STUDY)
        rows, csv_text = convergence_study(cfg)
        assert csv_text.splitlines()[0] == CSV_HEADER
        ref_rows = [r for r in rows if r["N"] == 5]
        assert len(ref_rows) == 1
        assert ref_rows[0]["e_h"] == 0.0
        sweep = [r for r in rows if r["N"] == 3]
        assert len(sweep) == 2
        assert all(r["e_h"] > 0 for r in sweep)

    def test_error_decreases_with_damping(self):
        cfg = RunConfig.parse(STUDY)
        rows, _ = convergence_study(cfg)
        sweep = {r["exp_al"]: r["e_h"] for r in rows if r["N"] == 3}
        assert sweep[0.25] <= sweep[0.5] * 1.02

    def test_deterministic_columns(self):
        cfg = RunConfig.parse(STUDY)
        rows1, _ = convergence_study(cfg)
        rows2, _ = convergence_study(cfg)
        for r1, r2 in zip(rows1, rows2):
            assert r1["e_h"] == r2["e_h"]
            assert r1["iters"] == r2["iters"]

    @pytest.mark.parametrize("kernel", ["10.0", "10 3 1"])
    def test_threads_do_not_change_results(self, kernel):
        # a study runs BLAS on one thread whatever `threads` is, so two study
        # workers and one give the same rows; only the seconds column may differ
        cfg = RunConfig.parse(STUDY.replace("physics.kernel = 10.0", f"physics.kernel = {kernel}"))
        rows1, _ = convergence_study(cfg, threads=1)
        rows2, _ = convergence_study(cfg, threads=2)
        without_seconds = [[{k: v for k, v in row.items() if k != "seconds"} for row in rows]
                           for rows in (rows1, rows2)]
        assert without_seconds[0] == without_seconds[1]

    def test_refines_each_level_of_the_chain_once(self, monkeypatch):
        import pnpml.cli

        refined = []
        real_refine = pnpml.cli.uniform_refine
        real_error = pnpml.cli._error_vs_reference

        def counting_refine(mesh):
            refined.append(mesh.n_triangles)
            return real_refine(mesh)

        def error_without_refinement(*args, **kwargs):
            before = len(refined)
            e_h = real_error(*args, **kwargs)
            assert len(refined) == before
            return e_h

        monkeypatch.setattr(pnpml.cli, "uniform_refine", counting_refine)
        monkeypatch.setattr(pnpml.cli, "_error_vs_reference", error_without_refinement)
        cfg = RunConfig.parse(STUDY)
        cfg.data["study.levels"] = "0 1"
        rows, _ = convergence_study(cfg)
        assert len(rows) == 5
        # the cached chain: level 0 is built, level 1 refined from it once
        assert len(refined) == 1

    def test_non_nested_reference_rejected(self):
        cfg = RunConfig.parse(STUDY)
        cfg.data["study.levels"] = "0 2"
        cfg.data["study.ref_level"] = "1"
        with pytest.raises(ConfigError):
            convergence_study(cfg)

    @pytest.mark.parametrize("levels", ["", "-1 1"], ids=["empty", "negative"])
    def test_empty_levels_rejected_before_any_solve(self, monkeypatch, levels):
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start on an empty sweep")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        cfg = RunConfig.parse(STUDY)
        cfg.data["study.levels"] = levels
        with pytest.raises(ConfigError):
            convergence_study(cfg)


needs_blas_pool = pytest.mark.skipif(not _blas_pools(), reason="no OpenBLAS pool loaded")


def _set_blas_threads(count):
    for pool in _blas_pools():
        pool.set(count)


@pytest.fixture
def blas_threads_restored():
    """Puts each OpenBLAS pool back to its count from before the test."""
    before = [pool.get() for pool in _blas_pools()]
    yield
    for pool, count in zip(_blas_pools(), before):
        pool.set(count)


def _case_reports(monkeypatch):
    """Every case report a run makes from now on, in the order they end."""
    reports = []
    real_solve = pnpml.cli._ProblemCache.solve_case

    def recording_solve(self, *args, **kwargs):
        case = real_solve(self, *args, **kwargs)
        reports.append(case.report)
        return case

    monkeypatch.setattr(pnpml.cli._ProblemCache, "solve_case", recording_solve)
    return reports


@pytest.mark.usefixtures("blas_threads_restored")
class TestStudyBlasThreads:
    @needs_blas_pool
    @pytest.mark.parametrize("extra", ["", "solver.max_iter = 2\nsolver.tol = 1e-13\n"],
                             ids=["returns", "raises"])
    def test_pools_get_their_counts_back(self, extra):
        _set_blas_threads(2)
        before = [pool.get() for pool in _blas_pools()]
        cfg = RunConfig.parse(STUDY + extra)
        if extra:
            with pytest.raises(ConvergenceError):
                convergence_study(cfg)
        else:
            convergence_study(cfg)
        assert [pool.get() for pool in _blas_pools()] == before

    @needs_blas_pool
    def test_rows_do_not_depend_on_the_process_blas_threads(self):
        # on this mesh two BLAS threads move e_h by about 4e-15 when the
        # study keeps the process's count
        cfg = RunConfig.parse(STUDY)
        cfg.data["disc.base_h"] = "0.1"
        rows = {}
        for count in (2, 1):
            _set_blas_threads(count)
            rows[count] = [{k: v for k, v in r.items() if k != "seconds"}
                           for r in convergence_study(cfg, threads=2)[0]]
        assert rows[1] == rows[2]

    @needs_blas_pool
    def test_case_reports_record_the_blas_threads(self, monkeypatch):
        _set_blas_threads(2)
        reports = _case_reports(monkeypatch)
        rows, _ = convergence_study(RunConfig.parse(STUDY), threads=2)
        assert len(reports) == len(rows) == 3
        assert all(r.parameters["blas_threads"] == 1 for r in reports)
        default = _blas_pools()[0].get()
        assert run_case(RunConfig.parse(EXAMPLE1)).report.parameters["blas_threads"] == default

    def test_study_without_a_pool_records_unknown(self, monkeypatch):
        monkeypatch.setattr(pnpml.cli, "_blas_pools", lambda: ())
        reports = _case_reports(monkeypatch)
        rows, _ = convergence_study(RunConfig.parse(STUDY))
        assert len(rows) == 3
        assert [r.parameters["blas_threads"] for r in reports] == ["unknown"] * 3

    @needs_blas_pool
    def test_nested_entries_from_two_threads_restore_at_the_last_exit(self):
        _set_blas_threads(2)
        before = [pool.get() for pool in _blas_pools()]
        guard = pnpml.cli._one_blas_thread
        inner_done = threading.Event()

        def inner():
            with guard:
                assert [pool.get() for pool in _blas_pools()] == [1] * len(before)
            inner_done.set()

        with guard:
            worker = threading.Thread(target=inner)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive() and inner_done.is_set()
            # the inner exit was not the last one
            assert [pool.get() for pool in _blas_pools()] == [1] * len(before)
        assert [pool.get() for pool in _blas_pools()] == before


class TestExport:
    def _mesh_basis(self):
        spec = GeometrySpec(inner=Rect(0, 0, 1, 1), outer=Rect(-1, -1, 2, 2))
        mesh = build_mesh(spec, 0.5)
        basis = build_basis(3)
        return mesh, basis

    def test_zero_field(self, tmp_path):
        mesh, basis = self._mesh_basis()
        fld = Field.zeros(mesh, basis)
        path = export_field(fld, mesh, basis, "csv", tmp_path / "f.csv")
        rows = path.read_text().splitlines()
        assert rows[0] == "x,y,mean"
        assert all(float(r.split(",")[2]) == 0.0 for r in rows[1:])

    def test_constant_isotropic_mean(self, tmp_path):
        mesh, basis = self._mesh_basis()
        fld = Field.zeros(mesh, basis)
        c = 0.7
        fld.even[:, basis.even_indices.index((0, 0))] = c
        mean = angular_mean(fld, basis)
        assert np.allclose(mean, np.sqrt(4 * np.pi) * c)
        path = export_field(fld, mesh, basis, "vtk", tmp_path / "f.vtk")
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert f"POINTS {mesh.n_vertices} double" in text
        assert "SCALARS mean double 1" in text

    def test_unknown_format_rejected(self, tmp_path):
        mesh, basis = self._mesh_basis()
        with pytest.raises(ConfigError):
            export_field(Field.zeros(mesh, basis), mesh, basis, "hdf5", tmp_path / "x")


LATTICE = """
geometry.kind = rect
geometry.inner = 0 0 7 7
geometry.outer = -1 -1 8 8
physics.preset = lattice
disc.base_h = 0.0625
disc.n = 5
disc.level = 0
pml.exp_al = 0.03125
solver.tol = 1e-7
solver.max_iter = 20000
solver.precond = block_spatial
"""


# an anisotropic kernel on a refined mesh: odd classes that do not hold every
# odd mode keep two cross terms, and narrow even classes are gathers
ANISO = """
geometry.kind = disk
geometry.inner = 0 0 1.0
geometry.outer = 0 0 1.2
physics.mu = 10.1
physics.kernel = 10 3 1
physics.source = gaussian 0.75 0 5.0
disc.base_h = 0.08
disc.n = 5
disc.level = 1
pml.exp_al = 0.03125
solver.tol = 1e-7
solver.max_iter = 20000
solver.precond = block_spatial
"""


class TestLatticeDeskRun:
    def test_mean_decays_into_layer_without_oscillations(self, tmp_path):
        cfg = RunConfig.parse(LATTICE)
        with pytest.warns(UserWarning):  # pure-scattering background: gamma = 0
            case = run_case(cfg)
        mean = angular_mean(case.field, case.basis)
        mesh = case.mesh
        peak = mean.max()

        # several orders of magnitude of decay across the absorbing layer
        outer_max = mean[mesh.boundary_vertices].max()
        v = mesh.vertices
        on_inner = (((np.isclose(v[:, 0], 0) | np.isclose(v[:, 0], 7))
                     & (v[:, 1] >= 0) & (v[:, 1] <= 7))
                    | ((np.isclose(v[:, 1], 0) | np.isclose(v[:, 1], 7))
                       & (v[:, 0] >= 0) & (v[:, 0] <= 7)))
        assert outer_max <= 1e-3 * peak
        assert outer_max <= 0.05 * mean[on_inner].max()

        # no negative oscillation beyond 1e-3 of the peak
        assert mean.min() >= -1e-3 * peak

        path = export_field(case.field, mesh, case.basis, "vtk", tmp_path / "lattice.vtk")
        assert path.exists()


class TestMain:
    def _write(self, tmp_path, text):
        p = tmp_path / "case.cfg"
        p.write_text(text)
        return str(p)

    def test_solve_success(self, tmp_path, capsys):
        path = self._write(tmp_path, EXAMPLE1)
        code = main(["--out-dir", str(tmp_path / "out"), "solve", path])
        assert code == 0
        assert (tmp_path / "out" / "run_log.txt").exists()
        assert "solved:" in capsys.readouterr().out

    def test_study_writes_csv(self, tmp_path, capsys):
        path = self._write(tmp_path, STUDY)
        code = main(["--out-dir", str(tmp_path / "out"), "study", path])
        assert code == 0
        csv_path = tmp_path / "out" / "study.csv"
        assert csv_path.exists()
        assert csv_path.read_text().splitlines()[0] == CSV_HEADER

    def test_export_writes_field(self, tmp_path):
        path = self._write(tmp_path, EXAMPLE1 + "output.field_format = vtk\n")
        code = main(["--out-dir", str(tmp_path / "out"), "export", path])
        assert code == 0
        assert (tmp_path / "out" / "field.vtk").exists()

    def test_unknown_export_format_fails_before_solving(self, tmp_path, monkeypatch):
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start for an unknown export format")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        path = self._write(tmp_path, EXAMPLE1 + "output.field_format = png\n")
        assert main(["--out-dir", str(tmp_path / "out"), "export", path]) == 2

    @pytest.mark.parametrize("command, text", [
        ("solve", EXAMPLE1.replace("disc.n = 3", "disc.n = 99")),
        ("study", STUDY.replace("study.ref_n = 5", "study.ref_n = 99")),
    ], ids=["solve", "study"])
    def test_order_above_max_fails_before_angular_setup(self, tmp_path, monkeypatch, capsys,
                                                       command, text):
        import pnpml.cli

        def refuse(*args, **kwargs):
            raise AssertionError("no angular table or mesh may be built for a refused order")

        monkeypatch.setattr(pnpml.cli, "coupling_matrices", refuse)
        monkeypatch.setattr(pnpml.cli, "build_mesh", refuse)
        path = self._write(tmp_path, text)
        assert main(["--out-dir", str(tmp_path / "out"), command, path]) == 2
        assert "MAX_ORDER" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("solve", EXAMPLE1 + "solver.precnd = jacobi\n"),
        ("solve", EXAMPLE1.replace("solver.tol = 1e-7", "solver.to = 1e-12")),
        ("export", EXAMPLE1 + "output.format = vtk\n"),
        ("study", STUDY.replace("study.levels", "study.level")),
    ], ids=["solve-precnd", "solve-to", "export-format", "study-level"])
    def test_unknown_key_fails_before_any_basis_or_mesh(self, tmp_path, monkeypatch, capsys,
                                                        command, text):
        import pnpml.cli

        def refuse(*args, **kwargs):
            raise AssertionError("no basis or mesh may be built for an unknown key")

        monkeypatch.setattr(pnpml.cli, "build_basis", refuse)
        monkeypatch.setattr(pnpml.cli, "build_mesh", refuse)
        path = self._write(tmp_path, text)
        assert main(["--out-dir", str(tmp_path / "out"), command, path]) == 2
        assert "unknown config key" in capsys.readouterr().err

    # More iterations or stored entries than these solves take fail; fewer
    # pass.  The lattice's scattering cells (w_0 = 0) and right triangles
    # leave zero sums on much of the P1 pattern, which the stacked Schur
    # terms, the gathers, the smoother levels and the coarse LU do not store
    @pytest.mark.parametrize("text, warning, bounds", [
        (ANISO, None, {"iterations": 34, "precond_factor_nnz": 58_998}),
        (LATTICE.replace("disc.base_h = 0.0625", "disc.base_h = 0.25")
         .replace("disc.level = 0", "disc.level = 1"), "gamma <= 0",
         {"iterations": 36, "schur_nnz": 110_495, "precond_factor_nnz": 71_856}),
    ], ids=["aniso", "lattice"])
    def test_solve_stays_within_its_gates(self, tmp_path, text, warning, bounds):
        path = self._write(tmp_path, text)
        with pytest.warns(UserWarning, match=warning) if warning else contextlib.nullcontext():
            assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 0
        log = (tmp_path / "out" / "run_log.txt").read_text().splitlines()
        entries = dict(line.split(" = ", 1) for line in log if " = " in line)
        used = {key: int(entries[key]) for key in bounds}
        assert all(used[key] <= bound for key, bound in bounds.items()), used
        assert float(entries["peak_rss_mb"]) > 0
        # the OpenBLAS thread count of the solve, "unknown" without OpenBLAS
        assert entries["blas_threads"]

    def test_config_keys_are_the_keys_the_runner_reads(self):
        import re

        import pnpml.cli

        source = Path(pnpml.cli.__file__).read_text()
        read = set(re.findall(r'cfg\.(?:get\w*|require)\("([a-z_]+\.[a-z_]+)"', source))
        read |= set(re.findall(r'cfg\.data\["([a-z_]+\.[a-z_]+)"\]', source))
        assert read == CONFIG_KEYS and len(CONFIG_KEYS) == 21

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_fail_fast(self, tmp_path, monkeypatch, capsys, threads):
        def no_study(*args, **kwargs):
            raise AssertionError("the study must not start")

        monkeypatch.setattr(pnpml.cli, "convergence_study", no_study)
        path = self._write(tmp_path, STUDY)
        code = main(["--threads", threads, "--out-dir", str(tmp_path / "out"), "study", path])
        assert code == 2
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        path = self._write(tmp_path, EXAMPLE1.replace("disc.n = 3", "disc.n = 4"))
        assert main(["solve", path]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.cfg")]) == 2

    def test_reference_order_below_sweep_fails_before_solving(self, tmp_path, monkeypatch):
        import pnpml.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("no case may be solved for a rejected study")

        monkeypatch.setattr(pnpml.cli._ProblemCache, "solve_case", no_solve)
        path = self._write(tmp_path, STUDY.replace("study.n = 3", "study.n = 3 7"))
        assert main(["--out-dir", str(tmp_path / "out"), "study", path]) == 2

    def test_fractional_study_order_fails_before_solving(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("no case may be solved for a fractional order")

        monkeypatch.setattr(pnpml.cli._ProblemCache, "solve_case", no_solve)
        path = self._write(tmp_path, STUDY.replace("study.n = 3", "study.n = 3.5"))
        assert main(["--out-dir", str(tmp_path / "out"), "study", path]) == 2
        assert "study.n: expected integers" in capsys.readouterr().err

    def test_nan_source_fails_fast(self, tmp_path, monkeypatch):
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start on non-finite data")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        path = self._write(tmp_path, EXAMPLE1.replace(
            "physics.source = gaussian 0.75 0 5.0", "physics.source = constant nan"))
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 2

    def test_oversized_mesh_fails_before_solving(self, tmp_path, capsys):
        # about 1.5e8 triangles: refused before the mesh is allocated
        path = self._write(tmp_path, EXAMPLE1.replace("geometry.outer = 0 0 1.2",
                                                      "geometry.outer = 0 0 1000"))
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 2
        assert "MAX_TRIANGLES" in capsys.readouterr().err

    def test_oversized_refinement_fails_before_solving(self, tmp_path, monkeypatch, capsys):
        import pnpml.mesh
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start when the mesh chain is refused")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        # a low cap keeps the levels refined before the refusal small
        monkeypatch.setattr(pnpml.mesh, "MAX_TRIANGLES", 20_000)
        path = self._write(tmp_path, EXAMPLE1.replace("disc.level = 0", "disc.level = 12"))
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 2
        assert "MAX_TRIANGLES" in capsys.readouterr().err

    def test_oversized_chain_refused_before_any_refinement(self, tmp_path, monkeypatch, capsys):
        import pnpml.cli

        def no_refine(mesh):
            raise AssertionError("no level may be refined when the chain is refused")

        # level 12 holds 4**12 times the base triangles, known from the base mesh
        monkeypatch.setattr(pnpml.cli, "uniform_refine", no_refine)
        path = self._write(tmp_path, EXAMPLE1.replace("disc.level = 0", "disc.level = 12"))
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 2
        assert "MAX_TRIANGLES" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("solve", EXAMPLE1.replace("disc.level = 0", "disc.level = 10000")),
        ("study", STUDY.replace("study.ref_level = 1", "study.ref_level = 10000")),
    ], ids=["solve", "study"])
    def test_huge_refinement_level_fails_before_any_refinement(self, tmp_path, monkeypatch,
                                                               capsys, command, text):
        # 4**10000 has more digits than int() may format; the chain is refused
        # without forming it, and the message names the level
        def no_refine(mesh):
            raise AssertionError("no level may be refined when the chain is refused")

        monkeypatch.setattr(pnpml.cli, "uniform_refine", no_refine)
        path = self._write(tmp_path, text)
        assert main(["--out-dir", str(tmp_path / "out"), command, path]) == 2
        err = capsys.readouterr().err
        assert "level 10000" in err and "MAX_TRIANGLES" in err

    @pytest.mark.parametrize("old, new, flags", [
        ("disc.n = 3", "disc.n = nan", []),
        ("disc.n = 3", "disc.n = 1e400", []),
        ("disc.base_h = 0.2", "disc.base_h = nan", []),
        ("physics.source = gaussian 0.75 0 5.0", "physics.source = gaussian 0 0 x", []),
        ("physics.kernel = 10.0", "physics.kernel = 1 -2", []),
        ("solver.tol = 1e-7", "solver.tol = nan", []),
        ("", "", ["--tol", "nan"]),
        ("solver.tol = 1e-7", "solver.max_iter = 0", []),
        ("pml.exp_al = 0.25", "pml.exp_al =", []),
        ("solver.precond = block_spatial", "solver.precond = ilu", []),
        ("solver.tol = 1e-7", "solver.tol = 0", []),
        ("geometry.kind = disk", "geometry.kind = hexagon", []),
        ("physics.source = gaussian 0.75 0 5.0", "physics.source = ring 0 0 1", []),
        ("physics.mu = 10.1", "physics.preset = honeycomb", []),
        ("geometry.inner = 0 0 1.0", "geometry.inner = 0 0", []),
        ("geometry.kind = disk", "geometry.kind = rect", []),
        ("disc.base_h = 0.2", "disc.base_h = 5e-324", []),
    ], ids=["n-nan", "n-inf", "base_h-nan", "source-word", "kernel-negative",
            "tol-nan", "tol-flag-nan", "max_iter-zero", "exp_al-empty", "precond-unknown",
            "tol-zero", "kind-unknown", "source-unknown", "preset-unknown", "disk-arity",
            "rect-arity", "base_h-subnormal"])
    def test_malformed_numbers_fail_fast(self, tmp_path, monkeypatch, old, new, flags):
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start on a malformed config")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        path = self._write(tmp_path, EXAMPLE1.replace(old, new) if old else EXAMPLE1)
        assert main(flags + ["--out-dir", str(tmp_path / "out"), "solve", path]) == 2

    @pytest.mark.parametrize("source", ["gaussian 0.75 0", "box 0 0 1", "constant 1 2"],
                             ids=["gaussian", "box", "constant"])
    def test_wrong_source_arity_fails_fast(self, tmp_path, monkeypatch, source):
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start on a malformed source")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        path = self._write(tmp_path, EXAMPLE1.replace(
            "physics.source = gaussian 0.75 0 5.0", f"physics.source = {source}"))
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 2

    @pytest.mark.parametrize("inner", ["0 0 0", "0 0 -1.0"], ids=["zero", "negative"])
    def test_non_positive_disk_radius_fails_fast(self, tmp_path, monkeypatch, capsys, inner):
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start on a degenerate disk")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        path = self._write(tmp_path, EXAMPLE1.replace("geometry.inner = 0 0 1.0",
                                                      f"geometry.inner = {inner}"))
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 2
        assert "disk radius must be positive" in capsys.readouterr().err

    def test_non_concentric_disks_fail_fast(self, tmp_path, monkeypatch, capsys):
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start on an unmeshable layout")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        path = self._write(tmp_path, EXAMPLE1.replace("geometry.inner = 0 0 1.0",
                                                      "geometry.inner = 0.1 0 0.5"))
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 2
        assert "concentric" in capsys.readouterr().err

    def test_void_layer_fails_before_pcg(self, tmp_path, monkeypatch, capsys):
        # exp(-a l) = 1 leaves the layer without absorption, so its odd
        # collision entries are zero and the operator build rejects them
        import pnpml.solver

        def no_pcg(*args, **kwargs):
            raise AssertionError("PCG must not start on a singular odd block")

        monkeypatch.setattr(pnpml.solver, "pcg_solve", no_pcg)
        path = self._write(tmp_path, EXAMPLE1.replace("pml.exp_al = 0.25", "pml.exp_al = 1"))
        with pytest.warns(UserWarning, match="gamma <= 0"):
            assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 3
        assert "odd collision block" in capsys.readouterr().err

    def test_module_entry_point_runs_without_warnings(self):
        # importing the package must not import pnpml.cli before runpy executes it
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "pnpml.cli",
                               "--help"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_convergence_failure_exit_code(self, tmp_path):
        path = self._write(tmp_path, EXAMPLE1 + "solver.max_iter = 2\nsolver.tol = 1e-13\n")
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 3
        log = (tmp_path / "out" / "run_log.txt").read_text()
        assert "converged = False" in log
        assert "iterations = 2" in log

    @pytest.mark.parametrize("precond", ["block_spatial", "jacobi"])
    def test_run_log_records_the_block_spatial_hierarchy(self, tmp_path, precond):
        text = (EXAMPLE1.replace("disc.level = 0", "disc.level = 1")
                .replace("solver.precond = block_spatial", f"solver.precond = {precond}"))
        path = self._write(tmp_path, text)
        assert main(["--out-dir", str(tmp_path / "out"), "solve", path]) == 0
        log = (tmp_path / "out" / "run_log.txt").read_text().splitlines()
        entries = dict(line.split(" = ", 1) for line in log if " = " in line)
        keys = ("precond_levels", "precond_factor_nnz", "precond_precision")
        if precond == "jacobi":
            assert not any(k in entries for k in keys)
            return
        mesh = run_case(RunConfig.parse(text)).mesh
        # fine to coarse; the isotropic source solves the z-even class only,
        # whose N = 3 classes {0} and {2} each have one coarse LU
        assert entries["precond_levels"] == f"{mesh.n_vertices} {mesh.parent.n_vertices}"
        assert int(entries["precond_factor_nnz"]) >= 2 * mesh.parent.n_vertices
        assert entries["precond_precision"] == "float32"

    @pytest.mark.parametrize("precond", ["block_spatial", "jacobi"])
    def test_run_log_records_the_stored_schur_entries(self, tmp_path, precond):
        text = EXAMPLE1.replace("solver.precond = block_spatial", f"solver.precond = {precond}")
        assert main(["--out-dir", str(tmp_path / "out"), "solve", self._write(tmp_path, text)]) == 0
        log = (tmp_path / "out" / "run_log.txt").read_text().splitlines()
        entries = dict(line.split(" = ", 1) for line in log if " = " in line)
        # the isotropic source solves the z-even class only
        case = run_case(RunConfig.parse(text))
        stored = {}
        SchurOperator(case.blocks.restrict(case.basis.z_even())).record(stored)
        assert int(entries["schur_nnz"]) == stored["schur_nnz"] > 0

    @pytest.mark.parametrize("command, extra, code", [
        ("solve", "", 0),
        ("solve", "solver.max_iter = 2\nsolver.tol = 1e-13\n", 3),
        ("export", "", 0),
    ], ids=["solve", "failed-solve", "export"])
    def test_run_log_records_peak_rss(self, tmp_path, command, extra, code):
        path = self._write(tmp_path, EXAMPLE1 + extra)
        assert main(["--out-dir", str(tmp_path / "out"), command, path]) == code
        log = (tmp_path / "out" / "run_log.txt").read_text().splitlines()
        entries = dict(line.split(" = ", 1) for line in log if " = " in line)
        assert entries["converged"] == str(code == 0)
        assert float(entries["peak_rss_mb"]) > 0

    def test_tol_override(self, tmp_path):
        path = self._write(tmp_path, EXAMPLE1)
        code = main(["--tol", "1e-5", "--out-dir", str(tmp_path / "out"), "solve", path])
        assert code == 0
        log = (tmp_path / "out" / "run_log.txt").read_text()
        assert "tol = 1e-05" in log
