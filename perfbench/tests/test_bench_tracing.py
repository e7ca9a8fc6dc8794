"""The tracer wraps pnpml only while installed, attributes the Schur apply to
its parts, and its self times add up to the pass."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pnpml.cli
import pnpml.mesh
import pnpml.solver
import tracing
import workloads as wl
from test_bench_checks import SMALL_DISK, SMALL_STUDY

BENCH = Path(__file__).resolve().parents[1]


def _traced(pass_fn, config):
    tracer = tracing.Tracer("test")
    tracer.install(extra_namespaces=[wl])
    try:
        with tracer.span("pass"):
            result = pass_fn({"config": config}, wl.Clock(tracer))
    finally:
        tracer.uninstall()
    return tracer, result


def test_install_wraps_imported_names_and_uninstall_restores_them():
    originals = (pnpml.cli.build_mesh, pnpml.mesh.build_mesh,
                 pnpml.solver.SchurOperator.apply, wl.mesh.uniform_refine)
    tracer = tracing.Tracer("test")
    tracer.install(extra_namespaces=[wl])
    try:
        assert pnpml.cli.build_mesh is pnpml.mesh.build_mesh
        assert pnpml.cli.build_mesh is not originals[0]
        assert pnpml.solver.SchurOperator.apply is not originals[2]
    finally:
        tracer.uninstall()
    assert (pnpml.cli.build_mesh, pnpml.mesh.build_mesh,
            pnpml.solver.SchurOperator.apply, wl.mesh.uniform_refine) == originals


def test_pn_pass_spans_split_the_schur_apply_and_cover_the_pass():
    tracer, result = _traced(wl.pn_pass, SMALL_DISK)
    m = tracing.layer_metrics(tracer.spans, result["iterations"])
    assert m["assembly.schur_applies"] == result["iterations"] + m["solver.extra_matvecs"]
    assert m["solver.extra_matvecs"] >= 1          # the confirming true residual
    assert m["solver.precond_applies"] == result["iterations"]  # initial + all but the last
    assert m["solver.factor_nnz"] > 0 and m["assembly.apply_flops"] > 0
    assert all(m[k] > 0 for k in tracing.SCHUR_PARTS)
    assert sum(m[k] for k in tracing.SCHUR_PARTS) <= 1e-3 * m["assembly.schur_apply_ms"] * \
        m["assembly.schur_applies"]
    assert m["assembly.dofs_even"] == result["counts"]["dofs_even"]
    layers = sum(m[f"{layer}.self_s"] for layer in (*tracing.LAYERS, tracing.BENCH))
    assert abs(layers - m["trace.total_s"]) <= 1e-9 * max(1.0, m["trace.total_s"])
    assert set(m) == set(tracing.PER_LAYER) - {"trace.overhead_s"}


def test_study_pass_records_cli_error_evaluation_and_refinement():
    tracer, result = _traced(wl.study_pass, SMALL_STUDY)
    m = tracing.layer_metrics(tracer.spans, result["iterations"])
    assert m["cli.cases"] == result["counts"]["cases"]
    assert m["cli.error_eval_s"] > 0 and m["mesh.prolong_s"] > 0
    assert m["mesh.refine_calls"] >= 2   # the reference level and each error evaluation


def test_self_times_subtract_children():
    spans = [tracing.Span(0, None, "bench.pass", "bench", 0.0, 10.0),
             tracing.Span(1, 0, "solver.pcg_solve", "solver", 1.0, 9.0),
             tracing.Span(2, 1, tracing.SCHUR_APPLY, "solver", 2.0, 5.0),
             tracing.Span(3, 2, "assembly.BlockOperator.apply_mass", "assembly", 2.5, 3.0)]
    assert tracing.self_times(spans) == [2.0, 5.0, 2.5, 0.5]
    m = tracing.layer_metrics(spans, iterations=1)
    assert m["assembly.mass_s"] == 0.5 and m["solver.pcg_self_s"] == 5.0
    assert m["trace.coverage"] == 0.8


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "disk-scatter", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "pnpml sources not found" in proc.stderr
    with open(BENCH.parent / "BENCHMARK.json") as f:
        assert json.load(f)["paths"] == [BENCH.name]
