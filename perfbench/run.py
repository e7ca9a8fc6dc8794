"""Benchmark of the pnpml solver and its ray-traced oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload disk-scatter --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Each pass runs in a fresh process (``worker.py``), one at a time, and is
checked for correctness after its timed region.  Passes repeat until
about ``--seconds`` have elapsed (the run ends at the pass boundary nearest
to it, after at least two passes); a run reports the median of its passes.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced pass and then traced passes (at least two), reports the
per-layer metrics, the tracing overhead and the Schur-apply split, and writes
the spans to ``perfbench/out/``.  The last line of stdout is one JSON object.
BLAS threading is left at the library default; the run records it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import COVERAGE_SLACK, EXACT, PER_LAYER, SCHUR_PARTS  # noqa: E402

WORKLOADS = ("disk-scatter", "lattice-jacobi", "oracle-reflect", "study-desk")
END_TO_END = {"total_s": "s", "setup_s": "s", "solve_s": "s", "cpu_s": "s",
              "iterations": "count", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PASS_LIMIT_S = 170.0   # a run never starts a pass it cannot finish by then
MIN_PASSES = 2        # a run reports the median of at least two passes
MIN_TRACED = 2


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def source_ok() -> str | None:
    """The checkout must hold the pnpml sources next to the benchmark."""
    if not (SRC / "pnpml" / "__init__.py").is_file():
        return f"pnpml sources not found under {SRC}"
    return None


def run_pass(workload: str, seed: int, traced: bool, pass_id: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", pass_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"pass": pass_id, "traced": traced, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"pass": pass_id, "traced": traced,
            "error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Whole passes, one after another, for about ``seconds``."""
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        trace_this = traced and bool(passes)  # traced runs begin untraced
        pass_id = f"{workload}-s{seed}-{len(passes)}{'t' if trace_this else ''}"
        t0 = time.perf_counter()
        p = run_pass(workload, seed, trace_this, pass_id,
                     timeout=max(5.0, PASS_LIMIT_S - (t0 - start)))
        last = time.perf_counter() - t0
        passes.append(p)
        print(pass_line(p), flush=True)
        elapsed = time.perf_counter() - start
        enough = (sum(1 for q in passes if q["traced"]) >= MIN_TRACED if traced
                  else len(passes) >= MIN_PASSES)
        # stop at the pass boundary nearest to ``seconds``
        if elapsed + 0.5 * last >= seconds and enough:
            return passes
        if elapsed + 1.5 * last > PASS_LIMIT_S:
            return passes


def pass_line(p: dict) -> str:
    kind = "traced" if p["traced"] else "untraced"
    if "error" in p:
        return f"  {p['pass']} ({kind}): FAILED\n    " + p["error"].replace("\n", "\n    ")
    times = ", ".join(f"{k} {p[k]:.4f}" for k in ("total_s", "setup_s", "solve_s", "cpu_s"))
    status = "check ok" if not p["fails"] else "CHECK FAILED: " + "; ".join(p["fails"])
    values = ", ".join(f"{k}={_short(v)}" for k, v in p.get("values", {}).items())
    notes = "".join(f"\n    expected warning recorded: {w}" for w in p.get("warnings", ()))
    return (f"  {p['pass']} ({kind}): {times}, iterations {p['iterations']}, "
            f"peak_rss_mb {p['peak_rss_mb']:.1f}; {status}\n    checked: {values}{notes}")


def _short(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_short(x) for x in v) + "]"
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def count_mismatches(passes: list[dict]) -> list[str]:
    """Exact counts must repeat between passes of the same code and inputs."""
    out = []
    done = [p for p in passes if "error" not in p]
    for key in sorted({k for p in done for k in p["counts"]}):
        seen = {p["counts"].get(key) for p in done}
        if len(seen) > 1:
            out.append(f"count {key} differs between passes: {sorted(seen, key=str)}")
    layered = [p["layers"] for p in done if "layers" in p]
    for key in EXACT:
        seen = {m[key] for m in layered}
        if len(seen) > 1:
            out.append(f"count {key} differs between traced passes: {sorted(seen)}")
    return out


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def summarize(passes: list[dict], traced: bool) -> dict:
    done = [p for p in passes if "error" not in p]
    plain = [p for p in done if not p["traced"]]
    mismatches = count_mismatches(passes)
    summary = {
        "attempted": len(passes),
        "failed": sum(1 for p in passes if "error" in p or p["fails"]),
        "mismatches": mismatches,
    }
    if not traced:
        summary["metrics"] = {k: (median(p[k] for p in plain), unit)
                              for k, unit in END_TO_END.items()}
        summary["samples"] = len(plain)
        return summary
    layered = [p["layers"] for p in done if "layers" in p]
    metrics = {k: (median(m[k] for m in layered), unit)
               for k, (unit, _) in PER_LAYER.items() if k != "trace.overhead_s"}
    traced_total = median(p["total_s"] for p in done if p["traced"])
    metrics["trace.overhead_s"] = (traced_total - median(p["total_s"] for p in plain),
                                   "s")
    summary["metrics"] = {k: metrics[k] for k in PER_LAYER}
    summary["samples"] = len(layered)
    summary["iterations"] = median(p["iterations"] for p in done)
    return summary


def print_summary(workload: str, summary: dict, traced: bool) -> None:
    print(f"{workload}: {summary['attempted']} passes attempted, {summary['failed']} failed"
          f"; metrics are medians of {summary['samples']} "
          f"{'traced' if traced else 'untraced'} passes")
    for msg in summary["mismatches"]:
        print(f"  SELF-CHECK FAILED: {msg}")
    if not traced:
        for name, (value, unit) in summary["metrics"].items():
            print(f"  {name:<12} {value:>14.4f} {unit}")
        return
    for name, (value, unit) in summary["metrics"].items():
        print(f"  {name:<24} {value:>16.6g} {unit:<6} -> {PER_LAYER[name][1]}")
    m = {k: v for k, (v, _) in summary["metrics"].items()}
    cov = m["trace.coverage"]
    verdict = "ok" if cov >= 1.0 - COVERAGE_SLACK else "BELOW"
    print(f"  layer self times cover {cov:.2%} of traced total_s "
          f"(slack {COVERAGE_SLACK:.0%}: {verdict}); tracing overhead "
          f"{m['trace.overhead_s']:+.3f} s on {m['trace.total_s']:.3f} s")


def baseline_table(rows: dict[str, dict]) -> None:
    """The ROADMAP baseline rows: Schur-apply split, preconditioner build and
    apply, iterations (and the oracle sweep build) per workload."""
    head = (f"{'workload':<15}{'iters':>6}{'S ms':>8}{'M':>7}{'R':>7}{'B':>7}{'C^-1':>7}"
            f"{'B^T':>7}{'P build s':>10}{'P ms':>8}{'sweep build s':>14}{'sweeps':>7}")
    print("per-apply times in ms (S = M + R + B^T C^-1 B; P = preconditioner)")
    print(head)
    for workload, s in rows.items():
        m = {k: v for k, (v, _) in s["metrics"].items()}
        n = m["assembly.schur_applies"]
        parts = [1e3 * m[k] / n if n else 0.0 for k in SCHUR_PARTS]
        p_ms = (1e3 * m["solver.precond_apply_s"] / m["solver.precond_applies"]
                if m["solver.precond_applies"] else 0.0)
        print(f"{workload:<15}{s['iterations']:>6.0f}{m['assembly.schur_apply_ms']:>8.2f}"
              + "".join(f"{x:>7.2f}" for x in parts)
              + f"{m['solver.precond_build_s']:>10.3f}{p_ms:>8.2f}"
              f"{m['oracle.sweep_build_s']:>14.3f}{m['oracle.sweeps']:>7.0f}")


def write_spans(workload: str, seed: int, passes: list[dict]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as f:
        for p in passes:
            for rec in p.get("spans", ()):
                f.write(json.dumps(rec) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = source_ok()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pnpml
    import workloads as wl

    if not Path(pnpml.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: pnpml imported from {pnpml.__file__}, not {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    env = environment()
    print(f"pnpml benchmark: seed {args.seed}, {args.seconds:g} s per workload, "
          f"tracing {'on' if traced else 'off'}")
    print("environment: " + json.dumps(env))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for workload in workloads:
        print(f"{workload}: inputs {wl.inputs(workload, args.seed)['source']}")
        passes = run_workload(workload, args.seed, args.seconds, traced)
        summaries[workload] = summarize(passes, traced)
        print_summary(workload, summaries[workload], traced)
        if traced:
            print(f"  spans written to {write_spans(workload, args.seed, passes)}")
    if traced:
        baseline_table(summaries)

    attempted = sum(s["attempted"] for s in summaries.values())
    n_failed = sum(s["failed"] for s in summaries.values())
    correct = n_failed == 0 and not any(s["mismatches"] for s in summaries.values())
    if len(summaries) == 1:
        metrics = next(iter(summaries.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()}
    print(f"passes: {attempted} attempted, {n_failed} failed")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
