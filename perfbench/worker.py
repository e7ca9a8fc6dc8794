"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py <workload> <seed> <traced 0|1> <pass id>

Runs the pass, then its correctness check outside the timed region, and
prints one JSON object on stdout.  ``run.py`` starts one of these per pass,
never two at once, so peak RSS and CPU time belong to that pass alone.
"""

from __future__ import annotations

import contextlib
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run(workload: str, seed: int, traced: bool, pass_id: str) -> dict:
    import tracing
    import workloads

    inp = workloads.inputs(workload, seed)
    tracer = tracing.Tracer(pass_id) if traced else None
    out: dict = {"pass": pass_id, "traced": traced}
    try:
        if tracer is not None:
            tracer.install(extra_namespaces=[workloads])
        clock = workloads.Clock(tracer)
        root = tracer.span("pass") if tracer is not None else contextlib.nullcontext()
        with root:
            result = workloads.PASSES[workload](inp, clock)
        out["cpu_s"] = clock.cpu()
        out["peak_rss_mb"] = workloads.peak_rss_mb()
    except Exception:
        out["error"] = traceback.format_exc(limit=6)
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()

    for key in ("total_s", "setup_s", "solve_s", "iterations", "counts", "warnings"):
        out[key] = result[key]
    try:
        out["fails"], out["values"] = workloads.check(workload, seed, result)
    except Exception:
        out["fails"] = ["check raised: " + traceback.format_exc(limit=6)]
        out["values"] = {}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, result["iterations"])
        out["spans"] = tracer.records()
    return out


def main(argv: list[str]) -> int:
    workload, seed, traced, pass_id = argv
    sys.path[:0] = [str(SRC), str(HERE)]
    print(json.dumps(run(workload, int(seed), traced == "1", pass_id)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
