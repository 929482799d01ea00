"""One measured run of one workload, in a fresh interpreter.

Reads a workload spec (JSON) on stdin, times set-up (field load plus
``build_tables``) once and then each of ``passes`` runs (every call
after set-up up to the last result), and prints one JSON object on
stdout with the timings, the peak RSS of this process, the outputs for
the parent to check, and, when ``--trace`` is given, the per-layer
trace.

A fresh interpreter per measured run matters: ``analytic`` keeps a
process-wide zeta cache, so a second scan in the same process would
measure a different program from the one a CLI user runs.  That is why
``scan-q`` always makes one pass; the oracle and the Mobius count keep
no state between calls, so the other workloads may repeat their pass
on the same table.

Run as ``python3 perfbench/child.py [--trace] < spec.json`` with the
package's ``src`` directory on PYTHONPATH; ``run.py`` does this.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, tracer) -> dict:
    """Set up once, then run the workload ``spec["passes"]`` times."""
    import numpy
    import rprime as rp

    clock = time.perf_counter
    t0 = clock()
    field = rp.load_field_file(str(ROOT / spec["field"]))
    table = rp.build_tables(field, spec["N"])
    out: dict = {"setup_s": clock() - t0}
    out["passes"] = [run_pass(rp, spec, field, table) for _ in range(spec["passes"])]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = tracer.report()
    out["env"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    return out


def run_pass(rp, spec: dict, field, table) -> dict:
    """One pass over the workload's calls after set-up, timed to the last result."""
    clock = time.perf_counter
    out: dict = {"errors": []}
    t1 = clock()
    workload = spec["workload"]
    if workload == "scan-q":
        try:
            records = rp.run_error_scan(
                field, spec["m"], spec["r"], spec["x_min"], spec["x_max"], spec["points"],
                table_N=spec["N"], table=table,
            )
            fit = rp.fit_slope(records)
            out["records"] = [{"x": rec.x, "V": rec.V, "main": rec.main} for rec in records]
            out["slope"] = fit.slope
        except Exception as exc:  # counted as failed operations by the parent
            out["errors"].append(f"{type(exc).__name__}: {exc}")
    elif workload == "tables-cubic":
        answers = []
        for x, m, r in spec["queries"]:
            try:
                answers.append(
                    [rp.count_rprime_direct(field, x, m, r), rp.count_rprime_mobius(table, x, m, r)]
                )
            except Exception as exc:
                answers.append([None, None])
                out["errors"].append(f"(x={x}, m={m}, r={r}) {type(exc).__name__}: {exc}")
        out["answers"] = answers
    elif workload == "queries-qi":
        answers = []
        query_s = []
        for x, m, r in spec["queries"]:
            q0 = clock()
            try:
                answers.append(rp.count_rprime_mobius(table, x, m, r))
            except Exception as exc:
                answers.append(None)
                out["errors"].append(f"(x={x}, m={m}, r={r}) {type(exc).__name__}: {exc}")
            query_s.append(clock() - q0)
        out["answers"] = answers
        out["query_s"] = query_s
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out["run_s"] = clock() - t1
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    # main_term warns at every scan point that its integer part is not
    # certified; the benchmark checks main terms itself.
    warnings.simplefilter("ignore")
    tracer = None
    if "--trace" in sys.argv[1:]:
        import rprime

        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install(rprime)
    result = run(spec, tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
