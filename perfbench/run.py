"""Benchmark of the rprime pipeline: one seeded workload per invocation.

    python3 perfbench/run.py --workload scan-q --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository.  Each measured run is
a fresh interpreter (``child.py``) that loads the field, builds the
table and runs the workload; the parent launches children one after
another (closed loop, one client, no threads) until ``--seconds`` have
passed and at least ``MIN_CHILDREN`` have finished (two, when a third
would end after 1.5 x ``--seconds``), then reports the median of each
metric over the children and their passes.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(field load plus ``build_tables``), ``run_s`` (end of set-up to the last
result) and ``peak_rss_mb`` (peak RSS of the measured process).  With
``--trace 1`` the parent alternates untraced and traced children and
reports the per-layer metrics from the traced ones, plus
``trace_overhead_s``: traced total minus untraced total.

Every output is checked against an independent reference
(``workloads.check``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, the workload's
other named figures (error rate, main-term accuracy, query latency) and
the per-site call counts of a traced run.  Exit status: 0 when every
check passed, 1 when one failed, 2 when the repository's package or
field files are missing (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import nearest_rank  # noqa: E402
from workloads import WORKLOADS, check, main_rel_err, make_spec  # noqa: E402

MIN_CHILDREN = {"full": 3, "tiny": 1}
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run, name -> unit.
PER_LAYER = {
    "fields.load_field_file.s": "s",
    "fields.splitting_type.calls": "count",
    "fields.splitting_type.s": "s",
    "polygf.factor_mod_p.calls": "count",
    "polygf.factor_mod_p.s": "s",
    "sieve.prime_flags.calls": "count",
    "sieve.prime_flags.s": "s",
    "sieve.build_tables.s": "s",
    "sieve.build_tables.self_s": "s",
    "sieve.table_bytes": "B",
    "sieve.count_rprime_mobius.calls": "count",
    "sieve.count_rprime_mobius.s": "s",
    "sieve.count_rprime_mobius.ms_p50": "ms",
    "sieve.count_rprime_mobius.ms_p95": "ms",
    "sieve.count_terms": "count",
    "analytic.main_term.calls": "count",
    "analytic.main_term.s": "s",
    "analytic.dedekind_zeta_with_cutoff.s": "s",
    "analytic.zeta_recomputes": "count",
    "analytic.euler_P_max": "count",
    "ideals.enumerate_ideals.calls": "count",
    "ideals.enumerate_ideals.s": "s",
    "ideals.ideals_enumerated": "count",
    "ideals.count_rprime_direct.calls": "count",
    "ideals.count_rprime_direct.s": "s",
    "ideals.count_rprime_direct.self_s": "s",
    "scan.run_error_scan.s": "s",
    "scan.run_error_scan.self_s": "s",
    "scan.fit_slope.s": "s",
    "trace_overhead_s": "s",
}

REQUIRED = ("src/rprime/__init__.py", "fields/q.json", "fields/gaussian.json", "fields/cubic_x3mxm1.json")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(spec: dict, traced: bool, timeout: float) -> dict:
    """One measured run in a fresh interpreter; errors come back as a result."""
    cmd = [sys.executable, str(HERE / "child.py")] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"child exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"child exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    """Where the figures come from: interpreter, machine, source and seed."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rprime").glob("*.py")) + sorted((ROOT / "fields").glob("*.json")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(spec: dict, seconds: float, trace: bool, size: str) -> tuple[list[dict], list[dict]]:
    """Launch children until the time is used; return (untraced, traced) results."""
    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    min_rounds = 1 if trace else MIN_CHILDREN[size]
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            remaining = DEADLINE_S - (time.perf_counter() - start)
            result = run_child(spec, is_traced, remaining)
            (traced if is_traced else untraced).append(result)
            if "crashed" in result:
                return untraced, traced
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = time.perf_counter() - round_start
        next_end = elapsed + per_round
        if (
            (rounds >= min_rounds and next_end > seconds)
            # on a slow machine settle for fewer children than the minimum,
            # so that the length of a run stays bounded
            or (rounds >= 2 and next_end > 1.5 * seconds)
            or elapsed + 1.5 * per_round > DEADLINE_S
        ):
            return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs each workload at toy sizes, for the harness self-check",
    )
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"run.py: not a checkout of the repository, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    spec = make_spec(args.workload, args.seed, args.size)
    if args.trace:
        spec["passes"] = 1  # per-layer figures and the overhead are per pass
    untraced, traced = measure(spec, args.seconds, bool(args.trace), args.size)

    memo: dict[int, int] = {}
    attempted = failed = 0
    messages: list[str] = []
    for result in untraced + traced:
        # a crashed child counts as one pass with every operation failed
        for one_pass in result.get("passes") or [{"errors": [result.get("crashed", "no passes")]}]:
            n_ops, n_failed, notes = check(spec, one_pass, memo)
            attempted += n_ops
            failed += n_failed
            messages += notes

    ok = [r for r in untraced if "crashed" not in r]
    passes = [p for r in ok for p in r["passes"]]
    env = environment(args.seed)
    if ok:
        env.update(ok[0]["env"])
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} size {args.size} children {len(untraced)} traced {len(traced)}")

    samples = {
        "setup_s": [r["setup_s"] for r in ok],
        "run_s": [p["run_s"] for p in passes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    figures = {name: median(values) for name, values in samples.items()}
    extra = {"error_rate": (failed / attempted if attempted else 1.0, "1")}
    if args.workload == "scan-q" and passes and all("records" in p for p in passes):
        extra["main_rel_err"] = (max(main_rel_err(p["records"]) for p in passes), "1")
    if args.workload == "queries-qi" and passes:
        query_s = [[t for p in r["passes"] for t in p["query_s"]] for r in ok]
        run_s = [sum(p["run_s"] for p in r["passes"]) for r in ok]
        extra["queries_per_s"] = (median([len(q) / t for q, t in zip(query_s, run_s)]), "1/s")
        extra["query_ms_p50"] = (median([1e3 * nearest_rank(q, 50) for q in query_s]), "ms")
        extra["query_ms_p95"] = (median([1e3 * nearest_rank(q, 95) for q in query_s]), "ms")
    for name, value in figures.items():
        listed = " ".join(f"{v:.4g}" for v in samples[name])
        print(f"metric {name} {value:.6g} {END_TO_END[name]} (median of {listed})")
    for name, (value, unit) in extra.items():
        print(f"metric {name} {value:.6g} {unit}")
    for note in messages[:20]:
        print("failure " + note)

    if args.trace:
        metrics = trace_metrics(untraced, traced)
        reports = [r["trace"] for r in traced if "trace" in r]
        for name, sites in (reports[-1]["calls_by_site"] if reports else {}).items():
            if sites:
                print(f"sites {name} " + json.dumps(sites, sort_keys=True))
        units = PER_LAYER
    else:
        metrics = figures
        units = END_TO_END
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def trace_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    reports = [r["trace"]["metrics"] for r in traced if "trace" in r]
    metrics = {
        name: median([rep[name] for rep in reports])
        for name in PER_LAYER
        if reports and name in reports[0]
    }
    def total(results: list[dict]) -> list[float]:
        return [r["setup_s"] + sum(p["run_s"] for p in r["passes"]) for r in results if "crashed" not in r]

    plain, with_trace = total(untraced), total(traced)
    metrics["trace_overhead_s"] = median(with_trace) - median(plain)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
