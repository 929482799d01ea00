"""Tiny-size self-check of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs every workload at toy sizes through the real command line, traced
and untraced, and checks the output contract against BENCHMARK.json.
It also checks the pinned queries-qi values against the brute-force
oracle wherever the oracle reaches, and the scan reference against a
direct gcd count.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, coprime_pairs_q, load_pool, make_spec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "nproc", "cpu", "commit", "seed"} <= set(env)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_scan_trace_sees_the_main_term():
    result = json.loads(run_bench("scan-q", 1).stdout.strip().splitlines()[-1])["metrics"]
    assert result["analytic.main_term.calls"]["value"] >= 1
    assert result["analytic.euler_P_max"]["value"] > 0
    assert result["scan.run_error_scan.s"]["value"] >= result["analytic.main_term.s"]["value"]


def test_specs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert make_spec(workload, 5) == make_spec(workload, 5)
        assert make_spec(workload, 5) != make_spec(workload, 6)


def test_scan_reference_counts_coprime_pairs():
    memo: dict[int, int] = {}
    for x in (1, 2, 10, 97, 300):
        want = sum(1 for a in range(1, x + 1) for b in range(1, x + 1) if math.gcd(a, b) == 1)
        assert coprime_pairs_q(x, memo) == want


def test_pinned_small_pool_matches_the_oracle():
    import rprime as rp

    pool = load_pool()
    field = rp.load_field_file(str(ROOT / pool["field"]))
    for entry in pool["small"]:
        assert rp.count_rprime_direct(field, entry["x"], entry["m"], entry["r"]) == entry["V"], entry


def test_wrong_answer_is_a_failure():
    from workloads import check

    spec = make_spec("queries-qi", 1, "tiny")
    pinned = {(e["x"], e["m"], e["r"]): e["V"] for e in load_pool()["small"]}
    answers = [pinned[tuple(q)] for q in spec["queries"]]
    answers[0] += 1
    attempted, failed, _ = check(spec, {"answers": answers}, {})
    assert (attempted, failed) == (len(answers), 1)


def test_refuses_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "pool_qi.json").write_bytes((BENCH / "pool_qi.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
