"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload scan-q ...] [--out FILE]

For every workload and end-to-end metric it prints the median over the
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and the
distance between them as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  A steady benchmark keeps every share,
except that of ``setup_s``, below a third of the bound.  ``--out`` writes
the medians and quartiles as a baseline file, with the environment of
the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write medians and quartiles here")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline: dict = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            result, env = run_once(workload, seed, bench["run_seconds"])
            baseline.setdefault("env", env)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect, {result['failed']} of {result['attempted']} failed")
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        baseline["workloads"][workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med
            ok = name == "setup_s" or share < bounds[name] / 3
            steady &= ok
            print(f"{workload:13s} {name:12s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"iqr/median {share:.4f} bound {bounds[name]} {'ok' if ok else 'WIDE'}")
            baseline["workloads"][workload][name] = {
                "median": med, "q1": q1, "q3": q3, "unit": result["metrics"][name]["unit"],
            }
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
