"""Workload definitions: seeded inputs, independent references and checks.

A workload spec is a plain JSON-able dict.  The parent process builds it
from the seed and hands it to a fresh child interpreter (``child.py``),
so the program under test only ever sees the generated inputs.  After
the child returns, ``check`` compares every exact output with a
reference that does not come from the code path being timed.

Why each workload exists (see README.md for the layer map):

- ``scan-q``: the paper's headline measurement, an error scan against
  (c x)^m / zeta_K(rm) on Q with m=2, r=1, followed by the slope fit.
  The main term (``analytic``) dominates its run time; Q's splitting is
  trivial, so set-up is the pure ``sieve`` table spread.
- ``tables-cubic``: the cubic x^3-x-1, whose per-prime splitting goes
  through ``polygf`` factorization (set-up), and whose run is the
  brute-force oracle in ``ideals`` cross-checked against the Mobius
  count.  The spec has no invariants, so ``analytic`` is bypassed.
- ``queries-qi``: Q(i) table at N=1e6, then a stream of Mobius-sum
  counts over a pinned pool that covers both arithmetic paths of
  ``sieve.count_rprime_mobius`` (int64 and big-int).  Splitting uses
  the Kronecker route; ``analytic`` is bypassed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "pool_qi.json"

WORKLOADS = ("scan-q", "tables-cubic", "queries-qi")

# A main term may differ from (c x)^m / zeta_K(rm), with zeta(2) = pi^2/6
# taken from ``math``, by at most this share.  The parent commit of the
# benchmark measures 5.86e-9 (Euler product to the 1e7 prime cap).
MAIN_REL_ERR_LIMIT = 1e-8
# pi^2/6 in double precision is itself rounded by about 1e-16, so shares
# below this floor are not resolvable and are reported as the floor.
MAIN_REL_ERR_FLOOR = 1e-15

# Seeded queries for tables-cubic: (count, m, r, x_lo, x_hi).  Each
# stratum gets its x values spread evenly over [x_lo, x_hi) with a
# seeded offset inside each slot, so every seed does about the same work.
CUBIC_STRATA = {
    "full": [
        (8, 2, 1, 320, 380),
        (4, 3, 1, 130, 150),
        (3, 1, 2, 2400, 2800),
        (3, 2, 2, 1800, 2200),
        (2, 3, 2, 850, 950),
    ],
    "tiny": [
        (2, 2, 1, 40, 60),
        (1, 1, 2, 300, 400),
        (1, 2, 2, 200, 300),
    ],
}

# Passes over the run section after one set-up, per child.  scan-q makes
# one: a second scan in the same process would hit the zeta cache.
PASSES = {"scan-q": 1, "tables-cubic": 3, "queries-qi": 2}

# Query stream for queries-qi: how many draws from each pool group.
POOL_GROUPS = ("int64", "bigint", "small")
QI_STREAM = {
    "full": {"int64": 160, "bigint": 40},
    "tiny": {"small": 20},
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _spread(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    width = (hi - lo) / count
    return [int(lo + (i + rng.random()) * width) for i in range(count)]


def load_pool() -> dict:
    with open(POOL_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def pool_entries(pool: dict) -> list[dict]:
    return [entry for group in POOL_GROUPS for entry in pool[group]]


def make_spec(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs for one workload, a pure function of (workload, seed, size)."""
    spec = _inputs(workload, _rng(workload, seed), size)
    spec["workload"] = workload
    spec["passes"] = PASSES[workload]
    return spec


def _inputs(workload: str, rng: random.Random, size: str) -> dict:
    if workload == "scan-q":
        if size == "full":
            x_min = 2**12 + rng.randrange(2**8)
            x_max = 2**22 - rng.randrange(2**14)
            points = 11
        else:
            x_min = 2**6 + rng.randrange(2**4)
            x_max = 2**12 - rng.randrange(2**6)
            points = 3
        return {
            "field": "fields/q.json",
            "N": x_max,
            "m": 2,
            "r": 1,
            "x_min": x_min,
            "x_max": x_max,
            "points": points,
        }
    if workload == "tables-cubic":
        queries = []
        for count, m, r, lo, hi in CUBIC_STRATA[size]:
            queries += [[x, m, r] for x in _spread(rng, count, lo, hi)]
        rng.shuffle(queries)
        return {
            "field": "fields/cubic_x3mxm1.json",
            "N": 200_000 if size == "full" else 5_000,
            "queries": queries,
        }
    if workload == "queries-qi":
        pool = load_pool()
        queries = []
        for group, count in QI_STREAM[size].items():
            entries = pool[group]
            queries += [[e["x"], e["m"], e["r"]] for e in rng.choices(entries, k=count)]
        rng.shuffle(queries)
        return {
            "field": "fields/gaussian.json",
            "N": pool["N"] if size == "full" else max(q[0] for q in queries),
            "queries": queries,
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- references


def totient_summatory(n: int, memo: dict[int, int]) -> int:
    """Phi(n) = sum_{k<=n} phi(k), from sum_{d<=n} Phi(n // d) = n(n+1)/2.

    Independent of the package: no tables, no Mobius sums, no splitting.
    """
    if n in memo:
        return memo[n]
    total = n * (n + 1) // 2
    d = 2
    while d <= n:
        q = n // d
        d_next = n // q + 1
        total -= (d_next - d) * totient_summatory(q, memo)
        d = d_next
    memo[n] = total
    return total


def coprime_pairs_q(x: float, memo: dict[int, int]) -> int:
    """Ordered pairs (a, b) of positive integers <= x with gcd 1: the
    relatively 1-prime 2-tuples of ideals of Q."""
    return 2 * totient_summatory(int(x), memo) - 1


def _ols_slope(xs: list[float], ys: list[float]) -> float:
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = math.fsum((a - mx) ** 2 for a in xs)
    return sxy / sxx


def _main_errors(records: list[dict]) -> list[float]:
    """|main - x^2/zeta(2)| / main for each point of a Q, m=2, r=1 scan."""
    zeta2 = math.pi**2 / 6
    return [abs(rec["main"] - rec["x"] ** 2 / zeta2) / rec["main"] for rec in records]


def main_rel_err(records: list[dict]) -> float:
    """Largest relative main-term error over a Q, m=2, r=1 scan."""
    return max(max(_main_errors(records)), MAIN_REL_ERR_FLOOR)


def check(spec: dict, result: dict, memo: dict[int, int]) -> tuple[int, int, list[str]]:
    """Compare the outputs of one pass with their references.

    Returns (attempted, failed, messages).  An operation fails when it
    raised (the child reports it as a missing answer) or when an exact
    integer differs from its reference.
    """
    messages = list(result.get("errors", []))
    workload = spec["workload"]
    if workload == "scan-q":
        # one V and one main term per grid point, plus the slope fit
        attempted = 2 * spec["points"] + 1
        records = result.get("records", [])
        if len(records) != spec["points"]:
            messages.append(f"scan returned {len(records)} records, want {spec['points']}")
            return attempted, attempted, messages
        failed = 0
        for rec in records:
            want = coprime_pairs_q(rec["x"], memo)
            if rec["V"] != want:
                failed += 1
                messages.append(f"V({rec['x']}) = {rec['V']}, want {want}")
        for rec, err in zip(records, _main_errors(records)):
            if not err <= MAIN_REL_ERR_LIMIT:
                failed += 1
                messages.append(f"main({rec['x']}) off by {err:.3e}, limit {MAIN_REL_ERR_LIMIT:.0e}")
        usable = [rec for rec in records if rec["V"] != rec["main"]]
        slope = result.get("slope")
        if len(usable) < 2:
            failed += 1
            messages.append(f"only {len(usable)} points with E != 0 to fit")
        else:
            want_slope = _ols_slope(
                [math.log10(rec["x"]) for rec in usable],
                [math.log10(abs(rec["V"] - rec["main"])) for rec in usable],
            )
            if slope is None or not abs(slope - want_slope) <= 1e-9 * max(1.0, abs(want_slope)):
                failed += 1
                messages.append(f"fit slope {slope}, want {want_slope}")
        return attempted, failed, messages
    answers = result.get("answers", [])
    attempted = len(spec["queries"])
    if len(answers) != attempted:
        messages.append(f"{len(answers)} answers for {attempted} queries")
        return attempted, attempted, messages
    failed = 0
    if workload == "tables-cubic":
        for (x, m, r), (direct, mobius) in zip(spec["queries"], answers):
            if direct is None or direct != mobius:
                failed += 1
                messages.append(f"(x={x}, m={m}, r={r}): oracle {direct} != mobius {mobius}")
        return attempted, failed, messages
    if workload == "queries-qi":
        pinned = {(e["x"], e["m"], e["r"]): e["V"] for e in pool_entries(load_pool())}
        for (x, m, r), V in zip(spec["queries"], answers):
            if V is None or V != pinned[(x, m, r)]:
                failed += 1
                messages.append(f"(x={x}, m={m}, r={r}): {V} != pinned {pinned[(x, m, r)]}")
        return attempted, failed, messages
    raise ValueError(f"unknown workload {workload!r}")
