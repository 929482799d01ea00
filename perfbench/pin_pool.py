"""Write ``pool_qi.json``: the queries-qi pool with V pinned by the package.

    PYTHONPATH=src python3 perfbench/pin_pool.py

The pool covers both arithmetic paths of ``count_rprime_mobius`` on the
Q(i) table at N = 1e6: ``int64`` holds (m, r) = (2, 1) queries of about
10-25 ms, ``bigint`` holds (3, 1) and (4, 1) queries that overflow the
int64 bound and take about 50-80 ms.  ``small`` holds queries the
brute-force oracle reaches; the harness self-check compares those pinned
values with the oracle, and the tiny self-check run uses them.  Re-pin
only in a change that edits the benchmark, never in one that claims a
gain.
"""

from __future__ import annotations

import json
from pathlib import Path

import rprime as rp

HERE = Path(__file__).resolve().parent
N = 10**6

GROUPS = {
    "int64": [(x, 2, 1) for x in range(500_000, N + 1, 45_000)],
    "bigint": [(x, 3, 1) for x in (450_000, 500_000, 550_000, 600_000)]
    + [(x, 4, 1) for x in (400_000, 450_000, 500_000)],
    "small": [(150, 2, 1), (200, 2, 1), (250, 2, 1), (60, 3, 1), (3000, 1, 2), (5000, 1, 2),
              (1500, 2, 2), (2500, 2, 2), (800, 3, 2), (400, 2, 3)],
}


def main() -> None:
    field = rp.load_field_file(str(HERE.parent / "fields" / "gaussian.json"))
    table = rp.build_tables(field, N)
    pool = {"field": "fields/gaussian.json", "N": N}
    for group, queries in GROUPS.items():
        pool[group] = [
            {"x": x, "m": m, "r": r, "V": rp.count_rprime_mobius(table, x, m, r)}
            for x, m, r in queries
        ]
    with open(HERE / "pool_qi.json", "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
