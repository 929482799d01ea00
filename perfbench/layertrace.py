"""Outside-in per-layer trace: wrappers around the package's public functions.

The layers are the package's modules.  ``LayerTracer.install`` replaces
each traced function at every name a caller resolves it through: a
from-import binds a separate name, so ``rprime.sieve.splitting_type``
and ``rprime.analytic.splitting_type`` are two call sites of
``fields.splitting_type`` and each gets its own wrapper.  Per-prime
functions are called millions of times, so each call site keeps
aggregate counters (calls, inclusive seconds, self seconds), never one
span per call.  Self time is a call's duration minus the time spent in
traced calls it made.

Nothing here runs in a timed (untraced) measurement; ``run.py`` reports
the difference between a traced and an untraced run as the trace
overhead.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs measured from outside.  ``cli`` only parses
# and formats and ``errors`` holds no logic, so neither is traced.
TRACED = (
    ("fields", "load_field_file"),
    ("fields", "splitting_type"),
    ("polygf", "factor_mod_p"),
    ("sieve", "prime_flags"),
    ("sieve", "build_tables"),
    ("sieve", "count_rprime_mobius"),
    ("analytic", "main_term"),
    ("analytic", "dedekind_zeta_with_cutoff"),
    ("ideals", "enumerate_ideals"),
    ("ideals", "count_rprime_direct"),
    ("scan", "run_error_scan"),
    ("scan", "fit_slope"),
)

# Functions called once per prime: they get the lean wrapper.
PER_PRIME = {"fields.splitting_type", "polygf.factor_mod_p"}


def _iroot(n: int, r: int) -> int:
    """Largest k with k**r <= n."""
    k = int(round(n ** (1.0 / r)))
    while k > 0 and k**r > n:
        k -= 1
    while (k + 1) ** r <= n:
        k += 1
    return k


class LayerTracer:
    """Aggregate counters per (layer function, call site)."""

    def __init__(self) -> None:
        # name -> site -> [calls, inclusive_s, self_s]
        self.stats: dict[str, dict[str, list]] = {}
        self._stack: list[float] = []  # child time of each open traced call
        self.mobius_s: list[float] = []
        self.count_terms = 0
        self.table_bytes = 0
        self.zeta_recomputes = 0
        self.euler_P_max = 0
        self.ideals_enumerated = 0

    def install(self, package) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        originals = {}
        for mod_name, fn_name in TRACED:
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            originals[id(getattr(module, fn_name))] = f"{mod_name}.{fn_name}"
        prefix = package.__name__ + "."
        modules = [package] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith(prefix)
        ]
        for module in modules:
            site = module.__name__[len(prefix):] if module is not package else "package"
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is not None and attr == name.split(".")[1]:
                    setattr(module, attr, self._wrap(value, name, site))

    def _wrap(self, fn, name: str, site: str):
        stat = self.stats.setdefault(name, {}).setdefault(site, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        if name in PER_PRIME:

            def lean(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt

            return lean

        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            before = self._recompute_marker() if name == "analytic.main_term" else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result, args, kwargs, dt, before)
            return result

        return wrapper

    # -------------------------------------------------- per-function counters

    def _recompute_marker(self) -> int:
        return self.calls("sieve.prime_flags") + self.calls("fields.splitting_type")

    def _after_analytic_main_term(self, result, args, kwargs, dt, before) -> None:
        if self._recompute_marker() != before:
            self.zeta_recomputes += 1

    def _after_analytic_dedekind_zeta_with_cutoff(self, result, args, kwargs, dt, before) -> None:
        self.euler_P_max = max(self.euler_P_max, int(result[1]))

    def _after_sieve_build_tables(self, result, args, kwargs, dt, before) -> None:
        size = result.a.nbytes + result.b.nbytes + result.I_prefix.nbytes
        self.table_bytes = max(self.table_bytes, size)

    def _after_sieve_count_rprime_mobius(self, result, args, kwargs, dt, before) -> None:
        bound = dict(zip(("table", "x", "m", "r"), args), **kwargs)
        self.count_terms += _iroot(int(bound["x"]), int(bound["r"]))
        self.mobius_s.append(dt)

    def _after_ideals_enumerate_ideals(self, result, args, kwargs, dt, before) -> None:
        self.ideals_enumerated += len(result)

    # ---------------------------------------------------------------- report

    def calls(self, name: str) -> int:
        return sum(stat[0] for stat in self.stats.get(name, {}).values())

    def seconds(self, name: str) -> float:
        return sum(stat[1] for stat in self.stats.get(name, {}).values())

    def self_seconds(self, name: str) -> float:
        return sum(stat[2] for stat in self.stats.get(name, {}).values())

    def report(self) -> dict:
        """Per-layer metrics (flat, by name) plus the per-site breakdown."""
        metrics: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            metrics[name + ".calls"] = self.calls(name)
            metrics[name + ".s"] = self.seconds(name)
            metrics[name + ".self_s"] = self.self_seconds(name)
        metrics["sieve.count_rprime_mobius.ms_p50"] = 1e3 * nearest_rank(self.mobius_s, 50)
        metrics["sieve.count_rprime_mobius.ms_p95"] = 1e3 * nearest_rank(self.mobius_s, 95)
        metrics["sieve.count_terms"] = self.count_terms
        metrics["sieve.table_bytes"] = self.table_bytes
        metrics["analytic.zeta_recomputes"] = self.zeta_recomputes
        metrics["analytic.euler_P_max"] = self.euler_P_max
        metrics["ideals.ideals_enumerated"] = self.ideals_enumerated
        sites = {
            name: {site: stat[0] for site, stat in by_site.items() if stat[0]}
            for name, by_site in self.stats.items()
        }
        return {"metrics": metrics, "calls_by_site": sites}


def nearest_rank(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]
