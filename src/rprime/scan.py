"""Error-term scans over geometric x-grids and log-log slope fits.

The grids are geometric because the exponent lives in log-log space:
one observation per grid point records the exact tuple count, the main
term, their difference E, and the log10 coordinates used for fitting.
Points with E = 0 (possible at tiny x over the rationals) carry no
log10|E| and are excluded from fits rather than clamped, since any
floor value would bias the slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import main_term
from .fields import FieldSpec
from .sieve import CoefficientTable, build_tables, count_rprime_mobius


@dataclass(frozen=True)
class ScanRecord:
    """One (x, count, main term, error) observation."""

    x: float
    V: int
    main: float
    E: float
    log10_x: float
    log10_absE: float | None

    def __post_init__(self) -> None:
        if (self.log10_absE is None) != (self.E == 0.0):
            raise ValueError("log10_absE must be present exactly when E is nonzero")


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares of log10|E| against log10 x."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int

    def __post_init__(self) -> None:
        if self.points_used < 2:
            raise ValueError("a fit needs at least 2 points")


def geometric_grid(x_min: float, x_max: float, points: int) -> list[float]:
    """Equal-ratio grid from x_min to x_max inclusive."""
    if points < 2:
        raise ValueError(f"grid needs at least 2 points, got {points}")
    if not 0 < x_min < x_max:
        raise ValueError(f"need 0 < x_min < x_max, got [{x_min}, {x_max}]")
    ratio = (x_max / x_min) ** (1.0 / (points - 1))
    grid = [x_min * ratio**i for i in range(points)]
    grid[-1] = x_max  # pin the endpoint against float drift
    return grid


def make_record(x: float, V: int, main: float) -> ScanRecord:
    x = float(x)
    E = V - main
    return ScanRecord(
        x=x,
        V=V,
        main=main,
        E=E,
        log10_x=math.log10(x),
        log10_absE=None if E == 0.0 else math.log10(abs(E)),
    )


def run_error_scan(
    field: FieldSpec,
    m: int,
    r: int,
    x_min: float,
    x_max: float,
    grid_points: int,
    table_N: int,
    *,
    table: CoefficientTable | None = None,
) -> list[ScanRecord]:
    """One ScanRecord per grid point, ascending in x.

    The coefficient table is built once (or supplied) and shared by all
    grid points.  The main terms share one zeta_K(rm): on the L route
    it is computed once and cached; on the Euler ladder each grid
    point walks the cached cutoff ladder, and only a rung no earlier
    call reached is computed.
    """
    if x_max > table_N:
        raise ValueError(f"x_max={x_max} exceeds the table cap N={table_N}")
    grid = geometric_grid(x_min, x_max, grid_points)
    if table is None:
        table = build_tables(field, table_N)
    elif table.N < x_max:
        raise ValueError(f"supplied table stops at N={table.N} < x_max={x_max}")
    records = []
    for x in grid:
        V = count_rprime_mobius(table, x, m, r)
        main = main_term(field, x, m, r)
        records.append(make_record(x, V, main))
    return records


def fit_slope(records: list[ScanRecord]) -> SlopeFit:
    """OLS slope of log10|E| vs log10 x over the records with E != 0.

    The least squares are taken in closed form with `math.fsum`.  Records
    that all share one x leave the slope undetermined and are refused.
    """
    usable = [rec for rec in records if rec.log10_absE is not None]
    if len(usable) < 2:
        raise ValueError(
            f"need at least 2 records with nonzero E to fit, have {len(usable)}"
        )
    lx = [rec.log10_x for rec in usable]
    ly = [rec.log10_absE for rec in usable]
    if min(lx) == max(lx):
        raise ValueError(
            f"all {len(usable)} records with nonzero E have x = {usable[0].x!r}: "
            "a slope needs at least 2 distinct x"
        )
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    sxx = math.fsum((x - mx) ** 2 for x in lx)
    slope = math.fsum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx
    intercept = my - slope * mx
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = math.fsum((y - my) ** 2 for y in ly)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        points_used=len(usable),
    )
