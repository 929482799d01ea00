import math

import numpy as np
import pytest

from rprime import build_tables, fit_slope, run_error_scan
from rprime.scan import ScanRecord, geometric_grid, make_record


def _synthetic(xs, slope, intercept):
    # records lying exactly on log10|E| = slope*log10 x + intercept
    records = []
    for x in xs:
        log_e = slope * math.log10(x) + intercept
        e = 10**log_e
        records.append(make_record(x, 0, -e))
    return records


def test_geometric_grid_ratios():
    grid = geometric_grid(2, 32, 5)
    assert grid == pytest.approx([2, 4, 8, 16, 32])
    assert grid[-1] == 32


def test_geometric_grid_validation():
    with pytest.raises(ValueError):
        geometric_grid(2, 32, 1)
    with pytest.raises(ValueError):
        geometric_grid(32, 2, 5)


def test_record_invariant_enforced():
    with pytest.raises(ValueError):
        ScanRecord(x=1.0, V=1, main=1.0, E=0.0, log10_x=0.0, log10_absE=0.0)
    with pytest.raises(ValueError):
        ScanRecord(x=1.0, V=2, main=1.0, E=1.0, log10_x=0.0, log10_absE=None)


def test_fit_exact_line():
    records = _synthetic([10, 100, 1000, 10000], 0.5, 1.0)
    fit = fit_slope(records)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 4


def test_fit_excludes_zero_errors():
    records = _synthetic([10, 100, 1000], 0.5, 1.0)
    records.append(make_record(5.0, 7, 7.0))  # E = 0, no log10_absE
    fit = fit_slope(records)
    assert fit.points_used == 3
    assert fit.slope == pytest.approx(0.5, abs=1e-12)


def test_fit_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        fit_slope(_synthetic([10], 0.5, 1.0))
    with pytest.raises(ValueError, match="at least 2"):
        fit_slope([make_record(5.0, 7, 7.0)])


def test_fit_refuses_records_at_one_x():
    # two records at x = 1000 with different E: no line through them has
    # a slope, so they are refused rather than fitted to one
    records = [make_record(1000, 5, 3.0), make_record(1000, 9, 3.0)]
    with pytest.raises(ValueError, match="all 2 records with nonzero E have x = 1000.0"):
        fit_slope(records)
    # a zero-E record at another x does not count as a second x
    with pytest.raises(ValueError, match="at least 2 distinct x"):
        fit_slope([*records, make_record(10, 7, 7.0)])


def test_fit_matches_least_squares_off_the_line():
    xs = [10, 100, 1000, 10000, 2.5e4]
    records = [make_record(x, 0, -(x**0.5) * (1.5 if i % 2 else 0.75)) for i, x in enumerate(xs)]
    lx = [rec.log10_x for rec in records]
    ly = [rec.log10_absE for rec in records]
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = fit_slope(records)
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12)
    residual = sum((y - slope * x - intercept) ** 2 for x, y in zip(lx, ly))
    spread = sum((y - np.mean(ly)) ** 2 for y in ly)
    assert fit.r_squared == pytest.approx(1 - residual / spread, rel=1e-12)
    assert 0 < fit.r_squared < 1


def test_scan_single_point_values(field_q):
    records = run_error_scan(field_q, 2, 1, 5, 10, 2, table_N=100)
    assert [rec.x for rec in records] == [5.0, 10.0]
    last = records[-1]
    assert last.V == 63
    assert last.main == pytest.approx(100 / (math.pi**2 / 6), abs=1e-3)
    assert last.E == pytest.approx(63 - 100 / (math.pi**2 / 6), abs=1e-3)
    assert last.log10_x == pytest.approx(1.0)
    assert last.log10_absE == pytest.approx(math.log10(abs(last.E)))


def test_scan_records_ascending_and_reuse_table(field_q):
    table = build_tables(field_q, 4096)
    records = run_error_scan(field_q, 1, 2, 16, 4096, 9, table_N=4096, table=table)
    xs = [rec.x for rec in records]
    assert xs == sorted(xs)
    assert len(records) == 9


def test_scan_grid_beyond_table_is_an_error(field_q):
    with pytest.raises(ValueError, match="exceeds"):
        run_error_scan(field_q, 1, 2, 10, 10**5, 5, table_N=10**4)
    table = build_tables(field_q, 100)
    with pytest.raises(ValueError, match="stops at"):
        run_error_scan(field_q, 1, 2, 10, 10**3, 5, table_N=10**3, table=table)


def _squarefree_count(x):
    count = 0
    for n in range(1, x + 1):
        m = n
        squarefree = True
        d = 2
        while d * d <= m:
            if m % (d * d) == 0:
                squarefree = False
                break
            while m % d == 0:
                m //= d
            d += 1
        if squarefree:
            count += 1
    return count


def test_scan_counts_match_squarefree_oracle(field_q):
    records = run_error_scan(field_q, 1, 2, 2**7, 2**10, 4, table_N=2**10)
    for rec in records:
        assert rec.V == _squarefree_count(int(rec.x))


def test_scan_squarefree_slope_sane(field_q):
    # small version of the squarefree experiment; the loose band is
    # all the asymptotics justify at this scale
    table = build_tables(field_q, 2**14)
    records = run_error_scan(field_q, 1, 2, 2**6, 2**14, 9, table_N=2**14, table=table)
    fit = fit_slope(records)
    assert 0.0 < fit.slope < 1.0
