"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they happen.  The heavy tables are session fixtures shared across
criteria, so the whole module stays well inside the stated runtime
budgets on a desk machine.
"""

import math
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from rprime import (
    build_tables,
    count_rprime_direct_upto,
    count_rprime_mobius,
    dedekind_zeta,
    enumerate_ideals,
    error_term_exponent,
    fit_slope,
    ideal_count,
    ideal_remainder_exponent,
    is_sharper,
    run_error_scan,
    sittinger_exponent,
)
from rprime.analytic import abelian_exponent

PAIRS_MR = [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table_q_big(field_q):
    return build_tables(field_q, 2**20)


@pytest.fixture(scope="module")
def table_qi_1e5(field_qi):
    return build_tables(field_qi, 10**5)


def test_criterion_1_mobius_identity_equals_direct_count(fields):
    t0 = time.time()
    checked = 0
    for name, field in fields.items():
        table = build_tables(field, 300)
        n_ideals = ideal_count(table, 300)
        for m, r in PAIRS_MR:
            if n_ideals**m > 10**9:
                continue
            direct = count_rprime_direct_upto(field, 300, m, r)
            mobius = np.array(
                [count_rprime_mobius(table, x, m, r) for x in range(1, 301)], dtype=np.int64
            )
            assert np.array_equal(direct[1:], mobius), (name, m, r)
            checked += 300
    elapsed = time.time() - t0
    _report(
        "criterion 1: Mobius-sum identity == direct count, 5 fields, x <= 300, 5 (m,r) pairs",
        checked == 5 * len(PAIRS_MR) * 300 and elapsed < 300,
        f"{checked} equalities, {elapsed:.1f}s",
    )


def test_criterion_2_ideal_count_anchors(fields, table_q_big, table_qi_1e5):
    floor_ok = bool(
        np.array_equal(
            table_q_big.I_prefix[: 10**6 + 1], np.arange(10**6 + 1, dtype=np.int64)
        )
    )
    gaussian_ok = ideal_count(table_qi_1e5, 100) == 79
    enum_ok = True
    for name, field in fields.items():
        table = build_tables(field, 10**4)
        norms = np.zeros(10**4 + 1, dtype=np.int64)
        for norm, _ in enumerate_ideals(field, 10**4, 1):
            norms[norm] += 1
        enum_ok = enum_ok and bool(np.array_equal(np.cumsum(norms), table.I_prefix))
    _report(
        "criterion 2: ideal-count anchors (floor over Q to 1e6, Gaussian I(100)=79, "
        "enumeration lengths to 1e4)",
        floor_ok and gaussian_ok and enum_ok,
    )


def test_criterion_3_density_convergence(fields, table_q_big, table_qi_1e5):
    q = fields["Q"]
    qi = fields["Qi"]
    inv_zeta2 = 1.0 / dedekind_zeta(q, 2, 1e-6)
    v21 = count_rprime_mobius(table_q_big, 10**4, 2, 1)
    d1 = abs(v21 / 10**8 - inv_zeta2)
    v12 = count_rprime_mobius(table_q_big, 10**6, 1, 2)
    d2 = abs(v12 / 10**6 - inv_zeta2)
    inv_zeta_qi = 1.0 / dedekind_zeta(qi, 2, 1e-6)
    v12i = count_rprime_mobius(table_qi_1e5, 10**5, 1, 2)
    d3 = abs(v12i / (math.pi / 4 * 10**5) - inv_zeta_qi)
    _report(
        "criterion 3: densities converge to the inverse zeta values",
        d1 <= 0.005 and d2 <= 0.005 and d3 <= 0.01,
        f"deviations {d1:.2e}, {d2:.2e}, {d3:.2e}",
    )


def test_criterion_4_unit_tuple_identity(fields):
    ok = True
    for name, field in fields.items():
        table = build_tables(field, 10**4)
        for x in range(1, 10**4 + 1):
            if count_rprime_mobius(table, x, 1, 1) != 1:
                ok = False
                break
    _report("criterion 4: single-ideal 1-prime count is exactly 1 up to 1e4, all fields", ok)


def test_criterion_5_exponent_tables_exact():
    r3 = ideal_remainder_exponent(3)
    r7 = ideal_remainder_exponent(7)
    r10 = ideal_remainder_exponent(10)
    mtb = error_term_exponent(3, 1, 2)
    sit = sittinger_exponent(1, 1, 2)
    abel = abelian_exponent(4, 1, 2)
    ok = (
        (r3.exponent, r3.log_power, r3.epsilon_flag) == (F(26, 51), F(10, 17), False)
        and (r7.exponent, r7.log_power, r7.epsilon_flag) == (F(25, 98), F(2, 7), False)
        and (r10.exponent, r10.log_power, r10.epsilon_flag) == (F(3, 16), F(0), True)
        and (mtb.exponent, mtb.log_power) == (F(38, 51), F(20, 17))
        and (sit.exponent, sit.log_power) == (F(1, 2), F(0))
        and (abel.exponent, abel.epsilon_flag) == (F(3, 4), True)
    )
    _report("criterion 5: exponent tables match the pinned exact rationals", ok)


def test_criterion_6_improvement_sweep():
    failures = []
    for n in range(3, 31):
        for m in range(1, 5):
            for r in range(1, 5):
                if m == 1 and r == 1:
                    continue
                if not is_sharper(error_term_exponent(n, m, r), sittinger_exponent(n, m, r)):
                    failures.append((n, m, r))
    _report(
        "criterion 6: sharpened bound beats the classical one for all "
        "3 <= n <= 30, m <= 4, r <= 4",
        not failures,
        f"{28 * 15} cases",
    )


def test_criterion_7_zeta_accuracy(fields):
    zq = dedekind_zeta(fields["Q"], 2, 1e-6)
    zqi = dedekind_zeta(fields["Qi"], 2, 1e-6)
    dq = abs(zq - math.pi**2 / 6)
    dqi = abs(zqi - 1.5067030)
    _report(
        "criterion 7: zeta accuracy at s=2 (rational and Gaussian fields)",
        dq <= 2e-6 and dqi <= 5e-6,
        f"|dQ|={dq:.2e}, |dQi|={dqi:.2e}",
    )


def test_criterion_8_empirical_slopes(fields, table_q_big):
    q = fields["Q"]
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # capped main-term certification
        squarefree = fit_slope(
            run_error_scan(q, 1, 2, 2**10, 2**20, 11, table_N=2**20, table=table_q_big)
        )
        coprime = fit_slope(
            run_error_scan(q, 2, 1, 2**10, 2**20, 11, table_N=2**20, table=table_q_big)
        )
    elapsed = time.time() - t0
    _report(
        "criterion 8: empirical slope diagnostics (squarefree in [0.2, 0.75], "
        "coprime pairs in [0.7, 1.3])",
        0.2 <= squarefree.slope <= 0.75 and 0.7 <= coprime.slope <= 1.3 and elapsed < 120,
        f"slopes {squarefree.slope:.3f}, {coprime.slope:.3f}; {elapsed:.1f}s",
    )
