import math
import warnings
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rprime.analytic as analytic
import rprime.characters as characters
from rprime import (
    FieldInvariants,
    FieldSpec,
    ToleranceError,
    abelian_exponent,
    dedekind_zeta,
    dedekind_zeta_with_cutoff,
    error_term_exponent,
    ideal_remainder_exponent,
    is_sharper,
    load_field_file,
    main_term,
    run_error_scan,
    sittinger_exponent,
)
from rprime.analytic import ExponentResult
from rprime.fields import splitting_type
from rprime.sieve import count_rprime_mobius, prime_segments, primes_between


# x^3 - x - 1 takes the Euler ladder: it is not abelian, so it has no
# characters.  The invariants are those of its table density check.
_CUBIC_WITH_INVARIANTS = FieldSpec(
    "cubic x^3-x-1",
    (-1, -1, 0, 1),
    invariants=FieldInvariants(r1=1, r2=1, h=1, R=0.2811995744, w=2, d_K=-23),
)


def _riemann_zeta_reference(s: float, terms: int = 10**4) -> float:
    """Partial sum plus Euler-Maclaurin tail; error far below 1e-8."""
    partial = sum(n**-s for n in range(1, terms + 1))
    tail = terms ** (1 - s) / (s - 1) - 0.5 * terms**-s + s / 12 * terms ** (-s - 1)
    return partial + tail


def _catalan_reference(terms: int = 200000) -> float:
    return sum((-1) ** k / (2 * k + 1) ** 2 for k in range(terms))


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_zeta_rational_matches_partial_sums(field_q, s):
    tol = 1e-6
    assert dedekind_zeta(field_q, s, tol) == pytest.approx(
        _riemann_zeta_reference(s), abs=2 * tol
    )


def test_zeta_rational_large_argument(field_q):
    value = dedekind_zeta(field_q, 20, 1e-9)
    assert 1 < value < 1 + 1e-5


def test_zeta_gaussian_factorizes(field_qi):
    # the degree-2 value splits as zeta(2) times an alternating series
    expected = _riemann_zeta_reference(2.0) * _catalan_reference()
    assert dedekind_zeta(field_qi, 2, 1e-6) == pytest.approx(expected, abs=5e-6)


def test_zeta_refinement_stable(field_cubic):
    # doubling the certified cutoff moves the value by less than tol
    tol = 1e-5
    value, cutoff, _ = dedekind_zeta_with_cutoff(field_cubic, 2, tol)
    refined, refined_cutoff, _ = dedekind_zeta_with_cutoff(field_cubic, 2, tol / 8)
    assert refined_cutoff >= 2 * cutoff
    assert abs(refined - value) < tol


def test_zeta_rejects_pole(field_q):
    with pytest.raises(ValueError, match="diverges"):
        dedekind_zeta(field_q, 1.0, 1e-6)


@pytest.mark.parametrize("strict", [True, False])
def test_zeta_rejects_nan_before_the_cache(field_q, monkeypatch, strict):
    def no_rungs(*args):
        raise AssertionError("a NaN argument reached the Euler product")

    monkeypatch.setattr(analytic, "_euler_log_sum", no_rungs)
    with pytest.raises(ValueError, match="diverges"):
        dedekind_zeta_with_cutoff(field_q, math.nan, 1e-6, strict=strict)
    with pytest.raises(ValueError, match="tolerance"):
        dedekind_zeta_with_cutoff(field_q, 2, math.nan, strict=strict)


def test_zeta_unreachable_tolerance(field_cubic):
    # the top rung at 1e7 certifies only 3.1e-8 at s = 2
    with pytest.raises(ToleranceError, match="euler route certifies only 3.120e-08"):
        dedekind_zeta(field_cubic, 2, 1e-9)


@pytest.mark.parametrize("cap", [1, 0, -5])
def test_prime_cap_below_two_rejected(field_q, cap):
    # the Euler ladder is fixed, so no call takes a prime cap at all
    for call in (
        lambda: dedekind_zeta(field_q, 2, 1e-6, prime_cap=cap),
        lambda: dedekind_zeta_with_cutoff(field_q, 2, 1e-6, prime_cap=cap),
        lambda: main_term(field_q, 10, 2, 1, prime_cap=cap),
        lambda: run_error_scan(field_q, 2, 1, 4, 64, 3, 64, prime_cap=cap),
    ):
        with pytest.raises(TypeError, match="prime_cap"):
            call()


def test_main_term_example(field_q):
    assert main_term(field_q, 10, 2, 1) == pytest.approx(100 / (math.pi**2 / 6), abs=1e-3)


def test_main_term_homogeneous_in_x(field_qi):
    for m in (1, 2, 3):
        base = main_term(field_qi, 50, m, 2)
        assert main_term(field_qi, 100, m, 2) == pytest.approx(2**m * base, rel=1e-9)


def test_main_term_rejects_pole(field_q):
    with pytest.raises(ValueError, match="r\\*m"):
        main_term(field_q, 10, 1, 1)


@pytest.mark.parametrize("x", [-5, -1e-9, math.nan, math.inf, -math.inf, 1e200])
def test_main_term_rejects_bad_x(field_q, x):
    # 1e200 is finite, but (c*x)^2 leaves the float range
    with pytest.raises(ValueError, match="x must be finite.*m=2"):
        main_term(field_q, x, 2, 1)


def test_main_term_at_zero(field_q):
    assert main_term(field_q, 0, 2, 1) == 0.0


def test_main_term_warns_when_target_uncertifiable():
    with pytest.warns(UserWarning, match="certified"):
        main_term(_CUBIC_WITH_INVARIANTS, 10**6, 2, 1)


def test_error_term_examples(field_q, table_q_1e4):
    def error(x, m, r):
        return count_rprime_mobius(table_q_1e4, x, m, r) - main_term(field_q, x, m, r)

    assert error(10, 2, 1) == pytest.approx(63 - 100 / (math.pi**2 / 6), abs=1e-3)
    assert error(10, 1, 2) == pytest.approx(7 - 10 / (math.pi**2 / 6), abs=1e-3)
    assert error(1, 1, 2) == pytest.approx(1 - 1 / (math.pi**2 / 6), abs=1e-4)


def test_remainder_exponents_pinned_values():
    r3 = ideal_remainder_exponent(3)
    assert (r3.exponent, r3.log_power, r3.epsilon_flag) == (F(26, 51), F(10, 17), False)
    r7 = ideal_remainder_exponent(7)
    assert (r7.exponent, r7.log_power, r7.epsilon_flag) == (F(25, 98), F(2, 7), False)
    r10 = ideal_remainder_exponent(10)
    assert (r10.exponent, r10.log_power, r10.epsilon_flag) == (F(3, 16), F(0), True)
    assert ideal_remainder_exponent(6).exponent == F(7, 24)


def test_remainder_exponents_domain():
    with pytest.raises(ValueError):
        ideal_remainder_exponent(2)


def test_remainder_exponents_positive_and_bounded():
    # the saving is positive throughout; it stays under 2/n only while
    # the first two branches apply (the n >= 10 branch overtakes 2/n
    # from n = 12 on, which is the point of that estimate)
    for n in range(3, 31):
        a = ideal_remainder_exponent(n).exponent
        assert 0 < a
        if n <= 11:
            assert a < F(2, n)
    assert ideal_remainder_exponent(6).exponent > ideal_remainder_exponent(7).exponent > 0


def test_error_term_exponent_cases():
    res = error_term_exponent(3, 2, 2)
    assert (res.exponent, res.log_power) == (F(76, 51), F(10, 17))
    res = error_term_exponent(3, 2, 1)
    assert (res.exponent, res.log_power) == (F(76, 51), F(37, 17))
    res = error_term_exponent(3, 1, 2)
    assert (res.exponent, res.log_power) == (F(38, 51), F(20, 17))
    assert error_term_exponent(12, 1, 3).epsilon_flag is True


def test_error_term_exponent_uncovered():
    with pytest.raises(ValueError):
        error_term_exponent(3, 1, 1)
    with pytest.raises(ValueError):
        error_term_exponent(2, 2, 2)


def test_sittinger_cases():
    assert sittinger_exponent(1, 1, 2) == ExponentResult(F(1, 2), F(0))
    assert sittinger_exponent(5, 3, 1) == ExponentResult(F(14, 5), F(0))
    assert sittinger_exponent(4, 2, 1) == ExponentResult(F(7, 4), F(1))
    # m = 1 pivot cases: n(r-2)/(r-1) equal to, above, below 1
    assert sittinger_exponent(2, 1, 3) == ExponentResult(F(1, 2), F(1))
    assert sittinger_exponent(3, 1, 3) == ExponentResult(F(2, 3), F(0))
    assert sittinger_exponent(1, 1, 3) == ExponentResult(F(1, 3), F(0))


def test_sittinger_uncovered():
    with pytest.raises(ValueError):
        sittinger_exponent(3, 1, 1)


def test_abelian_cases():
    res = abelian_exponent(4, 1, 2)
    assert (res.exponent, res.epsilon_flag) == (F(3, 4), True)
    res = abelian_exponent(4, 2, 1)
    assert (res.exponent, res.epsilon_flag) == (F(3, 2), True)
    assert abelian_exponent(10, 1, 3).exponent == F(3, 4)
    with pytest.raises(ValueError):
        abelian_exponent(3, 1, 2)


def test_sharper_comparator():
    plain = ExponentResult(F(1, 2), F(0))
    assert is_sharper(ExponentResult(F(1, 3), F(5)), plain)
    assert is_sharper(ExponentResult(F(1, 2), F(0)), ExponentResult(F(1, 2), F(1)))
    assert not is_sharper(plain, plain)
    # a flagged endpoint loses ties: +eps beats any log power
    flagged = ExponentResult(F(1, 2), F(0), epsilon_flag=True)
    assert not is_sharper(flagged, ExponentResult(F(1, 2), F(9)))
    assert is_sharper(ExponentResult(F(1, 2), F(9)), flagged)


def test_improvement_over_classical_bound_sweep():
    for n in range(3, 31):
        for m in range(1, 5):
            for r in range(1, 5):
                if m == 1 and r == 1:
                    continue
                improved = error_term_exponent(n, m, r)
                classical = sittinger_exponent(n, m, r)
                assert is_sharper(improved, classical), (n, m, r)


def _sequential_zeta_ladder(field, s, top):
    """Reference: the per-prime sequential Euler product, one
    (value, cutoff, certified error) triple per rung of the ladder
    4096 * 4^k, capped at top."""
    n = field.degree
    ladder = []
    product = 1.0
    lo, hi = 2, 4096
    while not ladder or ladder[-1][1] < top:
        for p in primes_between(lo, min(hi, top)).tolist():
            for _, f in splitting_type(field, p).parts:
                product /= 1.0 - p ** (-f * s)
        P = min(hi, top)
        # the Rosser-Schoenfeld prime sum, or the integral where it is smaller
        prime_sum = P ** (1.0 - s) * min(
            1.0 / (s - 1.0), (1.25506 * s / (s - 1.0) - 1.0) / math.log(P)
        )
        tail_log = n * prime_sum / (1.0 - P ** (-s))
        # plus float64 rounding: 128 u of the log sum, and 4 u
        slack = tail_log + 128 * 2.0**-53 * math.log(product) + 4 * 2.0**-53
        ladder.append((product, P, product * math.expm1(slack)))
        lo, hi = hi + 1, hi * 4
    return ladder


@pytest.fixture
def short_ladder(monkeypatch):
    """Sets the Euler ladder's rungs for one test, on a cold rung cache;
    the cache is cleared again on exit, before the rungs are restored."""

    def set_rungs(rungs):
        monkeypatch.setattr(analytic, "_RUNGS", tuple(rungs))
        analytic._euler_log_sum.cache_clear()

    yield set_rungs
    analytic._euler_log_sum.cache_clear()


def _ladder(field, s, tol):
    # the Euler-product route, also for a field that takes the L route:
    # the first rung that certifies tol, else the top rung
    return analytic._euler_zeta(field, float(s), tol)


def _assert_triples_close(got, want):
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
    assert got[2] == pytest.approx(want[2], rel=1e-12, abs=0)


@pytest.mark.parametrize("s", [2.0, 3.0])
@pytest.mark.parametrize("name", ["Q", "Qi", "Qsqrt2", "Qsqrtm5", "cubic"])
def test_zeta_ladder_matches_sequential_product(fields, short_ladder, name, s):
    # a cubic splitting type costs a polynomial factorization, so it keeps to two
    # rungs; the others end on a rung off the 4096 * 4^k grid, as 1e7 is
    cutoffs = [4096, 16384] if name == "cubic" else [4096, 16384, 65536, 262144, 300000]
    short_ladder(cutoffs)
    field = fields[name]
    ladder = _sequential_zeta_ladder(field, s, cutoffs[-1])
    assert [P for _, P, _ in ladder] == cutoffs
    for want in ladder:
        # just above this rung's error, well below the previous rung's
        got = _ladder(field, s, want[2] * (1 + 1e-9))
        _assert_triples_close(got, want)
    got = _ladder(field, s, 1e-30)
    _assert_triples_close(got, ladder[-1])
    if name == "cubic":  # the one field here without characters
        assert dedekind_zeta_with_cutoff(field, s, 1e-30, strict=False) == got
        with pytest.raises(ToleranceError, match="unreachable: the euler route"):
            dedekind_zeta_with_cutoff(field, s, 1e-30)


def test_rational_rungs_are_plain_log1p_sums(field_q, short_ladder):
    # Q's zeta value stays bit-identical to one log1p sum per rung
    for s in (2.0, 3.0):
        short_ladder([4096, 16384, 65536, 10**5])
        total = 0.0
        for k, (lo, hi) in enumerate([(2, 4096), (4097, 16384), (16385, 65536)]):
            p = primes_between(lo, hi)
            total += -np.log1p(-(p.astype(np.float64) ** -s)).sum()
            assert analytic._euler_log_sum(field_q, s, k) == total


def test_zeta_triple_independent_of_cache_order(field_qi, short_ladder):
    short_ladder([4096, 16384, 65536, 262144, 10**6])
    cold = _ladder(field_qi, 2, 1e-3)
    analytic._euler_log_sum.cache_clear()
    _ladder(field_qi, 2, 1e-30)
    warm = _ladder(field_qi, 2, 1e-3)
    assert warm == cold
    assert cold[1] < 10**6


def test_scan_sieves_each_rung_once(monkeypatch):
    calls = []

    def counting_prime_segments(lo, hi):
        calls.append((lo, hi))
        return prime_segments(lo, hi)

    monkeypatch.setattr(analytic, "prime_segments", counting_prime_segments)
    monkeypatch.setattr("rprime.scan.count_rprime_mobius", lambda table, x, m, r: 0)
    analytic._euler_log_sum.cache_clear()
    with pytest.warns(UserWarning, match="certified"):
        records = run_error_scan(
            _CUBIC_WITH_INVARIANTS, 2, 1, 2**12, 2**22, 11, 2**22, table=SimpleNamespace(N=2**22)
        )
    assert len(records) == 11
    # every point asks for more than the top rung certifies, so each walks all 7
    # rungs; each rung sieves only its own range, once
    assert calls == [
        (2, 4096),
        (4097, 16384),
        (16385, 65536),
        (65537, 262144),
        (262145, 1048576),
        (1048577, 4194304),
        (4194305, 10**7),
    ]


# ------------------------------------------------------------ the L route

_FIELDS_DIR = Path(__file__).resolve().parent.parent / "fields"
_L_ROUTE_SPECS = [
    "q", "gaussian", "qsqrt2", "qsqrtm5", "cyclic_cubic7", "qzeta5", "qzeta11plus", "qzeta7",
]
# the closed forms to 40 digits (pi by Machin's formula, Catalan's
# constant by Ramanujan's series), so the certified intervals are
# checked with no float64 rounding of the exact values
_ZETA2 = Decimal("1.644934066848226436472415166646025189218949901207")
_ZETA4 = Decimal("1.082323233711138191516003696541167902774750951919")
_ZETA2_CATALAN = Decimal("1.506703009922985030886565048182071395985447701813")


# abelian fields given by poly alone, with conductors [1, 4, 8, 8] and [1, 20]
_BARE_ABELIAN = {
    "x4p1": FieldSpec("x^4+1", (1, 0, 0, 0, 1)),
    "naked": FieldSpec("naked", (5, 0, 1)),
}


def _spec(name):
    return load_field_file(str(_FIELDS_DIR / f"{name}.json"))


def _field(name):
    return _BARE_ABELIAN[name] if name in _BARE_ABELIAN else _spec(name)


def _assert_contains(triple, exact):
    value, _, err = triple
    assert abs(Decimal(value) - exact) <= Decimal(err), (value, err, exact)


def test_zeta_routes():
    for name in _L_ROUTE_SPECS + list(_BARE_ABELIAN):
        assert analytic.zeta_route(_field(name)) == "L", name
    # not abelian (the cubic, the quartic of discriminant -283 and the
    # quintic of discriminant 2869), or of conductor 957 >= 256
    for field in [
        _spec("cubic_x3mxm1"),
        FieldSpec("quartic", (-1, 1, 0, 0, 1)),
        FieldSpec("quintic", (-1, -1, 0, 0, 0, 1)),
        FieldSpec("x^2-29x-29", (-29, -29, 1)),
    ]:
        assert analytic.zeta_route(field) == "euler", field.name


@pytest.mark.parametrize(
    "name, s, exact",
    [
        ("q", 2.0, _ZETA2),
        ("q", 4.0, _ZETA4),
        ("gaussian", 2.0, _ZETA2_CATALAN),
    ],
    ids=["zeta(2)", "zeta(4)", "zeta_Q(i)(2)"],
)
def test_l_route_closed_forms(name, s, exact):
    triple = dedekind_zeta_with_cutoff(_spec(name), s, 1e-14)
    _assert_contains(triple, exact)
    assert triple[2] <= 1e-14 * triple[0]
    assert triple[1] > 0


@pytest.mark.parametrize(
    "field, s, exact",
    [
        ("Q", 2.0, _ZETA2),
        ("Q", 4.0, _ZETA4),
        ("Qi", 2.0, _ZETA2_CATALAN),
    ],
    ids=["zeta(2)", "zeta(4)", "zeta_Q(i)(2)"],
)
def test_every_ladder_rung_contains_the_closed_form(fields, short_ladder, field, s, exact):
    # every rung from 4096 to 1e7, each read as the top of a ladder cut
    # there; past 65536 the rungs of zeta(4) are held by float64
    # rounding, not by the tail
    rungs = analytic._RUNGS
    for k, P in enumerate(rungs):
        short_ladder(rungs[: k + 1])
        triple = _ladder(fields[field], s, 1e-300)
        assert triple[1] == P
        _assert_contains(triple, exact)


@pytest.mark.parametrize("s", [2.0, 3.0])
@pytest.mark.parametrize("name", _L_ROUTE_SPECS + list(_BARE_ABELIAN))
def test_l_route_agrees_with_the_ladder(short_ladder, name, s):
    short_ladder([4096, 16384, 65536, 10**5])
    field = _field(name)
    value, split, err = dedekind_zeta_with_cutoff(field, s, 1e-13)
    ladder_value, _, ladder_err = _ladder(field, s, 1e-300)
    assert abs(value - ladder_value) <= err + ladder_err
    assert split > 0


@pytest.mark.parametrize("name", _L_ROUTE_SPECS)
def test_real_characters_have_positive_l_values(name):
    real = [
        chi for chi in _spec(name).characters
        if all(k is None or 2 * k % chi.order == 0 for k in chi.phase)
    ]
    assert real  # the trivial character at least
    for s in (1.5, 2.0, 3.0):
        N = characters._split_point(s)
        for chi in real:
            value, err = characters._l_value(chi, s, N, {})
            assert value.imag == 0.0
            assert value.real - err > 0, (chi, s)


def test_qzeta7_is_certified_past_the_ladder():
    value, split, err = dedekind_zeta_with_cutoff(_spec("qzeta7"), 2, 1e-13)
    assert err <= 1e-13 and split == 16


def test_l_route_keeps_strict_and_tol(field_q):
    value, _, err = dedekind_zeta_with_cutoff(field_q, 2, 1e-30, strict=False)
    assert 0 < err < 1e-14 and value == math.pi**2 / 6
    with pytest.raises(ToleranceError, match="unreachable: the L route"):
        dedekind_zeta_with_cutoff(field_q, 2, 1e-30)


def test_l_route_checks_arguments_first(field_qi, monkeypatch):
    def no_route(*args):
        raise AssertionError("a bad argument reached the L route")

    monkeypatch.setattr(analytic, "_l_function_zeta", no_route)
    for s, tol in ((1.0, 1e-6), (math.nan, 1e-6), (2, 0.0)):
        with pytest.raises(ValueError):
            dedekind_zeta_with_cutoff(field_qi, s, tol)


@pytest.mark.parametrize("s", [1.0001, 20.0, 1e6, 1e300, math.inf])
def test_l_route_far_from_two(field_q, s):
    value, split, err = dedekind_zeta_with_cutoff(field_q, s, 1.0)
    assert split > 0 and err <= 1e-14 * value
    if s == 1.0001:  # zeta(s) = 1/(s-1) + Euler's gamma + O(s-1)
        assert value == pytest.approx(1e4 + 0.5772156649, abs=1e-4)
    else:
        assert 1.0 <= value <= 1 + 2.0**-s * 1.01


def test_scan_q_main_terms_are_certified(field_q):
    # the benchmark's scan grid: every main term to within 0.5, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (2**12, 2**17, 2**22):
            main = main_term(field_q, x, 2, 1)
            assert abs(main - x * x / (math.pi**2 / 6)) <= 1e-14 * main
