import dataclasses
import hashlib
import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rprime import (
    BudgetExceededError,
    CoefficientTable,
    FieldSpec,
    FieldSpecError,
    build_tables,
    count_rprime_mobius,
    ideal_count,
    load_field_file,
    load_table,
    local_series,
    save_table,
)
from rprime import sieve
from rprime.fields import residue_degrees
from rprime.sieve import _block_ends, _integer_root, primes_between

from conftest import FIELDS_DIR
from eta_witness import dirichlet_inverse, divisor_sums, eta_coefficients
from test_fields import _MORE_FIELDS, _field


def test_local_series_inert_quadratic():
    a, b = local_series([0, 1], 3, 81)
    assert a == [1, 0, 1, 0, 1]
    assert b == [1, 0, -1, 0, 0]


def test_local_series_split_quadratic():
    a, b = local_series([2, 0], 5, 625)
    assert a == [1, 2, 3, 4, 5]
    assert b == [1, -2, 1, 0, 0]


def test_local_series_ramified_quadratic():
    a, b = local_series([1, 0], 2, 16)
    assert a == [1, 1, 1, 1, 1]
    assert b == [1, -1, 0, 0, 0]


def _trial_division_primes(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@pytest.mark.parametrize("segment", [None, 8])
def test_primes_between_matches_trial_division(monkeypatch, segment):
    if segment is not None:
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
        # slot j holds 2j + 1 and segments start at slot max(lo, 2) // 2, so
        # across the grid each of 11^2, 13^2, 17^2 lands on the first slot
        # of some segment and on the last slot of another
        for square in (121, 169, 289):
            offsets = {(square // 2 - max(lo, 2) // 2) % segment for lo in range(80)}
            assert {0, segment - 1} <= offsets
    primes = _trial_division_primes(299)
    for lo in range(80):  # lo in {0, 1, 2} and lo > hi included
        for hi in range(300):
            got = primes_between(lo, hi)
            assert got.dtype == np.int64
            assert got.tolist() == [p for p in primes if lo <= p <= hi], (lo, hi)


def test_primes_between_counts_the_zeta_ladder_rungs():
    rungs = [(2, 4096), (4097, 16384), (16385, 65536), (65537, 262144)]
    rungs += [(262145, 1048576), (1048577, 4194304), (4194305, 10**7)]
    counts = [len(primes_between(lo, hi)) for lo, hi in rungs]
    assert counts == [564, 1336, 4642, 16458, 59025, 213922, 368632]
    assert sum(counts) == 664579  # pi(1e7)


def test_tables_rational_field_is_mobius(field_q):
    table = build_tables(field_q, 30)
    assert table.a[1:].tolist() == [1] * 30
    mobius = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert table.b[1:11].tolist() == mobius


def test_tables_gaussian_counts(field_qi):
    table = build_tables(field_qi, 10)
    assert table.a[1:11].tolist() == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]


def test_tables_low_class_number_counts(fields):
    table = build_tables(fields["Qsqrtm5"], 6)
    assert table.a[1:7].tolist() == [1, 1, 2, 1, 1, 2]


def test_tables_starting_values(fields, table_q_1e4, table_qi_1e4):
    for table in (table_q_1e4, table_qi_1e4):
        assert table.a[1] == 1 and table.b[1] == 1
        assert np.all(np.abs(table.b) <= table.a)


def test_tables_multiplicative_spot_check(table_qi_1e4):
    rng = random.Random(77)
    a = table_qi_1e4.a
    b = table_qi_1e4.b
    checked = 0
    while checked < 1000:
        u = rng.randrange(2, 200)
        v = rng.randrange(2, table_qi_1e4.N // u)
        if math.gcd(u, v) != 1:
            continue
        assert a[u * v] == a[u] * a[v]
        assert b[u * v] == b[u] * b[v]
        checked += 1


def _spread_per_prime(field, N):
    # reference spread: one strided slice pair per prime and valuation,
    # with an int64 index filter and no grouping by cofactor
    a = np.ones(N + 1, dtype=np.int32)
    b = np.ones(N + 1, dtype=np.int32)
    a[0] = b[0] = 0
    primes = primes_between(2, N)
    degrees = residue_degrees(field, primes)
    small = int(np.searchsorted(primes, math.isqrt(N), side="right"))
    for p, row in zip(primes[:small].tolist(), degrees[:small]):
        a_loc, b_loc = local_series(row, p, N)
        kmax = len(a_loc) - 1
        for k in range(1, kmax + 1):
            step = p**k
            idx = np.arange(step, N + 1, step, dtype=np.int64)
            if k < kmax:
                idx = idx[(idx // step) % p != 0]
            a[idx] *= a_loc[k]
            b[idx] *= b_loc[k]
    for p, g1 in zip(primes[small:].tolist(), degrees[small:, 0].tolist()):
        a[p::p] *= g1
        b[p::p] *= -g1
    return a, b


# both sides of every p^2 boundary (small set empty below 4, large set
# almost empty right after it), of every 2^k up to 2^8 (a new level of
# even slots), plus a size where most primes are large
_SPREAD_SIZES = [
    *range(1, 66),
    *sorted({p * p + d for p in (2, 3, 5, 7, 31) for d in (-1, 0, 1)}),
    *(2**k + d for k in (7, 8) for d in (-1, 0, 1)),
    10**4,
]

# Q(sqrt-7), where 2 splits completely: every even level multiplies a by
# a_2(v) = v + 1 and b by 1, -2, 1, 0, ...; in the other fields 2 is
# inert or ramified, or splits into ideals of degree above 1
_SPREAD_FIELDS = ["Q", "Qi", "Qsqrt2", "Qsqrtm5", "Qsqrtm7", "cubic", *_MORE_FIELDS]


def _spread_field(fields, name):
    return FieldSpec(name=name, poly=(2, 1, 1)) if name == "Qsqrtm7" else _field(fields, name)


def _assert_spread_matches_reference(field, name, sizes=_SPREAD_SIZES):
    for N in sizes:
        table = build_tables(field, N)
        a, b = _spread_per_prime(field, N)
        assert np.array_equal(table.a, a), (name, N)
        assert np.array_equal(table.b, b), (name, N)


@pytest.mark.parametrize("name", _SPREAD_FIELDS)
def test_spread_matches_per_prime_reference(fields, name):
    # in one segment up to 2^17, in two from 2^17 + 1
    sizes = [*_SPREAD_SIZES, *(2**k + d for k in range(9, 18) for d in (-1, 0, 1))]
    _assert_spread_matches_reference(_spread_field(fields, name), name, sizes)


# segments of 1, 2, 3, 7 and 64 slots put segment ends on and next to
# every p^2 and p^k boundary of the small sizes, and 10^4 spans many;
# 49 slots make 7^2 = R in the first segment, where 7 still goes strided
@pytest.mark.parametrize("segment", [1, 2, 3, 7, 49, 64])
@pytest.mark.parametrize("name", _SPREAD_FIELDS)
def test_spread_matches_per_prime_reference_in_segments(fields, monkeypatch, name, segment):
    monkeypatch.setattr(sieve, "_TABLE_SEGMENT", segment)
    _assert_spread_matches_reference(_spread_field(fields, name), name)


def test_cubic_table_matches_the_eta_product(field_cubic):
    # zeta_K = zeta L(s, f) with f = eta(z) eta(23 z): a witness that shares
    # no code with the fields, the forms or the spread.  The form classes
    # alone fill 23 | d, where a(23) = 2, and 59, the least prime split
    # completely, where a(59) = 3
    N = 2 * 10**5
    table = build_tables(field_cubic, N)
    a = divisor_sums(eta_coefficients(N))
    assert (a[23], a[59]) == (2, 3)
    assert np.array_equal(table.a[1:], a[1:])
    assert np.array_equal(table.b[1:], dirichlet_inverse(a)[1:])


@pytest.mark.parametrize("name", ["Q", "Qi", "cubic"])
def test_build_sieves_only_to_the_square_root(fields, monkeypatch, name):
    # the primes above sqrt(N) are the slots the spread leaves with smooth
    # part 1, so no sieve reaches past sqrt(N)
    his = []
    prime_segments = sieve.prime_segments

    def recording(lo, hi):
        his.append(hi)
        return prime_segments(lo, hi)

    monkeypatch.setattr(sieve, "prime_segments", recording)
    N = 10**5 + 7
    build_tables(fields[name], N)
    assert his and max(his) <= math.isqrt(N), his


def test_large_a_flag_turns_on_in_a_later_segment(fields, monkeypatch):
    # the cubic at N = 300 in segments of 4 slots: the first prime above
    # sqrt(N), 19, has g_1 = 1 and lies in [16, 20); the first with
    # g_1 != 1, 23 (g_1 = 2), lies in [20, 24), so only the later segments
    # multiply a by g_1
    field, N = fields["cubic"], 300
    monkeypatch.setattr(sieve, "_TABLE_SEGMENT", 4)
    large = primes_between(math.isqrt(N) + 1, N)
    g1 = residue_degrees(field, large)[:, 0]
    assert large[:2].tolist() == [19, 23] and g1[:2].tolist() == [1, 2]
    start = {n: next(s.start for s in sieve._segments(N) if s.start <= n < s.stop) for n in (19, 23)}
    assert start == {19: 16, 23: 20}
    table = build_tables(field, N)
    a, b = _spread_per_prime(field, N)
    assert np.array_equal(table.a, a)
    assert np.array_equal(table.b, b)
    assert table.a[23] == 2 and table.a[5 * 23] == 2


def _running_sum_cases():
    rng = np.random.default_rng(7)
    for length in [*range(3 * 8 + 2), 2**17]:
        a = rng.integers(0, 9, length).astype(np.int32)
        b = (rng.integers(-1, 2, length) * a).astype(np.int32)
        yield a, b, 12_345, -678
    # the running I_K ends at exactly 2^31 - 1, past a partial last row
    a = np.full(2**17 + 3, 2**14, dtype=np.int32)
    b = -a
    b[1::2] *= -1
    a[0] = b[0] = 0
    yield a, b, 2**31 - 1 - int(a.sum(dtype=np.int64)), -7


def test_running_sum_matches_cumsum():
    for a, b, _, _ in _running_sum_cases():
        for x in (a, b):
            got = x.copy()
            sieve._running_sum(got)
            assert np.array_equal(got, np.cumsum(x, dtype=np.int32)), len(x)


def test_prefix_segment_matches_cumsum():
    # a build or load segment is never empty
    for a, b, I_before, B_before in itertools.islice(_running_sum_cases(), 1, None):
        want_a = np.cumsum(a, dtype=np.int64) + I_before
        want_b = np.cumsum(b, dtype=np.int64) + B_before
        got_a, got_b = a.copy(), b.copy()
        carry = sieve._prefix_segment(got_a, got_b, I_before, B_before)
        assert np.array_equal(got_a, want_a), len(a)
        assert np.array_equal(got_b, want_b), len(a)
        assert carry == (want_a[-1], want_b[-1])
    assert want_a[-1] == 2**31 - 1


def test_prefix_segment_refuses_a_running_sum_past_int32(tmp_path, field_q):
    a = np.full(2**17, 2**14, dtype=np.int32)  # sums to 2^31
    with pytest.raises(OverflowError, match="I_K\\(N\\) >= 2147483648 does not fit"):
        sieve._prefix_segment(a, np.zeros_like(a), 0, 0)
    with pytest.raises(OverflowError, match="I_K\\(N\\) >= 2147483648 does not fit"):
        sieve._prefix_segment(a[1:], np.zeros_like(a[1:]), 2**14, 0)
    # a Q cache whose a sums to exactly 2^31 across its two segments
    N = 2**17 + 1
    path = tmp_path / "q.tab"
    save_table(build_tables(field_q, N), str(path))
    blob = bytearray(path.read_bytes())
    a = np.full(N + 1, 2**14, dtype="<i4")
    a[0] = 0
    a[1] += 2**31 - int(a.sum(dtype=np.int64))
    blob[len(blob) - 8 * (N + 1) :] = a.tobytes() + bytes(4 * (N + 1))  # b = 0
    path.write_bytes(bytes(blob))
    with pytest.raises(FieldSpecError, match="corrupt cache: I_K\\(N\\) >= 2147483648 does not fit"):
        load_table(field_q, str(path))


_B_AGAINST_A = {
    "-a - 1": lambda a: -a - 1,
    "-2^31": lambda a: -(2**31),  # -b and |b| wrap back to -2^31 here
    "a + 1": lambda a: a + 1,
    "a": lambda a: a,
    "-a": lambda a: -a,
}


@pytest.mark.parametrize("slot", [1, 5])
@pytest.mark.parametrize("value", list(_B_AGAINST_A))
def test_prefix_segment_checks_that_b_lies_within_plus_or_minus_a(value, slot):
    a = np.array([0, 3, 1, 7, 0, 2**20, 9], dtype=np.int32)
    b = np.zeros_like(a)
    b[slot] = _B_AGAINST_A[value](int(a[slot]))
    refused = value not in ("a", "-a")
    before = b.copy()
    if refused:
        with pytest.raises(OverflowError, match="some a < 0 or \\|b\\| > a"):
            sieve._prefix_segment(a.copy(), b, 5, -2)
        assert np.array_equal(b, before)  # the check leaves b as it found it
    else:
        got_a, got_b = a.copy(), b.copy()
        sieve._prefix_segment(got_a, got_b, 5, -2)
        assert np.array_equal(got_a, np.cumsum(a) + 5)
        assert np.array_equal(got_b, np.cumsum(before) - 2)


def _fake_local_series(p, k, value, b_value=None):
    # local_series with its coefficient of a at p^k replaced by value,
    # and that of b by b_value if given
    def fake(degrees, q, N):
        a_loc, b_loc = local_series(degrees, q, N)
        if q == p:
            a_loc[k] = value
            if b_value is not None:
                b_loc[k] = b_value
        return a_loc, b_loc

    return fake


@pytest.mark.parametrize(
    "p, k, value, match",
    [
        # a(9) = -1: first bad slot 9, in the second segment
        (3, 2, -1, "some a < 0"),
        # a(8) = a(24) = 2^30: I_K stays below 2^31 up to 23 and passes it
        # at 24, in the fourth segment
        (2, 3, 2**30, "does not fit"),
    ],
)
def test_build_refuses_values_past_int32_in_a_later_segment(
    monkeypatch, field_q, p, k, value, match
):
    monkeypatch.setattr(sieve, "_TABLE_SEGMENT", 8)
    monkeypatch.setattr(sieve, "local_series", _fake_local_series(p, k, value))
    with pytest.raises(OverflowError, match=match):
        build_tables(field_q, 40)


def _count_or_refusal(table, x, m, r):
    try:
        return count_rprime_mobius(table, x, m, r)
    except OverflowError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "value, dtype",
    [
        # Q at N = 40 in segments of at most 8 slots, with b(8) = v: B is
        # the Mertens function M(n) plus v on [8, 23], M(n) on [24, 39]
        # and -v at 40, so B reaches v - 1 at 10, v - 3 at 13 and -v at 40
        (2**15 - 1, np.int16),
        (2**15, np.int32),  # B(40) = -2^15, in the last segment
        (2**15 + 1, np.int32),  # B(10) = 2^15, in the second segment
        (-(2**15) + 4, np.int16),
        (-(2**15) + 3, np.int32),  # B(13) = -2^15, in the second segment
    ],
)
def test_B_prefix_widens_to_int32_once_B_leaves_int16(tmp_path, monkeypatch, field_q, value, dtype):
    N = 40
    b = build_tables(field_q, N).b.astype(np.int64)
    b[[8, 24, 40]] = value, -value, -value  # b(3) = b(5) = -1
    monkeypatch.setattr(sieve, "_TABLE_SEGMENT", 8)
    monkeypatch.setattr(sieve, "local_series", _fake_local_series(2, 3, abs(value), value))
    table = build_tables(field_q, N)
    assert table.B_prefix.dtype == dtype
    assert np.array_equal(table.B_prefix, np.cumsum(b))
    assert (int(np.abs(np.cumsum(b)).max()) < 2**15) == (dtype == np.int16)
    path = tmp_path / "q.tab"
    save_table(table, str(path))
    loaded = load_table(field_q, str(path))
    assert loaded.B_prefix.dtype == dtype
    assert np.array_equal(loaded.B_prefix, table.B_prefix)
    assert np.array_equal(loaded.I_prefix, table.I_prefix)
    wide = _with_B_prefix(table, table.B_prefix.astype(np.int32))
    for x in (1, 8, 9.5, 23, 24, 39, 40):
        for m in range(1, 5):
            for r in range(1, 4):
                # a negative b(8) makes some sums negative, which all three refuse
                want = _mobius_count_reference(wide, x, m, r)
                want = want if want >= 0 else "negative tuple count: table corrupt"
                for t in (wide, table, loaded):
                    assert _count_or_refusal(t, x, m, r) == want, (x, m, r)


@pytest.mark.parametrize(
    "N, error, match",
    [
        (0, ValueError, "table cap must be >= 1, got 0"),
        (sieve.MAX_TABLE_N + 1, BudgetExceededError, "table cap 100000001 exceeds"),
    ],
)
def test_build_refuses_cap_outside_its_range(field_q, N, error, match):
    with pytest.raises(error, match=match):
        build_tables(field_q, N)


@pytest.mark.parametrize("name", ["Q", "Qi", "cubic"])
def test_build_peak_memory_per_slot(fields, name):
    # the table keeps 6 B/slot (I_K in int32, B in int16); the int8 lookup
    # of g_1 over odd q adds 0.5 B/slot and the segment buffers about
    # 2.5 MB (the int32 b row, the half-length a, b, cofactor and n rows
    # over the odd slots and their intp lookup indices among them), with
    # no table-sized temporary and no negated copy of a in the check:
    # 7.78-7.81 B/slot measured (8.34-8.36 with the rows over every slot
    # and the check's -a)
    N = 2 * 10**6
    build_tables(fields[name], 1000)  # first-call allocations stay out
    tracemalloc.start()
    try:
        table = build_tables(fields[name], N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.N == N
    assert peak <= 8 * N, peak / N


@pytest.mark.parametrize("name", ["Q", "Qi", "cubic"])
def test_load_peak_memory_per_slot(tmp_path, fields, name):
    # a is read into the table's I_prefix (4 B/slot) and b one segment at
    # a time into a reused buffer, whose sums go to an int16 B_prefix
    # (2 B/slot); only segment-sized buffers come on top: 6.32 B/slot
    # measured (6.57 with the check's negated copy of a)
    N = 2 * 10**6
    path = tmp_path / "t.tab"
    save_table(build_tables(fields[name], N), str(path))
    load_table(fields[name], str(path))  # first-call allocations stay out
    tracemalloc.start()
    try:
        table = load_table(fields[name], str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.N == N
    assert peak <= 6.5 * N, peak / N


def test_ideal_count_floor_semantics(table_q_1e4):
    assert ideal_count(table_q_1e4, 0.5) == 0
    assert ideal_count(table_q_1e4, 10.7) == 10
    assert ideal_count(table_q_1e4, 10**4) == 10**4


def test_ideal_count_gaussian_anchor(table_qi_1e4):
    assert ideal_count(table_qi_1e4, 100) == 79


def test_ideal_count_range_error(table_q_1e4):
    with pytest.raises(ValueError, match="exceeds"):
        ideal_count(table_q_1e4, 10**4 + 1)


@pytest.mark.parametrize("count", [ideal_count, lambda table, x: count_rprime_mobius(table, x, 2, 1)])
def test_table_cap_compares_floor_of_x(table_q_1e4, count):
    N = table_q_1e4.N
    assert count(table_q_1e4, N + 0.5) == count(table_q_1e4, N)
    with pytest.raises(ValueError, match=f"x={N + 1} exceeds the table cap N={N}"):
        count(table_q_1e4, N + 1)


@pytest.mark.parametrize("count", [ideal_count, lambda table, x: count_rprime_mobius(table, x, 2, 1)])
def test_table_cap_refuses_an_int_past_the_float_range(table_q_1e4, count):
    # 10**400 has no float; it is compared with the cap exactly
    with pytest.raises(ValueError, match="exceeds the table cap N=10000"):
        count(table_q_1e4, 10**400)


def test_mobius_count_examples(table_q_1e4):
    assert count_rprime_mobius(table_q_1e4, 10, 2, 1) == 63
    assert count_rprime_mobius(table_q_1e4, 10, 1, 2) == 7


def test_mobius_count_unit_only(fields, table_q_1e4, table_qi_1e4):
    for table in (table_q_1e4, table_qi_1e4):
        for x in (1, 2, 17, 100, 9999):
            assert count_rprime_mobius(table, x, 1, 1) == 1


def test_mobius_count_real_x(table_q_1e4):
    assert count_rprime_mobius(table_q_1e4, 10.9, 2, 1) == 63


def test_mobius_count_range_checks(table_q_1e4):
    assert count_rprime_mobius(table_q_1e4, 0.5, 1, 1) == 0
    with pytest.raises(ValueError):
        count_rprime_mobius(table_q_1e4, 2 * 10**4, 1, 1)


def _mobius_count_reference(table, x, m, r):
    # the identity term by term, one Python-int product per n
    X = int(x)
    b = table.b  # each access takes all N + 1 differences
    total = 0
    n = 1
    while n**r <= X:
        total += int(b[n]) * int(table.I_prefix[X // n**r]) ** m
        n += 1
    return total


def test_mobius_count_huge_r_counts_every_tuple(table_q_1e4):
    # once 2^r > x only n = 1 has a nonzero floor(x / n^r), so every
    # m-tuple is r-prime; r = 2^40 must not build a 2^40-bit power
    for x in (1, 10, 1000, 10**4):
        for m in (1, 2, 3):
            want = ideal_count(table_q_1e4, x) ** m
            assert count_rprime_mobius(table_q_1e4, x, m, 2**40) == want, (x, m)
    # r around the clamp: 1000 has 10 bits and 2^9 <= 1000 < 2^10
    for r in (8, 9, 10, 11):
        assert count_rprime_mobius(table_q_1e4, 1000, 2, r) == _mobius_count_reference(
            table_q_1e4, 1000, 2, r
        ), r


@pytest.fixture(scope="module")
def tables_all_fields(fields, table_q_1e4, table_qi_1e4):
    tables = {"Q": table_q_1e4, "Qi": table_qi_1e4}
    for name in ("Qsqrt2", "Qsqrtm5", "cubic"):
        tables[name] = build_tables(fields[name], 10**4)
    return tables


@pytest.mark.parametrize("name", ["Q", "Qi", "Qsqrt2", "Qsqrtm5", "cubic"])
def test_mobius_count_matches_per_n_reference(tables_all_fields, name):
    # m past the paper's range: I_K(1e4)^10 has about 140 bits, so the
    # carries run through three or more limbs
    table = tables_all_fields[name]
    for x in (1, 7.5, 361, 2024.9, 10**4):
        for m in range(1, 11):
            for r in range(1, 5):
                assert count_rprime_mobius(table, x, m, r) == _mobius_count_reference(
                    table, x, m, r
                ), (name, x, m, r)


def test_mobius_count_dense_sweep(table_qi_1e4):
    for x in range(1, 1001):
        for m in (1, 2, 3):
            for r in (1, 2, 3, 4):
                assert count_rprime_mobius(table_qi_1e4, x, m, r) == _mobius_count_reference(
                    table_qi_1e4, x, m, r
                ), (x, m, r)


def _with_B_prefix(table, B_prefix):
    # the table's I_K with a synthetic B, to steer which blocks carry weight
    return CoefficientTable(table.field, table.N, table.I_prefix, B_prefix)


def test_mobius_count_with_only_the_first_block_live(table_qi_1e4):
    # B = 1 from n = 1 on: b = 0 past n = 1, so only the n = 1 block
    # carries weight and the count is I_K(x)^m
    B_prefix = np.ones(table_qi_1e4.N + 1, dtype=np.int32)
    B_prefix[0] = 0
    table = _with_B_prefix(table_qi_1e4, B_prefix)
    for x in range(1, table.N + 1):
        ideals = int(table.I_prefix[x])
        for m in range(1, 5):
            for r in range(1, 4):
                assert count_rprime_mobius(table, x, m, r) == ideals**m, (x, m, r)


def test_mobius_count_with_every_block_dead(table_qi_1e4):
    table = _with_B_prefix(table_qi_1e4, np.zeros(table_qi_1e4.N + 1, dtype=np.int32))
    for x in (0.5, 1, 2, 17, 361, 2024.9, 10**4):
        for m in range(1, 5):
            for r in range(1, 5):
                assert count_rprime_mobius(table, x, m, r) == 0, (x, m, r)


def _edge_table(field, alternate):
    # I_K(N) = 2^31 - 1 and sum |b| = I_K(N), the most a table can hold:
    # a(1) = 2^30 and the other 2^30 - 1 ideals spread at random, with
    # b = a, or b = (-1)^(n + 1) a so that B swings; a(1) > sum of the
    # rest keeps the alternating count positive
    N = 4096
    rest = np.random.default_rng(31).integers(0, 2**20, N - 1)
    rest = rest * (2**30 - 1) // rest.sum()
    rest[-1] += 2**30 - 1 - rest.sum()
    a = np.concatenate(([0, 2**30], rest))
    b = -a if alternate else a.copy()
    b[1::2] = a[1::2]
    I_prefix, B_prefix = np.cumsum(a).astype(np.int32), np.cumsum(b).astype(np.int32)
    assert int(I_prefix[-1]) == 2**31 - 1 == int(np.abs(b).sum())
    return CoefficientTable(field, N, I_prefix, B_prefix)


@pytest.mark.parametrize("alternate", [False, True])
def test_mobius_count_at_the_int32_edge(field_qi, alternate):
    # max I_K = sum |dB| = 2^31 - 1 at x = N, r = 1 gives the narrowest
    # limbs, 31 bits, with every product and dot product at its bound
    table = _edge_table(field_qi, alternate)
    for x in (1, 7.5, 361, 2024.9, table.N):
        for m in range(1, 9):
            for r in range(1, 4):
                assert count_rprime_mobius(table, x, m, r) == _mobius_count_reference(
                    table, x, m, r
                ), (alternate, x, m, r)


def _swinging_B(table):
    B_prefix = np.full(table.N + 1, 2**31 - 1, dtype=np.int32)
    B_prefix[1::2] = -(2**31 - 1)
    B_prefix[0] = 0
    return _with_B_prefix(table, B_prefix)


@pytest.mark.parametrize(
    "corrupt",
    [
        # sum |dB| >= 2^31
        _swinging_B,
        # I_K < 0: an even m would give back the count of the true table
        lambda t: CoefficientTable(t.field, t.N, -t.I_prefix, t.B_prefix),
        # I_K >= 2^31, held in int64
        lambda t: CoefficientTable(t.field, t.N, t.I_prefix + np.int64(2**31), t.B_prefix),
    ],
    ids=["B-swings", "I-negative", "I-past-int32"],
)
def test_mobius_count_refuses_a_table_past_its_bound(table_qi_1e4, corrupt):
    table = corrupt(table_qi_1e4)
    for x in (2, 361, 10**4):
        for m in range(1, 5):
            for r in range(1, 4):
                with pytest.raises(OverflowError, match="table corrupt"):
                    count_rprime_mobius(table, x, m, r)


@pytest.mark.parametrize("name", ["Qi", "cubic"])
def test_mobius_count_matches_reference_where_range_blocks_dominate(fields, name):
    table = build_tables(fields[name], 2 * 10**5)
    for x in (199_999, 200_000):
        for m, r in ((2, 1), (3, 1), (1, 2), (2, 2)):
            assert count_rprime_mobius(table, x, m, r) == _mobius_count_reference(
                table, x, m, r
            ), (name, x, m, r)


def _block_ends_reference(X, r):
    # the scalar block walk: from each n, jump to the last n sharing X // n^r
    ends = [0]
    n = 1
    while n**r <= X:
        ends.append(_integer_root(X // (X // n**r), r))
        n = ends[-1] + 1
    return ends


@pytest.mark.parametrize("r", range(1, 7))
def test_block_ends_match_scalar_walk(r):
    top = round(10 ** (8 / r))  # k**r near the table cap 1e8
    near_cap = {k**r + d for k in range(max(2, top - 30), top + 30) for d in (-1, 0, 1)}
    for X in sorted(set(range(1, 2001)) | near_cap):
        ends, q = _block_ends(X, r)
        assert ends.tolist() == _block_ends_reference(X, r), (X, r)
        assert q.tolist() == [X // e**r for e in ends[1:].tolist()], (X, r)
        assert ends[0] == 0 and ends[-1] == _integer_root(X, r)
        assert np.all(np.diff(ends) > 0)


def test_block_ends_below_norm_one():
    for r in range(1, 7):
        ends, q = _block_ends(0, r)
        assert ends.tolist() == [0] and q.tolist() == []


@pytest.mark.parametrize("r", [30, 64, 100])
def test_block_ends_when_powers_pass_int64(r):
    # 2^r may not fit int64, so the helper must not form it in numpy
    for X in (1, 2, 3, 2**30 - 1, 2**30, 2**30 + 1, 10**8):
        ends, q = _block_ends(X, r)
        assert ends.tolist() == _block_ends_reference(X, r), (X, r)
        assert q.tolist() == [X // e**r for e in ends[1:].tolist()], (X, r)


def test_mobius_count_exact_beyond_int64(table_qi_1e4):
    expected = _mobius_count_reference(table_qi_1e4, 10**4, 5, 1)
    assert expected > 2**63
    assert count_rprime_mobius(table_qi_1e4, 10**4, 5, 1) == expected


@pytest.mark.parametrize("r", range(1, 7))
def test_integer_root_at_perfect_powers(r):
    top = round(10 ** (8 / r))  # k**r near the table cap 1e8
    for k in set(range(1, 60)) | set(range(max(1, top - 30), top + 30)):
        n = k**r
        assert _integer_root(n - 1, r) == k - 1
        assert _integer_root(n, r) == k
        assert _integer_root(n + 1, r) == (k + 1 if (k + 1) ** r <= n + 1 else k)
    assert _integer_root(0, r) == 0


def test_integer_root_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _integer_root(-1, 2)
    with pytest.raises(ValueError):
        _integer_root(10, 0)


def test_table_cache_roundtrip(tmp_path, field_qi, table_qi_1e4):
    path = tmp_path / "qi.tab"
    save_table(table_qi_1e4, str(path))
    loaded = load_table(field_qi, str(path))
    assert loaded.N == table_qi_1e4.N
    assert np.array_equal(loaded.a, table_qi_1e4.a)
    assert np.array_equal(loaded.b, table_qi_1e4.b)
    assert np.array_equal(loaded.I_prefix, table_qi_1e4.I_prefix)
    assert np.array_equal(loaded.B_prefix, table_qi_1e4.B_prefix)


@pytest.mark.parametrize(
    "name, N, digest",
    [
        ("Qi", 10**4, None),
        # the digest CI pins for `rprime tables` on the cubic at N = 2e5
        ("cubic", 200000, "22b54e3348e4f26ab2a36b03258fd57487b22f4e5ae8b56587b5ed3c8383e828"),
    ],
)
def test_saving_a_loaded_table_gives_back_the_cache_file(tmp_path, fields, name, N, digest):
    path = tmp_path / "built.tab"
    save_table(build_tables(fields[name], N), str(path))
    again = tmp_path / "loaded.tab"
    save_table(load_table(fields[name], str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()
    if digest is not None:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _save_corrupt_cache(path, table, column, n, value):
    # a cache of the right length whose slot n of a or b holds value
    save_table(table, str(path))
    blob = bytearray(path.read_bytes())
    offset = len(blob) - 4 * (table.N + 1) * (2 if column == "a" else 1) + 4 * n
    blob[offset : offset + 4] = value.to_bytes(4, "little", signed=True)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize(
    "column, value, n",
    [("b", 2, 7), ("b", -(2**31), 7), ("a", -1, 7), ("a", 1, 0), ("a", 3, 0)],
    ids=["b-2", "b--2147483648", "a--1", "a-1-norm0", "a-3-norm0"],
)
def test_table_cache_rejects_corrupt_slot(tmp_path, field_qi, table_qi_1e4, column, value, n):
    # slot n = 7 (a = b = 0 in Q(i)) breaks a >= 0 or |b| <= a; -2^31 is
    # the value whose abs wraps.  No ideal has norm 0, so any a at slot 0
    # would shift every I_K(x) while passing those checks
    path = tmp_path / "qi.tab"
    _save_corrupt_cache(path, table_qi_1e4, column, n, value)
    with pytest.raises(FieldSpecError, match="corrupt"):
        load_table(field_qi, str(path))


@pytest.mark.parametrize(
    "column, value", [("b", 2), ("b", -(2**31)), ("a", -1), ("a", 2**31 - 1)]
)
def test_table_cache_rejects_corrupt_slot_in_a_later_segment(
    tmp_path, monkeypatch, field_qi, table_qi_1e4, column, value
):
    # the last slot with a = b = 0 lies far past the first 64-slot segment;
    # a = 2^31 - 1 there passes the value checks and takes I_K past int32
    monkeypatch.setattr(sieve, "_TABLE_SEGMENT", 64)
    n = int(np.flatnonzero(table_qi_1e4.a == 0)[-1])
    assert n >= 64
    path = tmp_path / "qi.tab"
    _save_corrupt_cache(path, table_qi_1e4, column, n, value)
    with pytest.raises(FieldSpecError, match="corrupt"):
        load_table(field_qi, str(path))


@pytest.mark.parametrize("segment", [1, 7, 64, 2**17])
def test_segments_are_fewest_and_even(monkeypatch, segment):
    monkeypatch.setattr(sieve, "_TABLE_SEGMENT", segment)
    for N in (*range(1, 300), 2 * segment - 1, 2 * segment, 100 * segment + 7):
        slices = list(sieve._segments(N))
        lengths = [seg.stop - seg.start for seg in slices]
        assert slices[0].start == 0 and slices[-1].stop == N + 1, (N, segment)
        assert all(s.stop == t.start for s, t in zip(slices, slices[1:])), (N, segment)
        assert len(slices) == -(-(N + 1) // segment), (N, segment)
        assert lengths[0] == max(lengths) <= segment, (N, segment)
        assert lengths[0] - lengths[-1] <= 1, (N, segment)
    if segment == 2**17:
        # the cubic's benchmark table: two halves, not 2^17 and 68,929 slots
        assert [seg.stop - seg.start for seg in sieve._segments(2 * 10**5)] == [100_001, 100_000]


@pytest.mark.parametrize("segment", [1, 7, 64])
def test_cache_bytes_do_not_depend_on_the_segment(
    tmp_path, monkeypatch, field_qi, table_qi_1e4, segment
):
    path = tmp_path / "whole.tab"
    save_table(table_qi_1e4, str(path))
    monkeypatch.setattr(sieve, "_TABLE_SEGMENT", segment)
    again = tmp_path / "segmented.tab"
    save_table(table_qi_1e4, str(again))
    assert again.read_bytes() == path.read_bytes()
    loaded = load_table(field_qi, str(again))
    assert np.array_equal(loaded.I_prefix, table_qi_1e4.I_prefix)
    assert np.array_equal(loaded.B_prefix, table_qi_1e4.B_prefix)


@pytest.mark.parametrize("N", [0, sieve.MAX_TABLE_N + 1])
def test_table_cache_rejects_cap_outside_the_build_range(tmp_path, field_q, N):
    # a header N that build_tables refuses, with a payload of the length it implies
    # (one zero slot at N = 0)
    path = tmp_path / "q.tab"
    save_table(build_tables(field_q, 1), str(path))
    blob = path.read_bytes()[:44] + N.to_bytes(8, "little") + bytes(8 if N == 0 else 0)
    path.write_bytes(blob)
    with pytest.raises(FieldSpecError, match="corrupt"):
        load_table(field_q, str(path))


def test_table_cache_rejects_wrong_field(tmp_path, field_q, table_qi_1e4):
    path = tmp_path / "qi.tab"
    save_table(table_qi_1e4, str(path))
    with pytest.raises(FieldSpecError, match="fingerprint"):
        load_table(field_q, str(path))


def test_table_cache_rejects_garbage(tmp_path, field_q):
    path = tmp_path / "junk.tab"
    path.write_bytes(b"not a cache at all")
    with pytest.raises(FieldSpecError, match="not a table cache"):
        load_table(field_q, str(path))


def test_table_cache_rejects_other_version(tmp_path, field_q):
    # bytes 8..11 hold the version, right after the 8-byte magic
    path = tmp_path / "q.tab"
    save_table(build_tables(field_q, 10), str(path))
    blob = bytearray(path.read_bytes())
    blob[8:12] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FieldSpecError, match="unsupported cache version 2"):
        load_table(field_q, str(path))


def test_table_cache_rejects_truncated_file(tmp_path, field_q):
    # a valid header whose payload lacks the last b value
    path = tmp_path / "q.tab"
    save_table(build_tables(field_q, 10), str(path))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FieldSpecError, match="truncated cache"):
        load_table(field_q, str(path))


def test_table_cache_rejects_file_that_shrinks_while_read(tmp_path, monkeypatch, field_q):
    # the size from fstat passes, but the read comes up one b value short:
    # the items actually read decide
    path = tmp_path / "q.tab"
    save_table(build_tables(field_q, 10), str(path))
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-4])
    monkeypatch.setattr(sieve.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
    with pytest.raises(FieldSpecError, match=r"truncated cache \(have 136 bytes, want 140\)"):
        load_table(field_q, str(path))


def test_tables_are_read_only(table_q_1e4):
    with pytest.raises(ValueError):
        table_q_1e4.a[3] = 99


def test_table_stores_only_its_prefix_sums():
    names = [f.name for f in dataclasses.fields(CoefficientTable)]
    assert names == ["field", "N", "I_prefix", "B_prefix"]


@pytest.mark.parametrize("name", ["Q", "Qi", "Qsqrt2", "Qsqrtm5", "cubic"])
def test_a_and_b_are_read_only_int32_differences(tables_all_fields, name):
    table = tables_all_fields[name]
    for values, prefix in ((table.a, table.I_prefix), (table.b, table.B_prefix)):
        assert values.dtype == np.int32
        assert not values.flags.writeable
        assert values.shape == (table.N + 1,)
        assert np.array_equal(values, np.diff(prefix, prepend=0))


@pytest.mark.parametrize("name", ["Q", "Qi", "Qsqrt2", "Qsqrtm5", "cubic"])
def test_prefix_sums_are_int32_read_only_cumsums(tables_all_fields, name):
    # I_prefix is int32, and B_prefix int16 since every |B(n)| < 2^15 here
    table = tables_all_fields[name]
    for values, prefix, dtype in (
        (table.a, table.I_prefix, np.int32),
        (table.b, table.B_prefix, np.int16),
    ):
        assert prefix.dtype == dtype
        assert np.array_equal(prefix, np.cumsum(values, dtype=np.int64))
        with pytest.raises(ValueError):
            prefix[1] = 0


@pytest.mark.parametrize("path", sorted(FIELDS_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_counts_on_int16_B_equal_counts_on_an_int32_copy(path):
    table = build_tables(load_field_file(str(path)), 10**4)
    assert table.B_prefix.dtype == np.int16
    wide = _with_B_prefix(table, table.B_prefix.astype(np.int32))
    for x in (1, 7.5, 361, 2024.9, 9999, 10**4):
        for m in range(1, 7):
            for r in range(1, 4):
                assert count_rprime_mobius(table, x, m, r) == count_rprime_mobius(wide, x, m, r), (
                    path.stem,
                    x,
                    m,
                    r,
                )


def test_load_refuses_ideal_count_past_int32(tmp_path, field_q):
    # a crafted N = 2 cache of Q: a = [0, 2^30, 2^30 - 1] gives I_K(2) =
    # 2^31 - 1, the largest the int32 prefixes hold; one more is corrupt
    path = tmp_path / "q.tab"
    save_table(build_tables(field_q, 2), str(path))
    head, b = path.read_bytes()[:52], bytes(12)
    path.write_bytes(head + np.array([0, 2**30, 2**30 - 1], dtype="<i4").tobytes() + b)
    assert int(load_table(field_q, str(path)).I_prefix[2]) == 2**31 - 1
    path.write_bytes(head + np.array([0, 2**30, 2**30], dtype="<i4").tobytes() + b)
    with pytest.raises(FieldSpecError, match="corrupt cache: I_K.* 2147483648") as refused:
        load_table(field_q, str(path))
    assert isinstance(refused.value.__cause__, OverflowError)
