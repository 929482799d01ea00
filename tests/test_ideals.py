import functools
import itertools
import operator

import numpy as np
import pytest

from rprime import (
    BudgetExceededError,
    build_tables,
    count_rprime_direct,
    count_rprime_direct_upto,
    count_rprime_mobius,
    enumerate_ideals,
    ideal_count,
)
from rprime import ideals


def test_enumerate_gaussian_small(field_qi):
    pairs = enumerate_ideals(field_qi, 5, 1)
    assert [norm for norm, _ in pairs] == [1, 2, 4, 5, 5]
    assert pairs[0] == (1, 0)


def test_enumerate_below_one_is_empty(field_qi):
    assert enumerate_ideals(field_qi, 0.5, 1) == []


def test_enumerate_rational_is_integers(field_q):
    pairs = enumerate_ideals(field_q, 10, 1)
    assert [norm for norm, _ in pairs] == list(range(1, 11))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_enumerate_rational_masks_by_trial_division(field_q, r):
    # over Q the ideals are the integers n and the primes ascend with
    # their norms, so bit j of n's mask is set exactly when p_j^r | n
    X = 200
    primes = [p for p in range(2, X + 1) if all(p % d for d in range(2, p))]
    expected = [
        (n, sum(1 << j for j, p in enumerate(primes) if n % p**r == 0))
        for n in range(1, X + 1)
    ]
    assert enumerate_ideals(field_q, X, r) == expected


def test_enumerate_refuses_r_below_one(field_q):
    with pytest.raises(ValueError, match="r must be >= 1"):
        enumerate_ideals(field_q, 10, 0)


def test_enumerate_guard(field_q):
    with pytest.raises(BudgetExceededError):
        enumerate_ideals(field_q, 10**6, 1)


def test_enumerate_guard_names_a_huge_x_as_given(field_q):
    # floor(1e300) has 301 digits; the one short line names x as given
    message = r"^enumeration of norms <= 1e\+300 exceeds the guard 100000$"
    with pytest.raises(BudgetExceededError, match=message):
        enumerate_ideals(field_q, 1e300, 1)
    with pytest.raises(BudgetExceededError, match=message):
        count_rprime_direct(field_q, 1e300, 2, 1)


def test_direct_count_refuses_an_int_past_the_float_range(field_q):
    # 10**400 has no float; it is compared with the guard exactly
    with pytest.raises(BudgetExceededError, match="exceeds the guard 100000"):
        count_rprime_direct(field_q, 10**400, 2, 1)


def test_enumerate_no_duplicates(fields):
    # one pair per ideal: a[n] ideals of norm n, for every n <= 200
    from rprime import build_tables

    for field in fields.values():
        table = build_tables(field, 200)
        norms = [norm for norm, _ in enumerate_ideals(field, 200, 1)]
        assert np.array_equal(np.bincount(norms, minlength=201), table.a[:201])


def test_enumerate_matches_ideal_count(fields):
    from rprime import build_tables

    for field in fields.values():
        table = build_tables(field, 500)
        norms = np.array([norm for norm, _ in enumerate_ideals(field, 500, 1)])
        for x in (1, 2, 3, 10, 99, 100, 250, 500):
            assert int((norms <= x).sum()) == ideal_count(table, x)


def _count_naive(field, x, m, r):
    # the definition: no prime divides every member to order >= r, i.e.
    # the AND of the surviving-set masks is empty
    masks = [mask for _, mask in enumerate_ideals(field, x, r)]
    return sum(
        1 for tup in itertools.product(masks, repeat=m) if functools.reduce(operator.and_, tup) == 0
    )


@pytest.mark.parametrize("m,r", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_direct_count_matches_naive_product(fields, m, r):
    # Norm 30 = 2*3*5 is Q's first surviving set of 3 primes, so x = 31
    # reaches buckets S & T of two or more labels.
    xs = (1, 4, 11, 23) + ((31,) if m <= 2 or (m, r) == (3, 1) else ())
    for field in fields.values():
        for x in xs:
            assert count_rprime_direct(field, x, m, r) == _count_naive(field, x, m, r)


def test_direct_count_examples(field_q, field_qi):
    assert count_rprime_direct(field_q, 10, 2, 1) == 63
    assert count_rprime_direct(field_q, 10, 1, 2) == 7
    assert count_rprime_direct(field_qi, 10, 1, 1) == 1


def test_direct_count_monotone_in_x(field_qi):
    values = count_rprime_direct_upto(field_qi, 120, 2, 1)
    assert np.all(np.diff(values) >= 0)


def test_direct_upto_agrees_with_single_calls(fields):
    # one DP, two count types: Python ints at one x, int64 arrays over x
    for name, X in (("cubic", 400), ("Qi", 150), ("Qsqrtm5", 150)):
        field = fields[name]
        for m, r in ((1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (4, 2)):
            values = count_rprime_direct_upto(field, X, m, r)
            for x in range(X + 1):
                assert count_rprime_direct(field, x, m, r) == int(values[x]), (name, m, r, x)


def test_direct_upto_single_member_owns_its_counts(field_q):
    # for m = 1 the counts are one row of the G x (X + 1) count matrix
    # (9,418,640 B for Q at X = 1389); the result must not keep it alive
    V = count_rprime_direct_upto(field_q, 1389, 1, 1)
    assert V.base is None or V.base.nbytes == V.nbytes
    # a single ideal is relatively 1-prime only when no prime divides it:
    # the unit ideal, of norm 1
    assert V.tolist() == [0] + [1] * 1389
    assert count_rprime_direct(field_q, 1389, 1, 1) == 1


def test_direct_count_budget_guard(field_q):
    with pytest.raises(BudgetExceededError, match="budget"):
        count_rprime_direct(field_q, 10**4, 3, 1)


@pytest.fixture
def no_array_allocation(monkeypatch):
    # every numpy constructor the oracle could reach refuses to run
    constructors = {"zeros", "bincount", "empty", "ones", "full", "array"}

    class NoAllocation:
        def __getattr__(self, name):
            if name in constructors:
                raise AssertionError(f"np.{name} called before the guard")
            return getattr(np, name)

    monkeypatch.setattr(ideals, "np", NoAllocation())


def test_direct_count_step_cell_guard(field_q, no_array_allocation):
    # 30000^2 passes the direct-count budget, but Q has 18,242 surviving
    # sets at x = 30000; their dense count arrays alone would be 4.4 GB,
    # so the oracle must refuse before it allocates any array.
    with pytest.raises(BudgetExceededError, match="budget"):
        count_rprime_direct(field_q, 30000, 2, 1)


@pytest.fixture(scope="module")
def table_q_1389(field_q):
    # module scope: built before any function-scoped fixture patches numpy
    return build_tables(field_q, 1389)


def test_single_count_allocates_no_array(field_q, table_q_1389, no_array_allocation):
    # Q at x = 1389 is at the edge of the step-cell guard (847 surviving
    # sets); the single count takes one Python int per set, no per-x array
    want = count_rprime_mobius(table_q_1389, 1389, 2, 1)
    assert count_rprime_direct(field_q, 1389, 2, 1) == want == 1173939


@pytest.mark.parametrize("x, m, r", [(2000, 3, 2), (3000, 4, 3)])
def test_direct_count_past_1e9_tuples_matches_mobius(field_qi, x, m, r):
    # I_K(x)^m is past 1e9 here, and far below 2^63
    table = build_tables(field_qi, x)
    assert ideal_count(table, x) ** m > 10**9
    assert count_rprime_direct(field_qi, x, m, r) == count_rprime_mobius(table, x, m, r)


def test_direct_count_refuses_int64_overflow(field_q, no_array_allocation):
    # Q at x = 1e5 with r = 5 has only 7 surviving sets, so the step-cell
    # guard passes, but I_K(x)^4 = 1e20 >= 2^63 could wrap the int64 counts
    with pytest.raises(BudgetExceededError, match="2\\^63"):
        count_rprime_direct(field_q, 10**5, 4, 5)


@pytest.mark.parametrize("x", [-0.5, -1, float("-inf"), float("inf"), float("nan")])
def test_direct_count_refuses_bad_x(field_q, table_q_1e4, x):
    # the oracle and the table route refuse alike
    for call, source in (
        (count_rprime_direct, field_q),
        (count_rprime_direct_upto, field_q),
        (count_rprime_mobius, table_q_1e4),
    ):
        with pytest.raises(ValueError, match="x must be finite and nonnegative"):
            call(source, x, 2, 1)
    with pytest.raises(ValueError, match="x must be finite and nonnegative"):
        enumerate_ideals(field_q, x, 1)
    with pytest.raises(ValueError, match="x must be finite and nonnegative"):
        ideal_count(table_q_1e4, x)


def test_direct_matches_mobius_medium(fields):
    from rprime import build_tables

    for name, field in fields.items():
        X = 400 if name == "cubic" else 150
        table = build_tables(field, X)
        for m, r in ((1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)):
            direct = count_rprime_direct_upto(field, X, m, r)
            xs = range(1, X + 1) if name == "cubic" else range(1, X + 1, 7)
            for x in xs:
                assert count_rprime_mobius(table, x, m, r) == int(direct[x]), (name, m, r, x)


def test_routes_agree_below_norm_one(fields):
    # no ideal has norm < 1, so every route counts 0 there; at x = 1 the
    # unit ideal alone gives the one tuple (1, ..., 1)
    for name, field in fields.items():
        table = build_tables(field, 10)
        for m in (1, 2, 3):
            for r in (1, 2, 3):
                for x, want in ((0, 0), (0.5, 0), (0.99, 0), (1, 1)):
                    got = (
                        count_rprime_mobius(table, x, m, r),
                        count_rprime_direct(field, x, m, r),
                        int(count_rprime_direct_upto(field, x, m, r)[int(x)]),
                    )
                    assert got == (want, want, want), (name, m, r, x)
