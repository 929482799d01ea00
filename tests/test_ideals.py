import itertools
import random

import numpy as np
import pytest

from rprime import (
    BudgetExceededError,
    count_rprime_direct,
    count_rprime_direct_upto,
    count_rprime_mobius,
    enumerate_ideals,
    ideal_count,
    is_relatively_r_prime,
)
from rprime import ideals
from rprime.ideals import UNIT_IDEAL, FactoredIdeal, PrimeLabel


def test_enumerate_gaussian_small(field_qi):
    ideals = enumerate_ideals(field_qi, 5)
    assert [ideal.norm for ideal in ideals] == [1, 2, 4, 5, 5]
    assert ideals[0].is_unit()


def test_enumerate_below_one_is_empty(field_qi):
    assert enumerate_ideals(field_qi, 0.5) == []


def test_enumerate_rational_is_integers(field_q):
    ideals = enumerate_ideals(field_q, 10)
    assert [ideal.norm for ideal in ideals] == list(range(1, 11))


def test_enumerate_guard(field_q):
    with pytest.raises(BudgetExceededError):
        enumerate_ideals(field_q, 10**6)


def test_enumerate_no_duplicates(fields):
    for field in fields.values():
        ideals = enumerate_ideals(field, 200)
        keys = {(ideal.norm, ideal.factors) for ideal in ideals}
        assert len(keys) == len(ideals)


def test_enumerate_matches_ideal_count(fields):
    from rprime import build_tables

    for field in fields.values():
        table = build_tables(field, 500)
        ideals = enumerate_ideals(field, 500)
        norms = np.array([ideal.norm for ideal in ideals])
        for x in (1, 2, 3, 10, 99, 100, 250, 500):
            assert int((norms <= x).sum()) == ideal_count(table, x)


def test_factored_ideal_validation():
    label = PrimeLabel(p=2, index=0, f=1)
    with pytest.raises(ValueError, match="norm"):
        FactoredIdeal(factors=((label, 1),), norm=3)
    with pytest.raises(ValueError, match="exponents"):
        FactoredIdeal(factors=((label, 0),), norm=1)
    with pytest.raises(ValueError, match="sorted"):
        FactoredIdeal.from_factors(((label, 1), (label, 2)))


def test_r_prime_predicate():
    p2 = PrimeLabel(p=2, index=0, f=1)
    one = FactoredIdeal.from_factors(((p2, 1),))
    two = FactoredIdeal.from_factors(((p2, 2),))
    three = FactoredIdeal.from_factors(((p2, 3),))
    assert is_relatively_r_prime([one, one], 1) is False
    assert is_relatively_r_prime([two, one], 2) is True
    assert is_relatively_r_prime([two, three], 2) is False
    assert is_relatively_r_prime([UNIT_IDEAL, one], 1) is True


def test_r_prime_predicate_empty_tuple():
    with pytest.raises(ValueError):
        is_relatively_r_prime([], 1)


def test_r_prime_predicate_symmetric(field_qi):
    ideals = enumerate_ideals(field_qi, 12)
    rng = random.Random(5)
    for _ in range(200):
        tup = [rng.choice(ideals) for _ in range(3)]
        r = rng.choice([1, 2])
        base = is_relatively_r_prime(tup, r)
        for perm in itertools.permutations(tup):
            assert is_relatively_r_prime(list(perm), r) == base


def _count_naive(field, x, m, r):
    ideals = enumerate_ideals(field, x)
    return sum(
        1
        for tup in itertools.product(ideals, repeat=m)
        if is_relatively_r_prime(list(tup), r)
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
    for name in ("Q", "Qsqrtm5"):
        field = fields[name]
        values = count_rprime_direct_upto(field, 60, 2, 2)
        for x in (1, 2, 7, 33, 60):
            assert int(values[x]) == count_rprime_direct(field, x, 2, 2)


def test_direct_count_budget_guard(field_q):
    with pytest.raises(BudgetExceededError, match="budget"):
        count_rprime_direct(field_q, 10**4, 3, 1)


def test_direct_count_step_cell_guard(field_q, monkeypatch):
    # 30000^2 passes the direct-count budget, but Q has 18,242 surviving
    # sets at x = 30000; their dense histograms alone would be 4.4 GB,
    # so the oracle must refuse before it allocates any array.
    class NoAllocation:
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, *args, **kwargs):
            raise AssertionError("histograms allocated before the guard")

    monkeypatch.setattr(ideals, "np", NoAllocation())
    with pytest.raises(BudgetExceededError, match="budget"):
        count_rprime_direct(field_q, 30000, 2, 1)


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
    for call, source in ((enumerate_ideals, field_q), (ideal_count, table_q_1e4)):
        with pytest.raises(ValueError, match="x must be finite and nonnegative"):
            call(source, x)


def test_direct_matches_mobius_medium(fields):
    from rprime import build_tables

    for name, field in fields.items():
        X = 400 if name == "cubic" else 150
        table = build_tables(field, X)
        for m, r in ((1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
            direct = count_rprime_direct_upto(field, X, m, r)
            xs = range(1, X + 1) if name == "cubic" else range(1, X + 1, 7)
            for x in xs:
                assert count_rprime_mobius(table, x, m, r) == int(direct[x]), (name, m, r, x)
