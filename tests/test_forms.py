import math

import numpy as np
import pytest

from rprime import forms as forms_module
from rprime.characters import _is_prime
from rprime.forms import is_fundamental, kronecker, reduced_forms, represented
from rprime.sieve import primes_between


def _brute_represented(forms, hi):
    # every value <= hi of every form, over the box that holds all of them:
    # 4 a f = (2ax + by)^2 + D y^2 and 4 c f = (2cy + bx)^2 + D x^2
    marked = np.zeros(hi + 1, dtype=bool)
    for a, b, c in forms:
        D = 4 * a * c - b * b
        X, Y = math.isqrt(4 * c * hi // D) + 1, math.isqrt(4 * a * hi // D) + 1
        for x in range(-X, X + 1):
            for y in range(-Y, Y + 1):
                v = a * x * x + b * x * y + c * y * y
                if v <= hi:
                    marked[v] = True
    return marked


@pytest.mark.parametrize(
    "d, h",
    [(-3, 1), (-4, 1), (-23, 3), (-47, 5), (-56, 4), (-71, 7), (-84, 4), (-87, 6), (-2516, 36)],
)
def test_reduced_forms_count_the_class_number(d, h):
    forms = reduced_forms(d)
    assert len(forms) == h
    assert forms[0] == (1, d % 2, (d % 2 - d) // 4)  # the principal form first
    for a, b, c in forms:
        assert b * b - 4 * a * c == d and math.gcd(a, b, c) == 1
        assert abs(b) <= a <= c and (b >= 0 or (abs(b) != a and a != c))


def test_reduced_forms_of_minus_23():
    assert reduced_forms(-23) == ((1, 1, 6), (2, -1, 3), (2, 1, 3))
    with pytest.raises(ValueError, match="discriminant"):
        reduced_forms(-22)


def test_is_fundamental_matches_its_definition():
    def squarefree(m):
        return all(m % (q * q) for q in range(2, math.isqrt(abs(m)) + 1))

    for d in range(-3000, 3000):
        want = d not in (0, 1) and (
            (d % 4 == 1 and squarefree(d)) or (d % 16 in (8, 12) and squarefree(d // 4))
        )
        assert is_fundamental(d) == want, d


def test_kronecker_matches_euler_criterion():
    primes = primes_between(2, 3000)
    for d in (d for d in range(-500, 500) if is_fundamental(d)):
        want = []
        for p in primes.tolist():
            if p == 2:
                want.append(0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1)
            else:
                r = pow(d % p, (p - 1) // 2, p)
                want.append(-1 if r == p - 1 else r)
        assert kronecker(d, primes).tolist() == want, d


@pytest.mark.parametrize("d", [-3, -4, -23, -87, -2516])
def test_represented_matches_a_brute_force_scan(d, monkeypatch):
    forms = reduced_forms(d)
    rng = np.random.default_rng(-d)
    for subset in (forms, forms[:1], forms[-1:]):
        want = _brute_represented(subset, 3000)
        assert (represented(subset, np.arange(1, 3001)) == want[1:]).all()
        n = rng.integers(1, 3001, 400)  # unsorted, with repeats
        assert (represented(subset, n) == want[n]).all()
    # windows much narrower than the range, so most n start a new one
    monkeypatch.setattr(forms_module, "_WINDOW", 37)
    n = rng.integers(1, 3001, 400)
    assert (represented(forms, n) == _brute_represented(forms, 3000)[n]).all()
    assert represented(forms, np.array([], dtype=np.int64)).shape == (0,)


def test_a_prime_is_represented_exactly_where_d_is_a_square_mod_p():
    # p not dividing d is represented by some reduced form of d exactly
    # when (d/p) = 1 (Cox, Thm 2.16 with Lemma 2.5)
    for d in (-23, -56, -1155, -2516):
        primes = primes_between(2, 20000)
        primes = primes[d % primes != 0]
        assert (represented(reduced_forms(d), primes) == (kronecker(d, primes) == 1)).all(), d


def test_represented_is_exact_near_the_int64_products():
    # the principal form of -23 at the primes near 1.2e9, against the
    # factor degrees' criterion that p = x^2 + xy + 6y^2 exactly when
    # x^3 - x - 1 splits completely mod p
    lo = 1_239_848_000
    primes = np.array([p for p in range(lo, lo + 3000) if _is_prime(p)])
    marked = represented([(1, 1, 6)], primes)
    for p, hit in zip(primes.tolist(), marked.tolist()):
        assert hit == _splits_completely(p), p
    assert 0 < marked.sum() < len(primes)


def _splits_completely(p):
    # f = x^3 - x - 1 is squarefree mod p for p not dividing 23, so it
    # splits into linear factors exactly when f divides x^p - x
    def mulmod(u, v):
        w = [0] * 5
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                w[i + j] += a * b
        for k in (4, 3):  # x^3 = x + 1
            w[k - 2] += w[k]
            w[k - 3] += w[k]
            w[k] = 0
        return [c % p for c in w[:3]]

    result, base, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result == [0, 1, 0]
