import itertools
import random

import pytest

from rprime.polygf import (
    _divmod,
    _gcd,
    _mul,
    _powmod,
    _squarefree_parts,
    _sub,
    factor_degrees,
    factor_mod_p,
)

X2P1 = [1, 0, 1]  # x^2 + 1


def test_gcd_divisor_of_square_plus_one():
    assert _gcd(X2P1, [2, 1], 5) == [2, 1]  # 3^2 + 1 = 0 mod 5


def test_gcd_coprime_is_one():
    assert _gcd(X2P1, [0, 1], 3) == [1]


def test_gcd_idempotent_and_monic():
    lead_inv = pow(2, 5, 7)
    assert _gcd([3, 6, 2], [3, 6, 2], 7) == [3 * lead_inv % 7, 6 * lead_inv % 7, 1]


def test_gcd_of_zeros_is_zero():
    assert _gcd([], [], 5) == []


def test_powmod_frobenius_example():
    assert _powmod([0, 1], 5, X2P1, 5) == [0, 1]  # x^2 = -1, so x^5 = x


def test_powmod_zero_exponent():
    assert _powmod([4, 2, 1], 0, [1, 1], 7) == [1]


def test_powmod_x_squared_mod_x2p1_f3():
    assert _powmod([0, 1], 2, X2P1, 3) == [2]


def test_powmod_zero_modulus():
    with pytest.raises(ZeroDivisionError):
        _powmod([0, 1], 3, [], 5)


def test_squarefree_char2_square():
    assert _squarefree_parts(X2P1, 2) == [([1, 1], 2)]


def test_squarefree_cubic_with_double_root():
    f = [22, 22, 0, 1]  # x^3 - x - 1 = (x - 10)^2 (x - 3) over F_23
    assert _squarefree_parts(f, 23) == [([20, 1], 1), ([13, 1], 2)]


def test_squarefree_already_squarefree():
    assert _squarefree_parts([6, 0, 1], 7) == [([6, 0, 1], 1)]


def test_squarefree_rejects_zero():
    # the zero polynomial (here 5 + 10x mod 5) never reaches the
    # squarefree step: both entry points refuse it
    for entry in (factor_degrees, factor_mod_p):
        with pytest.raises(ValueError):
            entry([5, 10], 5)


def test_factor_split_quadratic():
    assert factor_mod_p(X2P1, 5) == [((2, 1), 1), ((3, 1), 1)]


def test_factor_irreducible_cubic():
    f = [-1, -1, 0, 1]  # x^3 - x - 1 = x^3 + x + 1 over F_2, no roots
    assert factor_mod_p(f, 2) == [((1, 1, 0, 1), 1)]


def test_factor_cubic_with_multiplicity():
    assert factor_mod_p([-1, -1, 0, 1], 23) == [((13, 1), 2), ((20, 1), 1)]


def test_factor_rejects_constants():
    for entry in (factor_degrees, factor_mod_p):
        with pytest.raises(ValueError, match="degree"):
            entry([1], 5)
        with pytest.raises(ValueError, match="monic"):
            entry([1, 2], 5)


def _random_monic(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [1]


def _degrees(factors):
    return sorted((mult, len(g) - 1) for g, mult in factors)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 97])
def test_factor_reconstruction_random(p):
    rng = random.Random(12345 + p)
    for _ in range(40):
        degree = rng.randrange(1, 9)
        f = _random_monic(rng, p, degree)
        factors = factor_mod_p(f, p)
        assert factor_degrees(f, p) == _degrees(factors)
        product = [1]
        total_degree = 0
        for g, mult in factors:
            assert g[-1] == 1
            total_degree += mult * (len(g) - 1)
            for _ in range(mult):
                product = _mul(product, list(g), p)
        assert product == f
        assert total_degree == degree


@pytest.mark.parametrize("p", [2, 5, 31, 97])
def test_factor_outputs_irreducible(p):
    rng = random.Random(999 + p)
    for _ in range(25):
        f = _random_monic(rng, p, rng.randrange(2, 9))
        factors = factor_mod_p(f, p)
        assert factor_degrees(f, p) == _degrees(factors)
        for g, _ in factors:
            g = list(g)
            degree = len(g) - 1
            if degree <= 1:
                continue
            if degree <= 3:
                # an irreducible of degree 2 or 3 has no roots at all
                assert all(sum(c * a**k for k, c in enumerate(g)) % p for a in range(p))
            else:
                # any factor of degree d < deg g would show up in
                # gcd(g, x^{p^d} - x)
                for d in range(1, degree):
                    frob = _powmod([0, 1], p**d, g, p)
                    assert _gcd(_sub(frob, [0, 1], p), g, p) == [1]


def test_factor_determinism():
    f = [5, 1, 4, 1, 1, 0, 1]
    assert factor_mod_p(f, 31) == factor_mod_p(f, 31)


def test_factor_canonical_order():
    factors = factor_mod_p([0, 3, 0, 1], 7)  # x(x^2 + 3)
    keys = [(len(g), g) for g, _ in factors]
    assert keys == sorted(keys)


def test_divmod_roundtrip():
    rng = random.Random(4)
    for _ in range(30):
        p = rng.choice([3, 5, 11])
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
        while a and a[-1] == 0:
            a.pop()
        b = _random_monic(rng, p, rng.randrange(1, 4))
        q, r = _divmod(a, b, p)
        assert len(r) < len(b)
        assert _sub(a, r, p) == _mul(q, b, p)


# An independent reference: trial division by every monic polynomial in
# order of degree, sharing no code with rprime.polygf.  A monic divisor
# found before any of larger degree is irreducible, because every factor
# of smaller degree has already been divided out.


def _trial_divide(f, g, p):
    """(f / g, True) if the monic g divides f exactly mod p, else (f, False)."""
    rem = list(f)
    quo = [0] * (len(f) - len(g) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(g) - 1]
        quo[i] = c
        if c:
            for j, gj in enumerate(g):
                rem[i + j] = (rem[i + j] - c * gj) % p
    if any(rem[: len(g) - 1]):
        return f, False
    return quo, True


def _brute_force_degrees(f, p):
    f = [c % p for c in f]
    out = []
    k = 1
    while 2 * k <= len(f) - 1:
        for tail in itertools.product(range(p), repeat=k):
            g = list(tail) + [1]
            mult = 0
            while len(f) >= len(g):
                f, divides = _trial_divide(f, g, p)
                if not divides:
                    break
                mult += 1
            if mult:
                out.append((mult, k))
            if 2 * k > len(f) - 1:
                break
        k += 1
    if len(f) > 1:
        out.append((1, len(f) - 1))  # no divisor of degree <= deg/2: irreducible
    return sorted(out)


def test_brute_force_reference_examples():
    assert _brute_force_degrees([-1, -1, 0, 1], 23) == [(1, 1), (2, 1)]
    assert _brute_force_degrees([1, 0, 1], 3) == [(1, 2)]
    assert _brute_force_degrees([1, 0, 0, 0, 1], 2) == [(4, 1)]  # (x + 1)^4
    assert _brute_force_degrees([1, 0, 2, 0, 1], 3) == [(2, 2)]  # (x^2 + 1)^2


def test_factor_degrees_match_brute_force():
    for p in (2, 3, 5):
        for degree in range(1, 5):
            for tail in itertools.product(range(p), repeat=degree):
                f = list(tail) + [1]
                assert factor_degrees(f, p) == _brute_force_degrees(f, p), (f, p)
    rng = random.Random(2024)
    for p in (7, 11, 13):
        for _ in range(150):
            f = _random_monic(rng, p, rng.randrange(1, 7))
            assert factor_degrees(f, p) == _brute_force_degrees(f, p), (f, p)
