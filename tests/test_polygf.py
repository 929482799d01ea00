import itertools
import math
import random
from pathlib import Path

import pytest

from rprime import load_field_file
from rprime.characters import _is_prime
from rprime.fields import poly_discriminant
from rprime.polygf import (
    _divmod,
    _gcd,
    _mul,
    _powmod,
    _squarefree_parts,
    _sub,
    factor_degrees,
    factor_mod_p,
    is_p_maximal,
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


def _fundamental_discriminant(D):
    # the discriminant of Q(sqrt D), D not a square: D without its square
    # factors, times 4 unless that is 1 mod 4
    core = D
    for q in range(2, math.isqrt(abs(D)) + 1):
        while core % (q * q) == 0:
            core //= q * q
    return core if core % 4 == 1 else 4 * core


def test_dedekind_criterion_matches_the_index_of_every_small_quadratic():
    # x^2 + b x + c with D = b^2 - 4c not a square generates an order of
    # index k in the ring of integers of Q(sqrt D), D = k^2 d_K, so it is
    # p-maximal exactly when p does not divide k
    verdicts = 0
    for b, c in itertools.product(range(-30, 31), repeat=2):
        D = b * b - 4 * c
        if D >= 0 and math.isqrt(D) ** 2 == D:
            continue  # x^2 + b x + c has a rational root
        k = math.isqrt(D // _fundamental_discriminant(D))
        for p in range(2, math.isqrt(abs(D)) + 1):
            if D % (p * p) == 0 and _is_prime(p):
                assert is_p_maximal([c, b, 1], p) == (k % p != 0), (b, c, p)
                verdicts += 1
    assert verdicts == 2203


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _integral_over_p(A, p):
    # whether A / p, A an integer matrix, has a characteristic polynomial
    # in Z[x]: by Faddeev-LeVerrier, the coefficient c_k of x^(n-k) in
    # det(x - A) is divisible by p^k for every k
    n = len(A)
    M, c = [[0] * n for _ in range(n)], 1
    for k in range(1, n + 1):
        M = [[v + c * (i == j) for j, v in enumerate(row)] for i, row in enumerate(_matmul(A, M))]
        c = -sum(_matmul(A, M)[i][i] for i in range(n)) // k
        if c % p**k:
            return False
    return True


def _brute_force_p_maximal(poly, p):
    # Z[t], t a root of poly, has index prime to p in the ring of integers
    # exactly when no (a_0 + a_1 t + ... + a_(n-1) t^(n-1)) / p with
    # 0 <= a_i < p, not all 0, is integral; its multiplication matrix on
    # 1, t, ..., t^(n-1) is sum a_i T^i / p, T that of t
    n = len(poly) - 1
    T = [[int(i == j + 1) for j in range(n - 1)] + [-poly[i]] for i in range(n)]
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n - 1):
        powers.append(_matmul(T, powers[-1]))
    for a in itertools.product(range(p), repeat=n):
        if any(a):
            A = [[sum(ak * P[i][j] for ak, P in zip(a, powers)) for j in range(n)] for i in range(n)]
            if _integral_over_p(A, p):
                return False
    return True


def test_dedekind_criterion_matches_a_search_for_integral_elements_of_small_cubics():
    # every irreducible x^3 + a x^2 + b x + c with |a|, |b|, |c| <= 5, at
    # each p <= 7 with p^2 | disc; 49 of these verdicts change if the
    # gcd leaves out h, where poly mod p = (x - r)^2 (x - s) and F
    # vanishes at the simple root s only
    verdicts = 0
    for a, b, c in itertools.product(range(-5, 6), repeat=3):
        poly = [c, b, a, 1]
        if any(sum(co * r**k for k, co in enumerate(poly)) == 0 for r in range(-6, 7)):
            continue  # an integer root, which divides c
        disc = poly_discriminant(poly)
        for p in (2, 3, 5, 7):
            if disc % (p * p) == 0:
                assert is_p_maximal(poly, p) == _brute_force_p_maximal(poly, p), (poly, p)
                verdicts += 1
    assert verdicts == 572


@pytest.mark.parametrize(
    "poly, p, maximal",
    [
        ([1, 0, 1], 2, True),  # Z[i]
        ([-3, 0, 1], 2, True),  # Z[sqrt3], d_K = 12
        ([1, 0, 0, 0, 1], 2, True),  # Z[zeta8]
        ([-2, 0, 0, 1], 2, True),  # Z[2^(1/3)], disc -108 = -2^2 3^3
        ([-2, 0, 0, 1], 3, True),
        ([3, 0, 1], 2, False),  # Z[sqrt-3], index 2 in Z[(1 + sqrt-3)/2]
        ([4, 0, 1], 2, False),  # Z[2i], index 2 in Z[i]
        ([-5, 0, 1], 2, False),  # Z[sqrt5], index 2 in Z[(1 + sqrt5)/2]
        ([-10, 0, 0, 1], 3, False),  # 10 = 1 mod 9: (1 + a + a^2)/3 is integral
    ],
    ids=["Zi", "Zsqrt3", "x4+1", "x3-2@2", "x3-2@3", "Zsqrt-3", "Z2i", "Zsqrt5", "x3-10@3"],
)
def test_dedekind_criterion_pinned_verdicts(poly, p, maximal):
    assert is_p_maximal(poly, p) is maximal


def test_shipped_specs_are_maximal_where_p_squared_divides_poly_disc():
    fields_dir = Path(__file__).resolve().parent.parent / "fields"
    checked = []
    for path in sorted(fields_dir.glob("*.json")):
        field = load_field_file(str(path))
        for p in range(2, math.isqrt(abs(field.poly_disc)) + 1):
            if field.poly_disc % (p * p) == 0 and _is_prime(p):
                assert is_p_maximal(field.poly, p), (path.name, p)
                checked.append((path.stem, p))
    assert checked == [
        ("cyclic_cubic7", 7),
        ("gaussian", 2),
        ("qsqrt2", 2),
        ("qsqrtm5", 2),
        ("qzeta11plus", 11),
        ("qzeta5", 5),
        ("qzeta7", 7),
    ]
