"""Dirichlet characters of abelian fields (Washington, GTM 83, chs. 3-4).

A `Character` is a conductor f, an order shared by the characters of
one field, and a phase per class mod f.  `derive` finds the characters
of an abelian field of conductor below 256 from its residue degrees at
the primes below 256, and `class_table` gives back the residue degrees
of every prime.  `zeta` multiplies their L-functions into zeta_K(s),
each L(s, chi) a sum of Hurwitz values by Euler-Maclaurin (Johansson,
Numer. Algorithms 69, 2015), certified to below 2e-14 of the value at
s = 2 on every shipped spec.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_U = 2.0**-53  # unit roundoff of float64


@dataclass(frozen=True)
class Character:
    """A primitive Dirichlet character of conductor f:
    chi(b) = exp(2 pi i phase[b % f] / order), and phase[b % f] is None
    where gcd(b, f) > 1.  `order` is a multiple of the character's
    order, shared by the characters of one field."""

    conductor: int
    order: int
    phase: tuple[int | None, ...]


def _prime_factors(k: int) -> list[int]:
    factors, d = [], 2
    while d * d <= k:
        if k % d == 0:
            factors.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return factors + [k] * (k > 1)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set covers all n < 3.3e24
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The characters of a candidate conductor are read off the residue
# degrees at every prime below this bound, and must reproduce them;
# those primes must meet every unit class mod the conductor.
_CHARACTER_CHECK_BOUND = 256
_CHECK_PRIMES = tuple(p for p in range(2, _CHARACTER_CHECK_BOUND) if _is_prime(p))


def _unit_basis(q: int) -> list[tuple[int, int]]:
    """(generator, order) pairs of a basis of (Z/q)^x, one per cyclic
    factor of each (Z/p^k)^x, each lifted to 1 mod the other factors."""
    basis = []
    for p in _prime_factors(q):
        k = 0
        while q % p ** (k + 1) == 0:
            k += 1
        pk = p**k
        if p == 2:  # -1 and 5
            local = [(pk - 1, 2)] * (k >= 2) + [(5, pk // 4)] * (k >= 3)
        else:  # a primitive root
            phi = pk - pk // p
            root = next(
                g
                for g in range(2, pk)
                if g % p and all(pow(g, phi // r, pk) != 1 for r in _prime_factors(phi))
            )
            local = [(root, phi)]
        rest = q // pk
        for g, order in local:
            basis.append((g + pk * ((1 - g) * pow(pk, -1, rest) % rest), order))
    return basis


@functools.lru_cache(maxsize=None)
def _primitive_characters(q: int, kernel: tuple[int, ...]) -> tuple[Character, ...]:
    """The characters of (Z/q)^x trivial on the classes in `kernel`,
    each made primitive."""
    basis = _unit_basis(q)
    logs = {1 % q: ()}  # unit -> its exponents over the basis
    for g, order in basis:
        logs = {a * pow(g, e, q) % q: v + (e,) for a, v in logs.items() for e in range(order)}
    orders = [order for _, order in basis]
    D = math.lcm(*orders)
    divisors = [f for f in range(1, q + 1) if q % f == 0]
    characters = []
    for exps in itertools.product(*map(range, orders)):
        weights = [c * (D // order) for c, order in zip(exps, orders)]
        phase = {a: sum(map(int.__mul__, weights, v)) % D for a, v in logs.items()}
        if any(phase[h] for h in kernel):
            continue
        # the conductor: the least f | q with chi trivial on the units = 1 mod f
        f = next(f for f in divisors if not any(phase[a] for a in logs if a % f == 1 % f))
        primitive: list[int | None] = [None] * f
        for a in sorted(logs):
            if primitive[a % f] is None:
                primitive[a % f] = phase[a]
        characters.append(Character(f, D, tuple(primitive)))
    return tuple(characters)


@functools.lru_cache(maxsize=None)
def class_table(characters: tuple[Character, ...], n: int) -> np.ndarray:
    """Read-only int8 table with a row per class a mod q, q the lcm of
    the conductors of these n characters: the residue degrees of a prime
    p = a mod q in their field, one column per residue degree.

    X_a, the characters whose conductor is prime to a, are those
    unramified at p; on them p has order f_a, the lcm of the orders of
    chi(a), and lies under g_a = |X_a| / f_a primes of degree f_a
    (Washington, GTM 83, Thm 3.7).  f_a divides |X_a| <= n, so it has
    its column and g_a fits int8.
    """
    q = math.lcm(*(chi.conductor for chi in characters))
    table = np.zeros((q, n), dtype=np.int8)
    for a in range(q):
        # the order of chi(a) for each chi in X_a
        orders = [
            chi.order // math.gcd(chi.order, k)
            for chi in characters
            if (k := chi.phase[a % chi.conductor]) is not None
        ]
        f = math.lcm(*orders)
        table[a, f - 1] = len(orders) // f
    table.flags.writeable = False
    return table


def _characters_mod(q: int, degrees: np.ndarray) -> tuple[Character, ...] | None:
    """The primitive characters of the abelian field of conductor q whose
    residue degrees at `_CHECK_PRIMES` are `degrees`, or None where q
    cannot be its conductor.

    They are the characters of (Z/q)^x trivial on the classes of the
    primes that split completely (Washington, GTM 83, ch. 3), which must
    meet every unit class mod q.  There must be one per degree of the
    field, their conductors must have lcm q, and `class_table` must
    give each prime its row of `degrees`, ramified ones included.
    """
    if len({p % q for p in _CHECK_PRIMES if q % p}) != sum(math.gcd(a, q) == 1 for a in range(q)):
        return None
    n = degrees.shape[1]
    primes = np.array(_CHECK_PRIMES, dtype=np.int64)
    split = (degrees[:, 0] == n) & (q % primes != 0)
    characters = _primitive_characters(q, tuple(sorted(set((primes[split] % q).tolist()))))
    if len(characters) != n or math.lcm(*(chi.conductor for chi in characters)) != q:
        return None
    if (class_table(characters, n)[primes % q] != degrees).any():
        return None
    return characters


def derive(degrees: np.ndarray) -> tuple[Character, ...] | None:
    """The characters of the abelian field with residue degrees `degrees`
    at `_CHECK_PRIMES`, or None: its conductor is the least q that
    `_characters_mod` accepts among those whose prime factors are the
    ramified primes, the rows with sum f * count below the degree."""
    n = degrees.shape[1]
    unramified = degrees @ np.arange(1, n + 1) == n
    ramified = [p for p, whole in zip(_CHECK_PRIMES, unramified) if not whole]
    radical = math.prod(ramified)
    for q in range(radical, _CHARACTER_CHECK_BOUND, radical):
        if _prime_factors(q) == ramified:
            characters = _characters_mod(q, degrees)
            if characters is not None:
                return characters
    return None


# B_2j / (2j)! for j = 1..9, each correctly rounded from the exact rational
_EM_COEFFS = tuple(
    float(Fraction(b) / math.factorial(2 * j))
    for j, b in enumerate(
        ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510", "43867/798"),
        start=1,
    )
)
_EM_TERMS = 8  # Bernoulli terms summed; the ninth bounds the remainder
_TRIG_ERR = 16 * _U  # |computed - exact| of cos and sin at 2 pi k / order, |k| <= order / 2


@functools.lru_cache(maxsize=None)
def _split_point(s: float) -> int:
    """The least N = 8 * 2^k whose Euler-Maclaurin remainder is below
    u/16 of every sum H(s; b, f), 1 <= b <= f, u = 2^-53.

    The remainder after `_EM_TERMS` = J terms is at most
    2 |B_(2J+2)| / (2J+2)! (s)_(2J+1) f^(2J+1) t^(-s-2J-1), t = b + N f,
    and f / t <= 1 / N, b / t <= 1 / (N + 1), H >= b^-s.
    """
    J = _EM_TERMS
    log_c = math.log(2.0 * abs(_EM_COEFFS[J])) + sum(math.log(s + i) for i in range(2 * J + 1))
    N = 8
    while log_c - s * math.log(N + 1) - (2 * J + 1) * math.log(N) > math.log(_U / 16):
        N *= 2
    return N


def _hurwitz(s: float, b: int, f: int, N: int) -> tuple[float, float]:
    """H(s; b, f) = sum over k >= 0 of (b + k f)^-s = f^-s zeta(s, b/f),
    and a bound on the error of the value returned.

    Euler-Maclaurin at the split point N, t = b + N f:
    H = sum_{k<N} (b + k f)^-s + t^(1-s) / (f (s-1)) + t^-s / 2
        + sum_{j=1..J} B_2j / (2j)! (s)_(2j-1) f^(2j-1) t^(-s-2j+1) + R,
    with |R| <= u/16 H by the choice of N (`_split_point`).  The bound
    takes each head term to within 2u (pow within one ulp), the first
    two tail terms to within 6u, each Bernoulli term to within 64u and
    the correctly rounded `math.fsum` to within 2u of the sum.
    """
    head = [float(b + k * f) ** -s for k in range(N)]
    t = b + N * f
    ts = float(t) ** -s
    first = [ts * t / (f * (s - 1.0)), 0.5 * ts]
    bernoulli = []
    x = f / t
    term = ts * s * x  # (s)_(2j-1) (f / t)^(2j-1) t^-s
    for j in range(1, _EM_TERMS + 1):
        bernoulli.append(_EM_COEFFS[j - 1] * term)
        # left to right, so a term that underflowed to 0 stays 0 at huge s
        term = term * (s + 2 * j - 1) * x * (s + 2 * j) * x
    value = math.fsum(head + first + bernoulli)
    err = _U * (
        2.0 * math.fsum(head)
        + 6.0 * math.fsum(first)
        + 64.0 * math.fsum(map(abs, bernoulli))
        + (2.0 + 1.0 / 8) * value
    )
    return value, err


def _l_value(chi: Character, s: float, N: int, hurwitz: dict) -> tuple[complex, float]:
    """L(s, chi) = sum over b mod f of chi(b) H(s; b, f), and a bound on
    its error: a real chi takes the values +-1 exactly; a complex one
    takes cos and sin to within `_TRIG_ERR` and its products to within u."""
    f = chi.conductor
    re, im, err = [], [], 0.0
    for b in range(1, f + 1):
        k = chi.phase[b % f]
        if k is None:
            continue
        if (b, f) not in hurwitz:
            hurwitz[b, f] = _hurwitz(s, b, f, N)
        h, e = hurwitz[b, f]
        if 2 * k % chi.order == 0:  # chi(b) = +-1
            re.append(h if k == 0 else -h)
            err += e
        else:
            angle = math.tau * (k if 2 * k < chi.order else k - chi.order) / chi.order
            re.append(math.cos(angle) * h)
            im.append(math.sin(angle) * h)
            err += 2.0 * e + 2.0 * (_TRIG_ERR + _U) * (h + e)
    value = complex(math.fsum(re), math.fsum(im))
    return value, err + 2.0 * _U * (abs(value.real) + abs(value.imag))


def zeta(characters: tuple[Character, ...], s: float) -> tuple[float, int, float]:
    """The product over these primitive characters chi of L(s, chi), the
    zeta function of their field at real s > 1, the split point N and
    the certified error.

    With |L~ - L| <= e per factor, the computed product is off by at
    most prod |L~| (prod (1 + e / |L~|) - 1); each complex product
    adds at most 3u, and the bound itself is padded by 2^-20 for its own
    rounding.  The libm pow, cos and sin are taken to be within one ulp.
    """
    if s == math.inf:
        return 1.0, 1, 0.0
    N = _split_point(s)
    hurwitz: dict = {}
    product, size, growth = complex(1.0), 1.0, 0.0
    for chi in characters:
        value, err = _l_value(chi, s, N, hurwitz)
        product *= value
        size *= abs(value)
        growth += math.log1p(err / abs(value)) + math.log1p(3.0 * _U)
    return product.real, N, size * math.expm1(growth) * (1.0 + 2.0**-20)
