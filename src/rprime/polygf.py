"""Dense univariate polynomial arithmetic and factorization over F_p.

Coefficients are stored constant-term first with no trailing zeros; the
zero polynomial has an empty coefficient tuple.  All moduli are primes
small enough that coefficient products fit in machine integers with
room to spare (the sieves in this package never push p past 1e8).

Squarefree decomposition and distinct-degree splitting give the factor
degrees a splitting type needs (`factor_degrees`); `factor_mod_p` adds
seeded Cantor-Zassenhaus equal-degree splitting to find the factors
themselves, canonically sorted and reproducible for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class PolyModP:
    """A polynomial over F_p, coefficients ascending by degree."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"modulus must be a prime >= 2, got {self.p}")
        reduced = _trim([c % self.p for c in self.coeffs])
        if reduced != self.coeffs:
            object.__setattr__(self, "coeffs", reduced)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical ordering key: (degree, coefficient tuple)."""
        return (self.degree, self.coeffs)


def poly_from_int_coeffs(p: int, coeffs: list[int] | tuple[int, ...]) -> PolyModP:
    """Reduce an integer coefficient list (constant term first) mod p."""
    return PolyModP(p, tuple(c % p for c in coeffs))


def _check_same_modulus(a: PolyModP, b: PolyModP) -> int:
    if a.p != b.p:
        raise ValueError(f"mismatched moduli: {a.p} != {b.p}")
    return a.p


# Raw helpers operate on plain lists (ascending) with an explicit p so the
# hot loops avoid dataclass churn.

def _raw_add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _raw_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _raw_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _raw_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = (c * inv) % p
        quo[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = (rem[i - db + j] - q * b[j]) % p
    while rem and rem[-1] == 0:
        rem.pop()
    while quo and quo[-1] == 0:
        quo.pop()
    return quo, rem


def _raw_rem(a: list[int], b: list[int], p: int) -> list[int]:
    return _raw_divmod(a, b, p)[1]


def _raw_monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _raw_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _raw_rem(a, b, p)
    return _raw_monic(a, p)


def _raw_powmod(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    if not modulus:
        raise ZeroDivisionError("power reduction modulo the zero polynomial")
    result = [1]
    acc = _raw_rem(base, modulus, p)
    e = exponent
    while e > 0:
        if e & 1:
            result = _raw_rem(_raw_mul(result, acc, p), modulus, p)
        e >>= 1
        if e:
            acc = _raw_rem(_raw_mul(acc, acc, p), modulus, p)
    return result


def _raw_derivative(a: list[int], p: int) -> list[int]:
    out = [(k * c) % p for k, c in enumerate(a)][1:]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a: PolyModP, b: PolyModP) -> PolyModP:
    p = _check_same_modulus(a, b)
    return PolyModP(p, tuple(_raw_mul(list(a.coeffs), list(b.coeffs), p)))


def poly_add(a: PolyModP, b: PolyModP) -> PolyModP:
    p = _check_same_modulus(a, b)
    return PolyModP(p, tuple(_raw_add(list(a.coeffs), list(b.coeffs), p)))


def poly_sub(a: PolyModP, b: PolyModP) -> PolyModP:
    p = _check_same_modulus(a, b)
    return PolyModP(p, tuple(_raw_sub(list(a.coeffs), list(b.coeffs), p)))


def poly_divmod(a: PolyModP, b: PolyModP) -> tuple[PolyModP, PolyModP]:
    p = _check_same_modulus(a, b)
    q, r = _raw_divmod(list(a.coeffs), list(b.coeffs), p)
    return PolyModP(p, tuple(q)), PolyModP(p, tuple(r))


def poly_gcd(a: PolyModP, b: PolyModP) -> PolyModP:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    p = _check_same_modulus(a, b)
    return PolyModP(p, tuple(_raw_gcd(list(a.coeffs), list(b.coeffs), p)))


def poly_powmod(base: PolyModP, exponent: int, modulus: PolyModP) -> PolyModP:
    """base**exponent reduced mod modulus, by square-and-multiply."""
    p = _check_same_modulus(base, modulus)
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if modulus.is_zero():
        raise ZeroDivisionError("power reduction modulo the zero polynomial")
    return PolyModP(p, tuple(_raw_powmod(list(base.coeffs), exponent, list(modulus.coeffs), p)))


def poly_eval(f: PolyModP, a: int) -> int:
    """Evaluate f at a in F_p (Horner)."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * a + c) % f.p
    return acc


def squarefree_decomposition(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Split a monic nonzero f into pairwise-coprime squarefree parts.

    Returns [(g_1, m_1), ...] with f = prod g_i**m_i, the g_i monic,
    squarefree and pairwise coprime, sorted by (multiplicity, sort_key).
    Handles the characteristic-p derivative-zero case by extracting
    p-th roots, so multiplicities divisible by p come out right.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if not f.is_monic():
        raise ValueError("squarefree decomposition expects a monic polynomial")
    p = f.p
    parts: list[tuple[PolyModP, int]] = []
    work = list(f.coeffs)
    pth_power = 1
    while len(work) - 1 > 0:
        deriv = _raw_derivative(work, p)
        if deriv:
            g = _raw_gcd(work, deriv, p)
            w, _ = _raw_divmod(work, g, p)
            i = 1
            while w != [1]:
                y = _raw_gcd(w, g, p)
                z, _ = _raw_divmod(w, y, p)
                if len(z) - 1 > 0:
                    parts.append((PolyModP(p, tuple(z)), i * pth_power))
                w = y
                g, _ = _raw_divmod(g, y, p)
                i += 1
            if g == [1]:
                break
            work = g
        # whatever remains is a polynomial in x^p: take the p-th root
        d = (len(work) - 1) // p
        work = [work[k * p] for k in range(d + 1)]
        pth_power *= p
    parts.sort(key=lambda item: (item[1], item[0].sort_key()))
    return parts


def _distinct_degree_split(g: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split monic squarefree g into products of same-degree irreducibles.

    Returns [(product, degree), ...]; x^{p^d} - x accumulates all
    irreducibles of degree dividing d, so peeling gcds in increasing d
    isolates each degree class.
    """
    out: list[tuple[list[int], int]] = []
    x = [0, 1]
    h = _raw_rem(x, g, p)
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _raw_powmod(h, p, g, p)
        w = _raw_gcd(_raw_sub(h, x, p), g, p)
        if len(w) - 1 > 0:
            out.append((w, d))
            g, _ = _raw_divmod(g, w, p)
            h = _raw_rem(h, g, p)
    if len(g) - 1 > 0:
        out.append((g, len(g) - 1))
    return out


def _equal_degree_split(h: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: split a product of degree-d irreducibles."""
    deg = len(h) - 1
    if deg == d:
        return [h]
    while True:
        a = [rng.randrange(p) for _ in range(deg)]
        while len(a) > 0 and a[-1] == 0:
            a.pop()
        if len(a) < 2:
            continue  # constants never produce a proper gcd
        if p == 2:
            # char 2: the trace map a + a^2 + ... + a^{2^{d-1}} lands in F_2
            t = list(a)
            acc = list(a)
            for _ in range(d - 1):
                acc = _raw_powmod(acc, 2, h, p)
                t = _raw_add(t, acc, p)
            g = _raw_gcd(t, h, p)
        else:
            t = _raw_powmod(a, (p**d - 1) // 2, h, p)
            g = _raw_gcd(_raw_sub(t, [1], p), h, p)
        if 0 < len(g) - 1 < deg:
            rest, _ = _raw_divmod(h, g, p)
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def factor_degrees(f: PolyModP) -> list[tuple[int, int]]:
    """Sorted (multiplicity, degree) of each irreducible factor of monic f.

    A distinct-degree block of degree k*d is a product of exactly k
    irreducibles of degree d, so no equal-degree splitting is needed.
    """
    out: list[tuple[int, int]] = []
    for part, mult in squarefree_decomposition(f):
        for same_deg, d in _distinct_degree_split(list(part.coeffs), f.p):
            out += [(mult, d)] * ((len(same_deg) - 1) // d)
    return sorted(out)


def factor_mod_p(f: PolyModP, seed: int = 0) -> list[tuple[PolyModP, int]]:
    """Complete factorization of monic f into monic irreducibles.

    Returns [(irreducible, multiplicity), ...] sorted by
    (degree, coefficient tuple); the product of the factors with
    multiplicities reconstructs f exactly.  The equal-degree stage is
    randomized but driven by `seed`, so results are reproducible.
    """
    if f.degree < 1:
        raise ValueError("factorization requires degree >= 1")
    if not f.is_monic():
        raise ValueError("factorization expects a monic polynomial")
    p = f.p
    rng = random.Random(seed)
    factors: list[tuple[PolyModP, int]] = []
    for part, mult in squarefree_decomposition(f):
        for same_deg, d in _distinct_degree_split(list(part.coeffs), p):
            for irr in _equal_degree_split(same_deg, d, p, rng):
                factors.append((PolyModP(p, tuple(irr)), mult))
    factors.sort(key=lambda item: item[0].sort_key())
    return factors
