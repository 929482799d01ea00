"""Factor degrees of a monic integer polynomial mod p.

Polynomials are plain lists of ints, constant term first, with no
trailing zeros; the zero polynomial is the empty list.  All moduli are
primes small enough that coefficient products fit in machine integers
with room to spare (the sieves in this package never push p past 1e8).

`factor_degrees` is what a splitting type needs: squarefree
decomposition plus distinct-degree splitting give the sorted
(multiplicity, degree) pairs without finding any factor.
`factor_mod_p` adds Cantor-Zassenhaus equal-degree splitting, with a
fixed seed, to find the factors themselves; no counting path calls it.
`is_p_maximal` decides by Dedekind's criterion where they may be trusted.
"""

from __future__ import annotations

import random


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
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


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
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
    return quo, rem


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    return _divmod(a, b, p)[1]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while b:
        a, b = b, _rem(a, b, p)
    inv = pow(a[-1], p - 2, p) if a else 1
    return [(c * inv) % p for c in a]


def _powmod(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    """base**exponent reduced mod modulus, by square-and-multiply."""
    result = [1]
    acc = _rem(base, modulus, p)
    e = exponent
    while e > 0:
        if e & 1:
            result = _rem(_mul(result, acc, p), modulus, p)
        e >>= 1
        if e:
            acc = _rem(_mul(acc, acc, p), modulus, p)
    return result


def _derivative(a: list[int], p: int) -> list[int]:
    out = [(k * c) % p for k, c in enumerate(a)][1:]
    while out and out[-1] == 0:
        out.pop()
    return out


def _monic_mod_p(poly: list[int] | tuple[int, ...], p: int) -> list[int]:
    """Reduce integer coefficients mod p; refuse what cannot be factored."""
    f = [c % p for c in poly]
    while f and f[-1] == 0:
        f.pop()
    if len(f) < 2:
        raise ValueError("factorization requires degree >= 1")
    if f[-1] != 1:
        raise ValueError("factorization expects a monic polynomial")
    return f


def _squarefree_parts(coeffs: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split a monic f of degree >= 1 into pairwise-coprime squarefree parts.

    Returns [(g_1, m_1), ...] with f = prod g_i**m_i, the g_i monic,
    squarefree and pairwise coprime, in no particular order.  Handles
    the characteristic-p derivative-zero case by extracting p-th roots,
    so multiplicities divisible by p come out right.
    """
    parts: list[tuple[list[int], int]] = []
    work = list(coeffs)
    pth_power = 1
    while len(work) - 1 > 0:
        deriv = _derivative(work, p)
        if deriv:
            g = _gcd(work, deriv, p)
            w, _ = _divmod(work, g, p)
            i = 1
            while w != [1]:
                y = _gcd(w, g, p)
                z, _ = _divmod(w, y, p)
                if len(z) - 1 > 0:
                    parts.append((z, i * pth_power))
                w = y
                g, _ = _divmod(g, y, p)
                i += 1
            if g == [1]:
                break
            work = g
        # whatever remains is a polynomial in x^p: take the p-th root
        d = (len(work) - 1) // p
        work = [work[k * p] for k in range(d + 1)]
        pth_power *= p
    return parts


def _distinct_degree_split(g: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split monic squarefree g into products of same-degree irreducibles.

    Returns [(product, degree), ...]; x^{p^d} - x accumulates all
    irreducibles of degree dividing d, so peeling gcds in increasing d
    isolates each degree class.
    """
    out: list[tuple[list[int], int]] = []
    x = [0, 1]
    h = _rem(x, g, p)
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, g, p)
        w = _gcd(_sub(h, x, p), g, p)
        if len(w) - 1 > 0:
            out.append((w, d))
            g, _ = _divmod(g, w, p)
            h = _rem(h, g, p)
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
            # (and a + b = a - b)
            t = list(a)
            acc = list(a)
            for _ in range(d - 1):
                acc = _powmod(acc, 2, h, p)
                t = _sub(t, acc, p)
            g = _gcd(t, h, p)
        else:
            t = _powmod(a, (p**d - 1) // 2, h, p)
            g = _gcd(_sub(t, [1], p), h, p)
        if 0 < len(g) - 1 < deg:
            rest, _ = _divmod(h, g, p)
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def factor_degrees(poly: list[int] | tuple[int, ...], p: int) -> list[tuple[int, int]]:
    """Sorted (multiplicity, degree) of each irreducible factor mod p.

    `poly` holds the integer coefficients of a monic polynomial of
    degree >= 1, constant term first.  A distinct-degree block of degree
    k*d is a product of exactly k irreducibles of degree d, so no
    equal-degree splitting is needed.
    """
    out: list[tuple[int, int]] = []
    for part, mult in _squarefree_parts(_monic_mod_p(poly, p), p):
        for same_deg, d in _distinct_degree_split(part, p):
            out += [(mult, d)] * ((len(same_deg) - 1) // d)
    return sorted(out)


def factor_mod_p(
    poly: list[int] | tuple[int, ...], p: int
) -> list[tuple[tuple[int, ...], int]]:
    """Complete factorization mod p of a monic integer polynomial.

    Returns [(irreducible, multiplicity), ...], each irreducible a monic
    coefficient tuple (constant term first), sorted by (degree,
    coefficients); the product of the factors with multiplicities
    reconstructs `poly` mod p.  The equal-degree stage draws from a
    fixed-seed generator, so results are reproducible.
    """
    rng = random.Random(0)
    factors: list[tuple[tuple[int, ...], int]] = []
    for part, mult in _squarefree_parts(_monic_mod_p(poly, p), p):
        for same_deg, d in _distinct_degree_split(part, p):
            for irr in _equal_degree_split(same_deg, d, p, rng):
                factors.append((tuple(irr), mult))
    factors.sort(key=lambda item: (len(item[0]), item[0]))
    return factors


def is_p_maximal(poly: list[int] | tuple[int, ...], p: int) -> bool:
    """Whether p does not divide the index of Z[x]/(poly) in its ring of
    integers, by Dedekind's criterion (Cohen, GTM 138, Thm 6.1.4): with
    g the product of the distinct factors of poly mod p and h = poly / g
    mod p, lifted to [0, p), gcd((g h - poly) / p, h) = 1 mod p (g in
    the gcd too would change nothing: every factor of h divides g)."""
    f = _monic_mod_p(poly, p)
    g = [1]
    for part, _ in _squarefree_parts(f, p):
        g = _mul(g, part, p)
    h = _divmod(f, g, p)[0]
    # (g h - poly) / p mod p; the first _rem by h drops its top zeros
    F = [(a - c) % (p * p) // p for a, c in zip(_mul(g, h, p * p), poly)]
    return _gcd(F, h, p) == [1]
