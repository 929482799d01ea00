"""Binary quadratic forms of negative discriminant (Cox, *Primes of the
Form x^2 + ny^2*, ch. 1 and 2; Cohen, GTM 138, 5.3).

A form (a, b, c) is a x^2 + b x y + c y^2, of discriminant
d = b^2 - 4ac < 0.  `reduced_forms` lists the primitive reduced forms
of d, one per class of the form class group Cl(d), so there are h(d)
of them.  `is_fundamental` tells whether d is the discriminant of a
quadratic field, and `kronecker` evaluates that field's character
(d/n).  `represented` tells which of some integers some
given forms represent, by enumerating their lattice points in
fixed-size windows.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

# `represented` enumerates the points of values in windows of this many
# integers, so its temporaries do not grow with the span of the n
_WINDOW = 1 << 15


def _odd_prime_factors(m: int) -> list[int]:
    # the distinct odd primes dividing m >= 1, by trial division
    while m % 2 == 0:
        m //= 2
    factors, q = [], 3
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 2
    return factors + [m] * (m > 1)


def is_fundamental(d: int) -> bool:
    """Whether d is a fundamental discriminant, that of a quadratic
    field: d = 1 mod 4 and squarefree, or d = 4m with m = 2 or 3 mod 4
    and squarefree."""
    if d in (0, 1) or d % 4 > 1:
        return False
    m = d if d % 4 == 1 else d // 4
    if d % 4 == 0 and m % 4 < 2:
        return False
    return all(m % (q * q) for q in _odd_prime_factors(abs(m)))


def reduced_forms(d: int) -> tuple[tuple[int, int, int], ...]:
    """The primitive reduced forms (a, b, c) of discriminant d < 0:
    |b| <= a <= c, with b >= 0 where |b| = a or a = c; sorted by a, then
    b.  Every primitive positive definite form of discriminant d is
    equivalent to exactly one of them, and a <= sqrt(|d| / 3)."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"need a discriminant d < 0, d = 0 or 1 mod 4, got {d}")
    forms = []
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1 + (a - 1 - d) % 2, a + 1, 2):
            c, r = divmod(b * b - d, 4 * a)
            if not r and (c > a or (c == a and b >= 0)) and math.gcd(a, b, c) == 1:
                forms.append((a, b, c))
    return tuple(forms)


# (e/n) by n mod 8 for the even prime discriminants e = -4, 8, -8, and 1
_TWO_PART = {
    1: (1, 1, 1, 1, 1, 1, 1, 1),
    -4: (0, 1, 0, -1, 0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def kronecker(d: int, n: np.ndarray) -> np.ndarray:
    """Int8 (d/n) at each n >= 1, for a fundamental discriminant d.

    d is the product of prime discriminants: q* = (-1)^((q-1)/2) q for
    each odd q | d, times one of 1, -4, 8, -8.  For n >= 1, (q*/n) is the
    Legendre symbol (n/q) by quadratic reciprocity, and (e/n) of the
    even part depends on n mod 8 alone.
    """
    n = np.asarray(n, dtype=np.int64)
    out = np.ones(len(n), dtype=np.int8)
    even = d
    for q in _odd_prime_factors(abs(d)):
        legendre = np.full(q, -1, dtype=np.int8)
        legendre[np.arange(q, dtype=np.int64) ** 2 % q] = 1
        legendre[0] = 0
        out *= legendre[n % q]
        even //= q if q % 4 == 1 else -q
    out *= np.array(_TWO_PART[even], dtype=np.int8)[n % 8]
    return out


def represented(forms, n: np.ndarray) -> np.ndarray:
    """Bool at each n >= 1: True where n = a x^2 + b x y + c y^2 for one
    of the reduced positive definite `forms` (a, b, c) and some integers
    x, y.  Exact for n with 4 a n < 2^63.

    With u = 2 a x + b y and D = 4ac - b^2, 4 a f(x, y) = u^2 + D y^2,
    so the points of values in [w, v] lie, for each y >= 0 with
    D y^2 <= 4 a v, on the two runs of x with
    4 a w - D y^2 <= u^2 <= 4 a v - D y^2 (f(-x, -y) = f(x, y) covers
    y < 0).  The n are taken in windows [w, v] of at most `_WINDOW`
    integers, w the least n not yet marked and v at most the largest.
    Each window lists the runs of every form at once, widened by two x
    at each end against float rounding and truncation, expands them
    with np.repeat and marks the values that fall in it, computed
    exactly in int64: a term of f at a point in range is at most 4/3 of
    its value, since 4ac <= 4/3 D for a reduced form.  A window holds
    about sqrt(4 a v / D) rows per form and a few times `_WINDOW`
    points.
    """
    n = np.asarray(n, dtype=np.int64)
    # callers pass primes in order; only unordered n are sorted
    order = np.arange(len(n))
    if np.any(n[1:] < n[:-1]):
        order = np.argsort(n, kind="stable")
        n = n[order]
    out = np.zeros(len(n), dtype=bool)
    forms = np.array(forms, dtype=np.int64).reshape(-1, 3)
    a, b, c = forms.T
    D = 4 * a * c - b * b
    mask = np.empty(_WINDOW, dtype=bool)
    i = 0
    while i < len(n):
        w = int(n[i])
        v = min(w + _WINDOW - 1, int(n[-1]))
        j = bisect.bisect_right(n, v, i)
        # one row (form, y) for each y with D y^2 <= 4 a v
        rows = np.array([math.isqrt(4 * int(ai) * v // int(Di)) + 1 for ai, Di in zip(a, D)])
        form = np.repeat(np.arange(len(a)), rows)
        y = np.arange(len(form)) - np.repeat(np.cumsum(rows) - rows, rows)
        A, B, C, Dy = a[form], b[form] * y, c[form] * y * y, D[form] * y * y
        outer = np.sqrt(np.maximum(4 * A * v - Dy, 0))
        inner = np.sqrt(np.maximum(4 * A * w - Dy, 0))
        # runs u in [inner, outer] and u in [-outer, -inner], as x ranges;
        # truncation moves an end by less than 1, and the float one by less
        twice = np.concatenate([2 * A, 2 * A])
        starts = (np.concatenate([inner - B, -outer - B]) / twice).astype(np.int64) - 2
        stops = (np.concatenate([outer - B, -inner - B]) / twice).astype(np.int64) + 2
        lengths = stops + 1 - starts
        run = np.repeat(np.arange(len(starts), dtype=np.int32) % len(form), lengths)
        x = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        x += np.arange(len(x))
        values = A[run]
        values *= x
        values += B[run]
        values *= x
        values += C[run]
        mask.fill(False)
        mask[values[(values >= w) & (values <= v)] - w] = True
        out[order[i:j]] = mask[n[i:j] - w]
        i = j
    return out
