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


def _isqrt(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) at each int64 x >= 0, exact for x < 2^63: the
    float root is within one of it, and the squares are compared in
    uint64, where (s + 1)^2 cannot wrap."""
    u = x.view(np.uint64)
    s = np.sqrt(u).astype(np.uint64)
    s -= s * s > u
    t = s + 1
    s += t * t <= u
    return s.view(np.int64)


def represented(forms, n: np.ndarray) -> np.ndarray:
    """Bool at each n >= 1: True where n = a x^2 + b x y + c y^2 for one
    of the reduced positive definite `forms` (a, b, c) and some integers
    x, y.  Exact for n with 4 a n < 2^63.

    With u = 2 a x + b y and D = 4ac - b^2, 4 a f(x, y) = u^2 + D y^2,
    so the values in [w, v] lie, for each y with D y^2 <= 4 a v, on the
    x with u^2 in [4 a w - D y^2, 4 a v - D y^2].  Half the lattice
    points are enough, and one run of x per (form, y), the one with
    u >= 0, whose ends are integer square roots: u from the least
    u >= 0 with u^2 >= 4 a w - D y^2 up to isqrt(4 a v - D y^2).
    - (a, -b, c) takes the values of (a, b, c), by y -> -y, so one form
      of each such pair is kept.
    - f(-x, -y) = f(x, y) negates u, so the y with |y| up to its bound
      cover the runs with u < 0.
    - Where a divides b (b = 0 or b = a), x -> -x - (b / a) y fixes f and
      y and negates u, so y >= 0 is enough.  A form with a = c and
      0 < b < a keeps the y < 0.
    The n are taken in windows [w, v] of at most `_WINDOW` integers, w
    the least n not yet marked and v at most the largest.  Each window
    lists the runs of every form at once, expands them with np.repeat
    and marks their values, computed exactly in int64 (a term of f at a
    point in range is at most 4/3 of its value, since 4ac <= 4/3 D for
    a reduced form) and checked to lie in [w, v].  A window holds about
    sqrt(4 a v / D) rows per form, twice that where a does not divide b.
    """
    n = np.asarray(n, dtype=np.int64)
    # callers pass primes in order; only unordered n are sorted
    order = np.arange(len(n))
    if np.any(n[1:] < n[:-1]):
        order = np.argsort(n, kind="stable")
        n = n[order]
    out = np.zeros(len(n), dtype=bool)
    forms = np.array(sorted({(a, abs(b), c) for a, b, c in forms}), dtype=np.int64).reshape(-1, 3)
    a, b, c = forms.T
    D = 4 * a * c - b * b
    both = (b != 0) & (b != a)  # forms that take the y < 0 as well
    mask = np.empty(_WINDOW, dtype=bool)
    i = 0
    while i < len(n):
        w = int(n[i])
        v = min(w + _WINDOW - 1, int(n[-1]))
        j = bisect.bisect_right(n, v, i)
        # one row (form, y) for each y with D y^2 <= 4 a v, y >= 0 unless both
        Y = np.array([math.isqrt(4 * int(ai) * v // int(Di)) for ai, Di in zip(a, D)], dtype=np.int64)
        rows = Y + both * Y + 1
        form = np.repeat(np.arange(len(a)), rows)
        y = np.arange(len(form)) - np.repeat(np.cumsum(rows) - rows + both * Y, rows)
        A, B, C, Dy = a[form], b[form] * y, c[form] * y * y, D[form] * y * y
        low = 4 * A * w - Dy
        ends = _isqrt(np.concatenate([4 * A * v - Dy, np.maximum(low - 1, 0)]))
        top, bottom = ends[: len(form)], ends[len(form) :] + (low > 0)
        # x = (u - b y) / 2a at the integer x with u in [bottom, top]
        twice = 2 * A
        starts = -((B - bottom) // twice)
        lengths = np.maximum((top - B) // twice + 1 - starts, 0)
        run = np.repeat(np.arange(len(form)), lengths)
        x = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        x += np.arange(len(x))
        values = A[run]
        values *= x
        values += B[run]
        values *= x
        values += C[run]
        if len(values) and not w <= int(values.min()) <= int(values.max()) <= v:
            raise OverflowError(f"a form value lies outside the window [{w}, {v}]")
        mask.fill(False)
        mask[values - w] = True
        out[order[i:j]] = mask[n[i:j] - w]
        i = j
    return out
