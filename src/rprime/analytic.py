"""Zeta values, main terms, and the theoretical error-exponent tables.

The zeta function of the field takes one of two routes, chosen by
`zeta_route`.

The L route serves every field with characters: Q, and each abelian
field of conductor below 256, whose characters `FieldSpec` derives
from `poly`.  There zeta_K(s) is the product of L(s, chi) over the
field's primitive characters chi, which `characters.zeta` evaluates
with a certified error, cached here per (field, s).

The ladder serves every other field.  It is a truncated Euler product
over rational primes, the local factor at p read off the residue
degrees of the prime ideals above p.  The tail is certified by

    log(tail) <= n * sum_{p > P} p^-s / (1 - p^-s)
              <= n * P^(1-s) / ln P * (1.25506 s / (s-1) - 1) / (1 - P^-s)

(n local factors per prime, each at most (1 - p^-s)^-1, then the
prime-counting bounds of Rosser and Schoenfeld, Illinois J. Math. 6,
1962, valid for P >= 17; below 17, or where it is smaller, the integral
bound P^(1-s) / (s-1) replaces the prime sum), and P climbs the fixed
ladder 4096, 16384, ..., 4194304, 1e7 (`_RUNGS`) until the certified
absolute error drops below the requested tolerance.  A tolerance that
the top rung cannot certify raises `ToleranceError` in strict mode.

Rung k of the ladder is the log of the product over p <= P_k.  It is
cached per process under (field, s, k) and computed once, as rung k-1
plus the log factors of the primes in (P_{k-1}, P_k], which
`sieve.prime_segments` sieves over that range alone, so every
tolerance for one (field, s) shares one Euler product.  A rung holds
one sieve segment of primes at a time: per segment, the factors are
one vectorized log1p sum per residue degree f, weighted by the column
f of `fields.residue_degrees` and computed in one float64 buffer.

Exponent tables are exact rationals so tests compare them by equality.
Bounds of the form x^(e + eps) are returned at eps = 0 with an epsilon
flag; comparisons treat a flagged exponent as the open endpoint it is.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import characters
from .characters import _U
from .errors import ToleranceError
from .fields import FieldSpec, ideal_density_constant, residue_degrees
from .sieve import prime_segments

MAIN_TERM_TOL = 1e-9  # the loosest zeta tolerance a main term accepts
# the Euler ladder's cutoffs P_k: 4096 * 4^k, capped at 1e7
_RUNGS = (4096, 16384, 65536, 262144, 1048576, 4194304, 10**7)


def _log_local_factors(field: FieldSpec, s: float, primes: np.ndarray) -> float:
    """Sum of -log(1 - N(P)^-s) over the prime ideals P above `primes`."""
    p = primes.astype(np.float64)
    term = np.empty_like(p)  # g * log1p(-p^(-f s)) for one f at a time
    total = 0.0
    for f, g in enumerate(residue_degrees(field, primes).T, start=1):
        np.power(p, -f * s, out=term)
        np.negative(term, out=term)
        np.log1p(term, out=term)
        np.multiply(g, term, out=term)
        total += float(term.sum())
    return -total


@functools.lru_cache(maxsize=None)
def _euler_log_sum(field: FieldSpec, s: float, k: int) -> float:
    """Log of the Euler product over p <= P_k, rung k of the cutoff ladder."""
    if k == 0:
        lo, previous = 2, 0.0
    else:
        lo, previous = _RUNGS[k - 1] + 1, _euler_log_sum(field, s, k - 1)
    return previous + sum(
        _log_local_factors(field, s, seg) for seg in prime_segments(lo, _RUNGS[k])
    )


def _tail_log_bound(n: int, s: float, P: int) -> float:
    """Bound on the log of the Euler factors of the primes p > P."""
    # each of the at most n factors above p is at most (1 - p^-s)^-1
    prime_sum = P ** (1.0 - s) / (s - 1.0)  # sum over all integers > P
    if P >= 17:
        # pi(t) < 1.25506 t / ln t for t > 1 and pi(P) > P / ln P for
        # P >= 17 (Rosser and Schoenfeld), by parts
        rosser = P ** (1.0 - s) / math.log(P) * (1.25506 * s / (s - 1.0) - 1.0)
        prime_sum = min(prime_sum, rosser)
    return n * prime_sum / (1.0 - P ** (-s))


def _euler_zeta(field: FieldSpec, s: float, tol: float) -> tuple[float, int, float]:
    """The ladder route: Euler product, cutoff P, certified error, at the
    first rung that certifies tol or else at the top rung.

    Besides the tail, the error covers float64 rounding: each log
    factor is within 6u (u = 2^-53) and the sums add at most 122u of
    the log sum L, all of whose terms are positive, and exp adds 2u,
    so the log of the value is taken to be off by at most
    tail + 128u L + 4u.
    """
    for k, P in enumerate(_RUNGS):
        log_sum = _euler_log_sum(field, s, k)
        value = math.exp(log_sum)
        slack = _tail_log_bound(field.degree, s, P) + 128.0 * _U * log_sum + 4.0 * _U
        err = value * math.expm1(slack)
        if err <= tol:
            break
    return value, P, err


@functools.lru_cache(maxsize=None)
def _l_function_zeta(field: FieldSpec, s: float) -> tuple[float, int, float]:
    """The L route: `characters.zeta` of the field's characters."""
    return characters.zeta(field.characters, s)


def zeta_route(field: FieldSpec) -> str:
    """The zeta route of the field: "L" where it has characters (Q, or
    an abelian field of conductor below 256), else "euler"."""
    return "euler" if field.characters is None else "L"


def dedekind_zeta_with_cutoff(
    field: FieldSpec, s: float, tol: float, strict: bool = True
) -> tuple[float, int, float]:
    """Zeta value plus a cutoff and the certified absolute error.

    A field with characters (`zeta_route` "L") takes the product of its
    L-functions, and the cutoff is the Euler-Maclaurin split point.  Any
    other field walks the fixed Euler-product cutoff ladder to the first
    rung whose certified error is at most tol, else to its top rung at
    1e7, and the cutoff is that rung's P.  Raises when s <= 1
    (divergence) or tol <= 0, on either route, and, in strict mode, when
    the route cannot certify tol; non-strict mode returns its best value
    and leaves the bound for the caller to check.
    """
    if not s > 1:
        raise ValueError(f"zeta needs s > 1 (it diverges at s <= 1), got s={s}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    s = float(s)
    route = zeta_route(field)
    if route == "euler":
        value, cutoff, err = _euler_zeta(field, s, tol)
    else:
        value, cutoff, err = _l_function_zeta(field, s)
    if strict and not err <= tol:
        raise ToleranceError(
            f"zeta tolerance {tol} unreachable: the {route} route certifies only {err:.3e}"
        )
    return value, cutoff, err


def dedekind_zeta(field: FieldSpec, s: float, tol: float) -> float:
    """Zeta value of the field at real s > 1, within tol."""
    return dedekind_zeta_with_cutoff(field, s, tol)[0]


def main_term(field: FieldSpec, x: float, m: int, r: int) -> float:
    """Leading asymptotic (c*x)^m / zeta_K(rm) of the r-prime count.

    The zeta tolerance is tightened from `MAIN_TERM_TOL` toward
    whatever makes the absolute main-term error less than 0.5 so
    integer-vs-real comparisons stay meaningful; when the zeta route
    cannot certify that (huge (c*x)^m, or the Euler ladder's top
    rung), the best certified value is used and a warning is emitted.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    if r * m < 2:
        raise ValueError("main term undefined for r*m < 2 (zeta pole at 1)")
    c = ideal_density_constant(field)
    try:
        numerator = (c * x) ** m
    except OverflowError:
        numerator = math.inf
    if not (x >= 0 and math.isfinite(numerator)):
        raise ValueError(f"x must be finite and >= 0 with (c*x)^m finite, got x={x}, m={m}")
    zeta_tol = min(MAIN_TERM_TOL, 0.5 / max(numerator, 1.0))
    value, _, certified = dedekind_zeta_with_cutoff(field, float(r * m), zeta_tol, strict=False)
    # |d main| <= numerator * |d zeta| / zeta^2
    main_bound = numerator * certified / (value * value)
    if main_bound > 0.5:
        warnings.warn(
            f"{field.name}: main term at x={x}, m={m}, r={r} certified only to "
            f"+-{main_bound:.3g} absolute (zeta_K({r * m}) to +-{certified:.3g} by the "
            f"{zeta_route(field)} route); its integer part is not trustworthy",
            stacklevel=2,
        )
    return numerator / value


@dataclass(frozen=True)
class ExponentResult:
    """One growth bound x^exponent * (log x)^log_power, with a flag for
    bounds that hold with an extra +eps/-eps for every eps > 0."""

    exponent: Fraction
    log_power: Fraction
    epsilon_flag: bool = False

    def __post_init__(self) -> None:
        if self.log_power < 0:
            raise ValueError("log power must be nonnegative")


def ideal_remainder_exponent(n: int) -> ExponentResult:
    """Saving in the ideal-count remainder: I_K(x) = c*x + O(x^(1-a) log^b x).

    Returns exponent = a(n) and log_power = b(n) as exact rationals for
    degree n >= 3; the n >= 10 branch carries an epsilon flag (the
    stated saving holds with -eps for every eps > 0).
    """
    if n < 3:
        raise ValueError(f"remainder exponents are tabulated for degree n >= 3, got {n}")
    if n <= 6:
        return ExponentResult(
            exponent=Fraction(2, n) - Fraction(8, n * (5 * n + 2)),
            log_power=Fraction(10, 5 * n + 2),
        )
    if n <= 9:
        return ExponentResult(
            exponent=Fraction(2, n) - Fraction(3, 2 * n * n),
            log_power=Fraction(2, n),
        )
    return ExponentResult(exponent=Fraction(3, n + 6), log_power=Fraction(0), epsilon_flag=True)


def error_term_exponent(n: int, m: int, r: int) -> ExponentResult:
    """Sharpened error bound for the r-prime m-tuple count, degree n >= 3.

    Three cases: rm >= 3 gives x^(m-a) log^b; r=1, m=2 gives
    x^(2-a) log^(2b+1); r=2, m=1 gives x^(1-a/2) log^(2b), where (a, b)
    are the ideal-count remainder exponents.
    """
    if n < 3:
        raise ValueError(f"bound is tabulated for degree n >= 3, got {n}")
    ab = ideal_remainder_exponent(n)
    a, b = ab.exponent, ab.log_power
    if r * m >= 3:
        return ExponentResult(m - a, b, ab.epsilon_flag)
    if r == 1 and m == 2:
        return ExponentResult(2 - a, 2 * b + 1, ab.epsilon_flag)
    if r == 2 and m == 1:
        return ExponentResult(1 - a / 2, 2 * b, ab.epsilon_flag)
    raise ValueError(f"no bound for (m, r) = ({m}, {r})")


def sittinger_exponent(n: int, m: int, r: int) -> ExponentResult:
    """Classical error bound (Sittinger), valid for every degree n >= 1."""
    if n < 1 or m < 1 or r < 1:
        raise ValueError("need n, m, r >= 1")
    if m >= 3 or (m == 2 and r >= 2):
        return ExponentResult(m - Fraction(1, n), Fraction(0))
    if m == 2 and r == 1:
        return ExponentResult(2 - Fraction(1, n), Fraction(1))
    if m == 1:
        if r == 1:
            raise ValueError("no bound for (m, r) = (1, 1)")
        pivot = Fraction(n * (r - 2), r - 1)
        if pivot == 1:
            return ExponentResult(1 - Fraction(1, n), Fraction(1))
        if pivot > 1:
            return ExponentResult(1 - Fraction(1, n), Fraction(0))
        return ExponentResult((2 - Fraction(1, n)) / r, Fraction(0))
    raise ValueError(f"no bound for (m, r) = ({m}, {r})")


def abelian_exponent(n: int, m: int, r: int) -> ExponentResult:
    """Sharper bound available when the field is abelian, degree n >= 4."""
    if n < 4:
        raise ValueError(f"abelian bound is tabulated for degree n >= 4, got {n}")
    if m < 1 or r < 1:
        raise ValueError("need m, r >= 1")
    if r == 2 and m == 1:
        return ExponentResult(1 - Fraction(3, 2 * (n + 2)), Fraction(0), epsilon_flag=True)
    return ExponentResult(m - Fraction(3, n + 2), Fraction(0), epsilon_flag=True)


def is_sharper(a: ExponentResult, b: ExponentResult) -> bool:
    """Whether bound a is strictly smaller than bound b, ordering by
    (exponent, log_power) lexicographically.

    A flagged exponent is an open endpoint (the true bound is e + eps
    for arbitrarily small eps > 0), so on equal exponents a flagged `a`
    never wins: every eps pushes it above any log power.
    """
    if a.exponent != b.exponent:
        return a.exponent < b.exponent
    if a.epsilon_flag:
        return False
    if b.epsilon_flag:
        return True
    return a.log_power < b.log_power
