"""The coefficients of x^3 - x - 1 from a modular form, sharing no code
with `rprime`.

K = Q(theta), theta^3 = theta + 1, has zeta_K(s) = zeta(s) L(s, f) for
f = eta(z) eta(23 z) = q prod over n >= 1 of (1 - q^n)(1 - q^(23 n)),
the weight-one newform of level 23 (Serre, Durham 1975).  So a, the
number of ideals of norm n, is 1 * a_f (Dirichlet convolution), and b,
the sum of the ideal Mobius function over norm n, is the Dirichlet
inverse of a.  a_f is the product of two sparse series, each given by
Euler's pentagonal theorem.
"""

from __future__ import annotations

import math

import numpy as np


def _pentagonal(step: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    # prod over n >= 1 of (1 - q^(step n)) is the sum over all integers k
    # of (-1)^k q^(step k (3k - 1) / 2): its exponents below limit, which
    # are distinct, and their signs
    k = np.arange(-math.isqrt(limit) - 1, math.isqrt(limit) + 2, dtype=np.int64)
    exponent = step * k * (3 * k - 1) // 2
    keep = exponent < limit
    return exponent[keep], np.where(k[keep] % 2, -1, 1).astype(np.int32)


def eta_coefficients(N: int) -> np.ndarray:
    """a_f[n] for 0 <= n <= N (a_f[0] = 0): the coefficient of q^n in
    q prod (1 - q^n)(1 - q^(23 n))."""
    a_f = np.zeros(N + 1, dtype=np.int32)
    ones, ones_sign = _pentagonal(1, N)
    for shift, sign in zip(*map(np.ndarray.tolist, _pentagonal(23, N))):
        fit = ones < N - shift
        a_f[1 + shift + ones[fit]] += sign * ones_sign[fit]
    return a_f


def divisor_sums(f: np.ndarray) -> np.ndarray:
    """(1 * f)[n] = sum of f[d] over d | n, for 1 <= n <= N = len(f) - 1.

    Each pair (d, k) with d k <= N has d or k at most sqrt(N): a d up
    to sqrt(N) adds f[d] at all its multiples, and a k up to N / sqrt(N)
    adds f[d] at k d for every larger d, each pass one strided slice."""
    N = len(f) - 1
    g = np.zeros_like(f)
    root = math.isqrt(N)
    for d in range(1, root + 1):
        g[d::d] += f[d]
    for k in range(1, N // (root + 1) + 1):
        g[k * (root + 1) :: k] += f[root + 1 : N // k + 1]
    return g


def dirichlet_inverse(a: np.ndarray) -> np.ndarray:
    """b with b * a = [n = 1], for 1 <= n <= N = len(a) - 1 and a[1] = 1.

    b[n] = -(sum of b[d] a[n / d] over d | n, d < n), so each b[d], once
    final, adds b[d] a[k] at every k d, k >= 2."""
    N = len(a) - 1
    b = np.zeros_like(a)
    b[1] = 1
    for d in range(1, N // 2 + 1):
        if d > 1:
            b[d] = -b[d]
        if b[d]:
            b[2 * d :: d] += b[d] * a[2 : N // d + 1]
    b[N // 2 + 1 :] *= -1
    return b

