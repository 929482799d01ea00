"""Multiplicative tables of ideal counts and ideal Mobius sums by norm.

For a field K the table is built from, for every n <= N,

    a[n] = number of ideals of norm n
    b[n] = sum of the ideal Mobius function over ideals of norm n

and keeps only their prefix sums I_K(n) and B(n).  Both a and b are
multiplicative, so they are assembled prime by prime from the
residue degrees f_i of the prime ideals above p, one row of
`fields.residue_degrees`: the a-values at p^k are the coefficients of
prod_i (1 - X^{f_i})^{-1} and the b-values those of prod_i (1 - X^{f_i}),
so a prime p > sqrt(N) gives a = g_1, b = -g_1 with g_1 = #{i: f_i = 1}.
Spreading onto all n <= N touches each slot once per prime dividing
it, about N log log N element updates.  They take about sqrt(N) numpy
ops, not pi(N): one strided multiply per prime p <= sqrt(N), and one
fancy-index multiply per cofactor s <= sqrt(N) that covers every
multiple s p with p > sqrt(N) at once.

Every consumer of primes (this build, the Euler ladder in `analytic`
and the oracle's enumeration) takes them from `primes_between(lo, hi)`,
a segmented odd-only sieve of Eratosthenes in segments of 2^20 odd
slots (1 MB of flags).  Each rung of the zeta ladder sieves only its
own range (P_{k-1}, P_k], once, so it holds one segment plus 8 B per
prime of the rung.

The central consumer regroups the ideal Mobius sum by norm: the count
of relatively r-prime m-tuples with all norms <= x equals

    sum over n <= x^(1/r) of  b[n] * I_K(x / n^r)^m

The sum runs over blocks of n sharing one value q = floor(x / n^r),
each adding (B(n_end) - B(n - 1)) * I_K(q)^m with B the prefix sum of
b (the floor-value grouping of Deleglise and Rivat).  For r = 1 there
are at most 2 sqrt(x) blocks: the n <= sqrt(x) are read off the floor
values and the rest end at x // q for each smaller q.  For r >= 2 the
same pass over n <= x^(1/r) (at most 10^4 at the cap) finds every
block end.  I_K and B are read at all ends with one fancy index each
from the table's stored prefix sums.  The products and their sum are
then one Python-integer term per block, with no overflow bound.  Below
norm 1 the sum is empty and the count is 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from itertools import repeat
from operator import mul

import numpy as np

from .errors import BudgetExceededError, FieldSpecError
from .fields import FieldSpec, residue_degrees

MAX_TABLE_N = 10**8  # beyond this the flat int32 layout stops fitting desk RAM


def local_series(degrees: np.ndarray | list[int], p: int, N: int) -> tuple[list[int], list[int]]:
    """Coefficients of the local factor at p, truncated to p^k <= N.

    `degrees[f - 1]` counts the prime ideals of residue degree f above
    p (a row of `fields.residue_degrees`).  Returns (a_pows, b_pows)
    where index k corresponds to norm p^k: a_pows are coefficients of
    prod_i (1 - X^{f_i})^{-1} and b_pows of prod_i (1 - X^{f_i}).
    """
    if N < p:
        raise ValueError(f"need N >= p, got N={N}, p={p}")
    kmax = 0
    q = p
    while q <= N:
        kmax += 1
        q *= p
    a = [0] * (kmax + 1)
    a[0] = 1
    b = [0] * (kmax + 1)
    b[0] = 1
    for f, count in enumerate(degrees[:kmax], start=1):
        for _ in range(int(count)):
            for k in range(f, kmax + 1):  # multiply by 1/(1 - X^f)
                a[k] += a[k - f]
            for k in range(kmax, f - 1, -1):  # multiply by (1 - X^f)
                b[k] -= b[k - f]
    return a, b


_SEGMENT = 1 << 20  # odd slots per segment: 1 MB of flags


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Sorted int64 array of the primes p with lo <= p <= hi.

    Segmented odd-only sieve of Eratosthenes: slot j stands for 2j + 1,
    and each segment of `_SEGMENT` slots is struck by the base primes
    p <= sqrt(hi) (found by this function) with p^2 <= its top, from
    the larger of p^2 and the first odd multiple of p in the segment.
    A segment's flags are freed before its indices are widened to
    numbers, so memory is one segment plus 8 B per prime returned.
    """
    lo = max(lo, 2)
    if hi < lo:
        return np.zeros(0, dtype=np.int64)
    base = primes_between(3, math.isqrt(hi)).tolist()
    pieces = [np.array([2] if lo == 2 else [], dtype=np.int64)]
    for start in range(lo // 2, (hi + 1) // 2, _SEGMENT):
        end = min(start + _SEGMENT, (hi + 1) // 2)
        o = 2 * start + 1  # the number in the segment's first slot
        flags = np.ones(end - start, dtype=bool)
        for p in base:
            if p * p > 2 * end - 1:
                break
            m = max(p * p, -(-o // p) * p)
            if m % 2 == 0:  # odd multiples only
                m += p
            flags[(m - o) // 2 :: p] = False
        idx = np.flatnonzero(flags)
        del flags
        idx *= 2
        idx += o
        pieces.append(idx)
    return np.concatenate(pieces)


def prime_flags(N: int) -> np.ndarray:
    """Boolean array whose entry n is True exactly when n <= N is prime."""
    flags = np.zeros(N + 1, dtype=bool)
    flags[primes_between(2, N)] = True
    return flags


def _differences(prefix: np.ndarray) -> np.ndarray:
    """Read-only int32 first difference of a table's prefix array."""
    d = np.empty_like(prefix)
    d[0] = prefix[0]
    # each difference is one a or b value, so int32 holds it exactly
    np.subtract(prefix[1:], prefix[:-1], out=d[1:])
    d.setflags(write=False)
    return d


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Immutable prefix sums of the a/b tables for one field up to norm N.

    Two flat int32 arrays, 8 B per slot: I_prefix[n] = I_K(n) and
    B_prefix[n] = B(n).  I_K(N) < 2^31 is checked before the prefixes
    are taken, and |B(n)| <= I_K(n), so neither wraps.  The arrays are
    marked read-only, so a built table can be shared across threads and
    queried concurrently.  Tables compare by identity (the arrays make
    value equality a trap).
    """

    field: FieldSpec
    N: int
    I_prefix: np.ndarray
    B_prefix: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.I_prefix, self.B_prefix):
            arr.setflags(write=False)

    @property
    def a(self) -> np.ndarray:
        """a[n], the number of ideals of norm n: a fresh read-only int32
        array of N + 1 entries, taken from I_prefix in O(N) per access."""
        return _differences(self.I_prefix)

    @property
    def b(self) -> np.ndarray:
        """b[n], the ideal Mobius sum over norm n: a fresh read-only int32
        array of N + 1 entries, taken from B_prefix in O(N) per access."""
        return _differences(self.B_prefix)


def _finish_table(field: FieldSpec, N: int, a: np.ndarray, b: np.ndarray) -> CoefficientTable:
    """Check the int32 arrays a/b and turn them into the table's prefix sums.

    a counts ideals and dominates |b|; a value outside that, or a total
    I_K(N) that int32 cannot hold, raises `OverflowError` rather than
    ship a wrapped table.  Once the checks pass, a and b are prefix-summed
    in place and become the table's arrays, so the caller hands them over.
    """
    # a >= 0 first, so -a cannot wrap
    if int(a.min()) < 0 or bool(np.any(b > a)) or bool(np.any(b < -a)):
        raise OverflowError("coefficient table left its 32-bit layout: some a < 0 or |b| > a")
    total = int(a.sum(dtype=np.int64))
    if total >= 2**31:
        raise OverflowError(f"I_K(N) = {total} does not fit the int32 prefix sums")
    np.cumsum(a, dtype=np.int32, out=a)
    np.cumsum(b, dtype=np.int32, out=b)
    return CoefficientTable(field=field, N=N, I_prefix=a, B_prefix=b)


def build_tables(field: FieldSpec, N: int) -> CoefficientTable:
    """Sieve the a/b tables for all norms up to N.

    Enumerates rational primes p <= N and reads the residue degrees
    above each from one `residue_degrees` table.  A prime p <= sqrt(N)
    multiplies its local coefficients onto its multiples in one strided
    op; the primes above sqrt(N) are spread together, one op per
    cofactor s.  Index-divisor refusals from the splitting computation
    propagate.
    """
    if N < 1:
        raise ValueError(f"table cap must be >= 1, got {N}")
    if N > MAX_TABLE_N:
        raise BudgetExceededError(f"table cap {N} exceeds the documented limit {MAX_TABLE_N}")
    a = np.ones(N + 1, dtype=np.int32)
    b = np.ones(N + 1, dtype=np.int32)
    a[0] = 0
    b[0] = 0
    primes = primes_between(2, N)
    degrees = residue_degrees(field, primes)
    small = int(np.searchsorted(primes, math.isqrt(N), side="right"))  # count of p^2 <= N
    for p, row in zip(primes[:small].tolist(), degrees[:small]):
        a_loc, b_loc = local_series(row, p, N)
        # entry j is the multiple (j + 1) p, whose valuation is >= k
        # exactly when p^(k-1) divides j + 1
        ta = np.full(N // p, a_loc[1], dtype=np.int32)
        tb = np.full(N // p, b_loc[1], dtype=np.int32)
        for k in range(2, len(a_loc)):
            step = p ** (k - 1)
            ta[step - 1 :: step] = a_loc[k]
            tb[step - 1 :: step] = b_loc[k]
        a[p::p] *= ta
        b[p::p] *= tb
    # p^2 > N: every multiple s p <= N has s < p, so valuation exactly 1;
    # group the multiples by s, one fancy-index op over all p <= N // s
    large = primes[small:]
    g1 = degrees[small:, 0].astype(np.int32)
    neg_g1 = -g1
    s_max = N // int(large[0]) if len(large) else 0
    for s in range(1, s_max + 1):
        cnt = int(np.searchsorted(large, N // s, side="right"))
        idx = s * large[:cnt]
        a[idx] *= g1[:cnt]
        b[idx] *= neg_g1[:cnt]
    return _finish_table(field, N, a, b)


def _norm_bound(x: float) -> int:
    """floor(x) for a finite x >= 0; ValueError naming x otherwise."""
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    return int(x)


def ideal_count(table: CoefficientTable, x: float) -> int:
    """Number of ideals with norm <= x (floor semantics on x)."""
    X = _norm_bound(x)
    if X > table.N:
        raise ValueError(f"x={x} exceeds the table cap N={table.N}")
    return int(table.I_prefix[X])


def _integer_root(n: int, r: int) -> int:
    """Largest k with k**r <= n."""
    if n < 0 or r < 1:
        raise ValueError("integer root needs n >= 0, r >= 1")
    if r == 1 or n < 2:
        return n
    k = int(round(n ** (1.0 / r)))
    while k > 0 and k**r > n:
        k -= 1
    while (k + 1) ** r <= n:
        k += 1
    return k


def _block_ends(X: int, r: int) -> np.ndarray:
    """Sorted int64 array [0, e_1, ..., L] of the block ends for floor(X / n^r).

    e_i runs over the n in [1, L], L = floor(X^(1/r)), with
    X // n^r != X // (n + 1)^r: the last n of each block of the Mobius
    sum.  Below T the blocks are read off the floor values directly; for
    r = 1, T = floor(sqrt(X)) and every value q <= X // (T + 1) then gets
    the end X // q.  For r >= 2, T = L, so that tail is empty.
    """
    T = _integer_root(X, max(r, 2))
    n = np.arange(1, T + 1, dtype=np.int64)
    q_small = X // n**r  # n^r <= X, so no power wraps
    q_T = X // (T + 1) ** r  # Python int: (T + 1)^r can pass int64
    small = n[q_small != np.concatenate((q_small[1:], [q_T]))]
    return np.concatenate(([0], small, X // np.arange(q_T, 0, -1, dtype=np.int64)))


def count_rprime_mobius(table: CoefficientTable, x: float, m: int, r: int) -> int:
    """Exact count of relatively r-prime m-tuples with all norms <= x.

    Evaluates the Mobius-sum identity aggregated by norm (see the module
    docstring): the block ends and the prefix reads at them are numpy
    passes, and each block adds one Python-integer term, so the result
    is exact at every size.  For 0 <= x < 1 there is no block and the
    count is 0, as for the oracle.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    X = _norm_bound(x)
    if X > table.N:
        raise ValueError(f"x={x} exceeds the table cap N={table.N}")
    ends = _block_ends(X, r)
    # |B(n)| <= I_K(n) < 2^31, so the int64 differences of the stored
    # int32 B_prefix are exact; products are taken in Python ints
    dB = np.diff(table.B_prefix[ends].astype(np.int64)).tolist()
    I_q = table.I_prefix[X // ends[1:] ** r].tolist()
    total = sum(map(mul, dB, map(pow, I_q, repeat(m))))
    if total < 0:
        raise OverflowError("negative tuple count: table corrupt")
    return total


_CACHE_MAGIC = b"RPTABLE1"
_CACHE_VERSION = 1


def table_fingerprint(field: FieldSpec) -> bytes:
    """Digest of the field data that determines the table contents."""
    payload = json.dumps(field.fingerprint_data(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).digest()


def save_table(table: CoefficientTable, path: str) -> None:
    """Dump (fingerprint, N, a, b) as a little-endian binary cache;
    `load_table` sums a and b back into the prefix arrays."""
    with open(path, "wb") as handle:
        handle.write(_CACHE_MAGIC)
        handle.write(struct.pack("<I", _CACHE_VERSION))
        handle.write(table_fingerprint(table.field))
        handle.write(struct.pack("<Q", table.N))
        # one difference array at a time; no copy on a little-endian host
        handle.write(table.a.astype("<i4", copy=False))
        handle.write(table.b.astype("<i4", copy=False))


def load_table(field: FieldSpec, path: str) -> CoefficientTable:
    """Load a cached table, validating magic, version, fingerprint and
    the a/b values (a >= 0, |b| <= a, I_K(N) < 2^31)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    header = len(_CACHE_MAGIC) + 4 + 32 + 8
    if len(blob) < header or blob[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        raise FieldSpecError(f"{path}: not a table cache file")
    (version,) = struct.unpack_from("<I", blob, len(_CACHE_MAGIC))
    if version != _CACHE_VERSION:
        raise FieldSpecError(f"{path}: unsupported cache version {version}")
    fp = blob[len(_CACHE_MAGIC) + 4 : len(_CACHE_MAGIC) + 4 + 32]
    if fp != table_fingerprint(field):
        raise FieldSpecError(f"{path}: cache fingerprint does not match field {field.name!r}")
    (N,) = struct.unpack_from("<Q", blob, len(_CACHE_MAGIC) + 4 + 32)
    expected = header + 2 * 4 * (N + 1)
    if len(blob) != expected:
        raise FieldSpecError(f"{path}: truncated cache (have {len(blob)} bytes, want {expected})")
    a = np.frombuffer(blob, dtype="<i4", count=N + 1, offset=header).astype(np.int32)
    b = np.frombuffer(blob, dtype="<i4", count=N + 1, offset=header + 4 * (N + 1)).astype(np.int32)
    try:
        return _finish_table(field, int(N), a, b)
    except OverflowError as exc:
        raise FieldSpecError(f"{path}: corrupt cache: {exc}") from exc
