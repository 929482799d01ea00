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
The build fills the table in the fewest segments of at most 2^17
slots, of equal length to within one slot, a in place in its prefix
array and b in a reused int32 segment row, and touches each slot about
log log N times.  Only the primes p <= sqrt(N) are sieved, once, and 2
at every N >= 2.  Each segment takes a few strided ops
per prime p with p^2 <= 2^17 (and 2 at any segment size), and one
batch of ufunc.at products for all primes from there up to sqrt(N),
which have few multiples in a segment.  Both also divide a uint32
cofactor row, which starts at n, by the power of p in n: an odd p^v
by a product with its inverse mod 2^32, exact because p^v divides the
row (Granlund and Montgomery, PLDI 1994, section 9), and 2^v by a
right shift.  The row so ends at n over its sqrt(N)-smooth part, with
no division.  A slot n > 1 whose cofactor still equals its entry in a
reused row of n is a prime above sqrt(N): the segment's such primes go
to `residue_degrees`, and their -g_1 into an int8 lookup at q >> 1
(0.5 B/slot), exact because 2 is sieved, so every such q is odd.
Every cofactor is 1 or the one prime factor of n above sqrt(N), which
is n itself or lies in an earlier segment, so the lookup, gathered at
the cofactors shifted right by one (into the intp row np.take would
otherwise copy the uint32 row to), finishes the segment.
Each segment is then checked and prefix-summed with the
running totals in rows of 8 slots: 7 column adds, one short cumsum
over the row ends and one broadcast add, in place of numpy's
accumulate, a scalar loop whose every step waits on the last.  B is
then stored in int16 while every |B(n)| < 2^15, at the cost of one
min, one max and one narrowing copy per segment; the first segment past
that moves B_prefix to int32, copying only the slots before it.  Every
shipped field keeps B in int16 at N = 1e7 (max |B| = 5,726), so its
table holds 6 B/slot and a build peaks at 8.3-8.4 B/slot under
tracemalloc at N = 2e6 (10.3-10.4 with B in int32 and the lookup over
every slot).  A cache file is one 52-byte header struct and then a and
b in int32, whatever the width of B_prefix: the writer takes them
segment by segment from `_differences`, which widens; the reader reads
a into the new table's I_prefix and b one segment at a time into a
reused row, and checks, sums and stores them as the build does (a load
peaks at 6.6 B/slot under tracemalloc at N = 2e6, 8.3 with B in
int32; Q at N = 1e7 loads in 0.09-0.11 s and 92 MB RSS, 111 MB with B
in int32, shared 2-core Xeon VM, numpy 2.4).

Every sieve of primes (this build's to sqrt(N), the Euler ladder in
`analytic` and the oracle's enumeration) is `prime_segments(lo, hi)`
or its concatenation `primes_between(lo, hi)`: a segmented odd-only
sieve of Eratosthenes in segments of 2^20 odd slots (1 MB of flags).
Each rung of the zeta ladder sieves only its own range (P_{k-1}, P_k],
once, one segment at a time, so it holds one segment plus 8 B per
prime of that segment.

The central consumer regroups the ideal Mobius sum by norm: the count
of relatively r-prime m-tuples with all norms <= x equals

    sum over n <= x^(1/r) of  b[n] * I_K(x / n^r)^m

The sum runs over blocks of n sharing one value q = floor(x / n^r),
each adding (B(n_end) - B(n - 1)) * I_K(q)^m with B the prefix sum of
b (the floor-value grouping of Deleglise and Rivat).  For r = 1 there
are at most 2 sqrt(x) blocks: the n <= sqrt(x) are read off the floor
values and the rest end at x // q for each smaller q.  For r >= 2 the
same pass over n <= x^(1/r) (at most 10^4 at the cap) finds every
block end.  Each end comes with its q, so no end is divided again.  B
is read at all ends with one fancy index.  A block with
B(n_end) = B(n - 1) adds exactly 0 * I_K(q)^m and is dropped; I_K is
read only at the live blocks.  Their sum is exact with no Python-int
term per block: each I = I_K(q) is raised to I^m in int64 limbs of

    w = 62 - max(bits(max I), bits(sum |dB|))

bits, dB the live differences of B.  Each further factor of I takes
one schoolbook pass over the limbs with one carry, where l * I + carry
stays below 2^(w + bits(I)) <= 2^62, and the limbs stop at the bit
length of (max I)^m.  Each limb enters one int64 dot product with dB,
at most sum |dB| * 2^w < 2^62, and the few dot products are shift-added
as Python ints.  The count checks I >= 0, max I < 2^31 and
sum |dB| < 2^31, which make w >= 31 >= bits(I); a table from the build
or a cache meets them (|b| <= a, so sum |dB| <= I_K(N) < 2^31), and
any other raises `OverflowError`.  The vector passes grow as m^2
(about m^2 bits(I) / 2w of them), a per-block Python-int sum only as
m, so the limbs win where many blocks are live: against that sum they
are 1.6-5.9 times faster at r = 1 for x >= 1e6 up to m = 12.  With at
most x^(1/r) blocks they lose from about m = 6 for r = 2 at x >= 1e6,
and from m = 2-4 for r = 3 or x = 1e4, by at most 10 us at m <= 4.
Below norm 1 the sum is empty and the count is 0.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, FieldSpecError
from .fields import FieldSpec, residue_degrees

# Q at this cap peaks at 655 MB RSS (I_K in int32, B in int16, the odd-q
# lookup); beyond it the flat layout stops fitting desk RAM
MAX_TABLE_N = 10**8


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


def prime_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes p with lo <= p <= hi, as sorted int64 arrays, one per
    sieve segment (2 rides in front of the first).

    Segmented odd-only sieve of Eratosthenes: slot j stands for 2j + 1,
    and each segment of `_SEGMENT` slots is struck by the base primes
    p <= sqrt(hi) (found by `primes_between`) with p^2 <= its top, from
    the larger of p^2 and the first odd multiple of p in the segment.
    A segment's flags are freed before its indices are widened to
    numbers, so a consumer that takes one array at a time holds one
    segment plus 8 B per prime of it.
    """
    lo = max(lo, 2)
    if hi < lo:
        return
    base = primes_between(3, math.isqrt(hi)).tolist()
    head = [2] if lo == 2 else []
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
        if head:
            idx = np.concatenate((np.array(head, dtype=np.int64), idx))
            head = []
        yield idx
    if head:  # hi = 2: no odd slot to sieve
        yield np.array(head, dtype=np.int64)


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Sorted int64 array of the primes p with lo <= p <= hi: the
    `prime_segments` of that range, joined."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *prime_segments(lo, hi)])


def prime_flags(N: int) -> np.ndarray:
    """Boolean array whose entry n is True exactly when n <= N is prime."""
    flags = np.zeros(N + 1, dtype=bool)
    flags[primes_between(2, N)] = True
    return flags


def _differences(prefix: np.ndarray, seg: slice = slice(None)) -> np.ndarray:
    """Read-only int32 first differences of a table's prefix array over the slots of seg."""
    part = prefix[seg]
    d = np.empty(len(part), dtype=np.int32)
    # each difference is one a or b value, so int32 holds it exactly; an
    # int16 B_prefix is widened before it is subtracted, where it could wrap
    np.subtract(part[1:], part[:-1], out=d[1:], dtype=np.int32)
    d[0] = int(part[0]) - (int(prefix[seg.start - 1]) if seg.start else 0)  # slot 0 has no base
    d.setflags(write=False)
    return d


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Immutable prefix sums of the a/b tables for one field up to norm N.

    Two flat arrays: I_prefix[n] = I_K(n) in int32, and B_prefix[n] = B(n)
    in int16 while every |B(n)| < 2^15, else in int32: 6 B per slot on
    every shipped field up to N = 1e7, 8 B once some |B(n)| >= 2^15.
    I_K(N) < 2^31 is checked before the prefixes are taken,
    |B(n)| <= I_K(n), and B is narrowed only after its range check, so
    neither wraps.  The arrays are marked read-only, so a built table can
    be shared across threads and queried concurrently.  Tables compare by
    identity (the arrays make value equality a trap).
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
        array of N + 1 entries, taken from B_prefix (widened from int16 where
        it is stored so) in O(N) per access."""
        return _differences(self.B_prefix)


_TABLE_SEGMENT = 1 << 17  # slots per build, load and save segment


def _segments(N: int) -> Iterator[slice]:
    """Consecutive slices [L, R) covering 0..N: the fewest of at most
    `_TABLE_SEGMENT` slots, longest first, their lengths within one slot."""
    count = -(-(N + 1) // _TABLE_SEGMENT)
    size, longer = divmod(N + 1, count)
    L = 0
    for i in range(count):
        R = L + size + (i < longer)
        yield slice(L, R)
        L = R


def _prefix_segment(a: np.ndarray, b: np.ndarray, I_before: int, B_before: int) -> tuple[int, int]:
    """Check one segment of int32 a/b values and prefix-sum it in place.

    a counts ideals and dominates |b|; a value outside that, or a running
    I_K that int32 cannot hold, raises `OverflowError` rather than ship a
    wrapped table.  I_before and B_before, I_K and B just below the
    segment, are added to its first slot before the sums.  Returns I_K
    and B at the segment's last slot.
    """
    # a >= 0 first, so -a cannot wrap
    if int(a.min()) < 0 or bool(np.any(b > a)) or bool(np.any(b < -a)):
        raise OverflowError("coefficient table left its 32-bit layout: some a < 0 or |b| > a")
    total = I_before + int(a.sum(dtype=np.int64))
    if total >= 2**31:
        raise OverflowError(f"I_K(N) >= {total} does not fit the int32 prefix sums")
    # every partial sum is some I_K(n) <= total, some |B(n)| <= I_K(n), or
    # a sum over consecutive slots, which the same bounds cover
    a[0] += I_before
    b[0] += B_before
    _running_sum(a)
    _running_sum(b)
    return total, int(b[-1])


def _store_B(B_prefix: np.ndarray, seg: slice, B: np.ndarray) -> np.ndarray:
    """Copy one finished int32 segment of B into B_prefix and return the
    array that holds it.

    B_prefix stays int16 while every |B(n)| < 2^15.  The first segment
    past that moves the table to a new int32 array, copying only the
    slots before seg, and every later segment is stored there.
    """
    if B_prefix.dtype == np.int16 and not -(2**15) < int(B.min()) <= int(B.max()) < 2**15:
        wide = np.empty(len(B_prefix), dtype=np.int32)
        wide[: seg.start] = B_prefix[: seg.start]
        B_prefix = wide
    B_prefix[seg] = B  # in range, so an int16 store does not wrap
    return B_prefix


def _running_sum(x: np.ndarray) -> None:
    """Prefix-sum a contiguous int32 array in place, in rows of 8.

    numpy's accumulate is a scalar loop, each step waiting on the last.
    Here 7 column adds sum each row, one short cumsum over the row ends
    gives the offset of every row, and one broadcast add lays them on.
    The slots past the last full row are summed on from its end.
    """
    full = len(x) - len(x) % 8
    rows = x[:full].reshape(-1, 8)
    for j in range(1, 8):
        rows[:, j] += rows[:, j - 1]
    ends = np.cumsum(rows[:, 7], dtype=np.int32)
    rows[1:] += ends[:-1, None]
    tail = x[max(full - 1, 0) :]
    np.cumsum(tail, dtype=np.int32, out=tail)


def _local_factors(field: FieldSpec, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local series of each prime p <= sqrt(N), from one
    `residue_degrees` call over them.

    Returns (P, C, a_ones).  P holds the primes p <= sqrt(N), and 2 for
    N >= 2, as int64;
    C[:, i, k] is (a_loc[k], b_loc[k], d_k) of P[i], zero past p^k > N,
    where d_k takes the factor p^k out of a multiple of p^k: the inverse
    of p^k mod 2^32 for odd p (its bits stored as int32), the shift k
    for p = 2; a_ones[i] says a_loc of P[i] is all ones.
    """
    # 2 is sieved at every N >= 2, so every prime left above the sieve
    # bound is odd, and the g_1 lookup needs odd slots only
    P = primes_between(2, max(math.isqrt(N), min(N, 2)))
    series = [local_series(row, p, N) for p, row in zip(P.tolist(), residue_degrees(field, P))]
    C = np.zeros((3, len(P), max((len(a) for a, _ in series), default=0)), np.int32)
    for i, (p, (a_loc, b_loc)) in enumerate(zip(P.tolist(), series)):
        k = range(len(a_loc))
        d = k if p == 2 else [pow(p, -j, 2**32) for j in k]
        C[:, i, : len(a_loc)] = a_loc, b_loc, np.array(d, np.uint32).view(np.int32)
    a_ones = np.array([a_loc.count(1) == len(a_loc) for a_loc, _ in series], dtype=bool)
    return P, C, a_ones


def _spread_sparse(
    a: np.ndarray,
    b: np.ndarray,
    cofactor: np.ndarray,
    L: int,
    P: np.ndarray,
    C: np.ndarray,
    with_a: bool,
) -> None:
    """Multiply the local coefficients of the primes P onto their
    multiples in the segment [L, L + len(b)), for primes with p^2 above
    the segment length, all at once, and divide the cofactor row by the
    power of p in each multiple.

    Such a prime has few multiples in a segment and at most one multiple
    of p^2, so one index array covers every prime's multiples, the
    coefficient at p is read for all of them and the one at the exact
    valuation overwrites it at each multiple of p^2.  Several of the
    primes can divide one n, so the products go through ufunc.at.
    """
    R = L + len(b)
    first = np.maximum(P, -(-L // P) * P)
    count = np.maximum((R - 1 - first) // P + 1, 0)
    start = np.cumsum(count) - count  # where each prime's run begins
    # entry j of the run of p is first - L + (j - start) p
    offset = np.repeat(P, count)
    offset *= np.arange(len(offset))
    offset += np.repeat(first - L - start * P, count)
    mult = np.repeat(C[:, :, 1], count, axis=1)
    squares = P * P
    m2 = np.maximum(squares, -(-L // squares) * squares)
    hit = np.flatnonzero(m2 < R)
    if len(hit):
        p = P[hit]
        q = m2[hit] // squares[hit]
        v = np.full(len(hit), 2)
        while True:  # the exact valuation of each multiple of p^2
            divides = q % p == 0
            if not divides.any():
                break
            v += divides
            q[divides] //= p[divides]
        mult[:, start[hit] + (m2[hit] - first[hit]) // p] = C[:, hit, v]
    np.multiply.at(cofactor, offset, mult[2].view(np.uint32))
    np.multiply.at(b, offset, mult[1])
    if with_a:
        np.multiply.at(a, offset, mult[0])


def build_tables(field: FieldSpec, N: int) -> CoefficientTable:
    """Sieve the a/b tables for all norms up to N.

    The table is filled one segment [L, R) of `_segments` at a time, a
    in place in I_prefix and b in a reused int32 row; the work buffers
    are sized to the longest segment.  Each prime p <= sqrt(N), and 2
    at every N >= 2, multiplies its local
    coefficients onto its multiples in the segment, and divides the
    exact power p^k out of a uint32 cofactor row that starts at n: a
    product with the inverse of p^k mod 2^32 for odd p, a right shift
    by k for p = 2.  A prime with p^2 at most `_TABLE_SEGMENT`, and 2
    always, does so in strided ops, one per row of a pattern that holds
    each multiple's factor at its exact valuation (no a row where a_loc
    is all ones); the rest go through `_spread_sparse`.  The cofactor
    then is n over its sqrt(N)-smooth part.  A slot n > 1 whose
    cofactor is still n is a prime q > sqrt(N), and `residue_degrees`
    of the segment's such q writes -g_1(q) into an int8 lookup at
    q >> 1; with 2 sieved, every such q is odd.  Every n <= N
    has at most one prime factor q > sqrt(N), and q <= n, so the
    cofactor is 1 or a q of this segment or an earlier one, and the
    lookup, gathered at the cofactors shifted right by one with
    np.take, finishes b, and a once some g_1(q) != 1.  The segment is
    then checked and prefix-summed in rows of 8 with the running totals
    (`_prefix_segment`), and its B stored by `_store_B`: int16 while
    every |B(n)| < 2^15, int32 from the first segment past that.
    Index-divisor refusals from the splitting computation propagate.
    """
    if N < 1:
        raise ValueError(f"table cap must be >= 1, got {N}")
    if N > MAX_TABLE_N:
        raise BudgetExceededError(f"table cap {N} exceeds the documented limit {MAX_TABLE_N}")
    P, C, a_ones = _local_factors(field, N)
    # 2 is strided at every segment size: it divides by a right shift,
    # and the sparse pass only multiplies
    dense = int(np.searchsorted(P * P, max(_TABLE_SEGMENT, 4), side="right"))
    # column k of coef is (a_loc[k], b_loc[k], d_k), shaped to broadcast
    # over a pattern's rows; a prime whose a_loc is all ones drops its a row
    strided = [
        (p, C[int(a_ones[i]) :, i].T[:, :, None], np.right_shift if p == 2 else np.multiply)
        for i, p in enumerate(P[:dense].tolist())
    ]
    sparse_P, sparse_C, sparse_a = P[dense:], C[:, dense:], not a_ones[dense:].all()
    I_prefix = np.empty(N + 1, dtype=np.int32)
    B_prefix = np.empty(N + 1, dtype=np.int16)  # widened by _store_B if B leaves int16
    # -g_1(q) at q >> 1 for each prime q > sqrt(N) of the segments so far,
    # all odd, and 1 at slot 0 for the cofactor 1
    lookup = np.zeros(N // 2 + 1, dtype=np.int8)
    lookup[0] = 1
    large_a = False  # some g_1(q) != 1 so far
    segments = list(_segments(N))
    longest = segments[0].stop
    # rows a, b and d over the multiples of one prime in a longest segment
    pattern_buf = np.empty((3, longest // 2 + 1), dtype=np.int32)
    cofactor_buf = np.empty(longest, dtype=np.uint32)
    b_buf = np.empty(longest, dtype=np.int32)
    n_buf = np.arange(longest, dtype=np.uint32)  # n at each slot of the segment
    carry = (0, 0)
    for seg in segments:
        L, R = seg.start, seg.stop
        a, b, n = I_prefix[seg], b_buf[: R - L], n_buf[: R - L]
        # n over its sqrt(N)-smooth part once every prime <= sqrt(N) has
        # divided its power out; p^v divides the row exactly, so its product with p^-v mod
        # 2^32 is the quotient itself
        cofactor = cofactor_buf[: R - L]
        np.copyto(cofactor, n)
        a.fill(1)
        b.fill(1)
        if L == 0:
            a[0] = b[0] = 0
        for p, coef, divide in strided:
            m = max(p, -(-L // p) * p)  # first multiple of p in the segment
            if m >= R:
                continue
            # entry j is the multiple m + j p; it takes column k of coef
            # for the largest k with p^k dividing it
            pattern = pattern_buf[3 - coef.shape[1] :, : (R - 1 - m) // p + 1]
            pattern[...] = coef[1]
            step = p * p
            for k in range(2, len(coef)):
                mk = -(-m // step) * step
                if mk >= R:
                    break
                pattern[:, (mk - m) // p :: step // p] = coef[k]
                step *= p
            part = cofactor[m - L :: p]
            divide(part, pattern[-1].view(np.uint32), out=part)
            b[m - L :: p] *= pattern[-2]
            if len(pattern) == 3:
                a[m - L :: p] *= pattern[0]
        if len(sparse_P):
            _spread_sparse(a, b, cofactor, L, sparse_P, sparse_C, sparse_a)
        # no prime <= sqrt(N) divides a slot n > 1 whose cofactor is still
        # n, so n is a prime
        lo = max(L, 2)
        large = np.flatnonzero(cofactor[lo - L :] == n[lo - L :]) + lo
        g1 = residue_degrees(field, large)[:, 0]
        lookup[large >> 1] = -g1
        large_a = large_a or bool(np.any(g1 != 1))
        # the cofactor is 1 or the prime above sqrt(N) that divides n,
        # which is in this segment or an earlier one.  np.take would copy
        # the uint32 row to intp anyway, so the shift makes that copy; it is
        # freed at once, so its pages serve the next temporaries, where a
        # kept row would leave them to fault in fresh ones
        h = np.take(lookup, np.right_shift(cofactor, 1, dtype=np.intp))
        b *= h
        if large_a:
            np.abs(h, out=h)
            a *= h
        carry = _prefix_segment(a, b, *carry)
        B_prefix = _store_B(B_prefix, seg, b)
        n_buf += R - L  # the next segment starts at R
    return CoefficientTable(field=field, N=N, I_prefix=I_prefix, B_prefix=B_prefix)


def _norm_bound(x: float) -> int:
    """floor(x) for a finite x >= 0; ValueError naming x otherwise.  An
    int is taken exactly, so one past the float range is not refused."""
    if x < 0 or not (isinstance(x, int) or math.isfinite(x)):
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


def _block_ends(X: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The block ends of floor(X / n^r) and the value of each block.

    Returns (ends, q): ends is the sorted int64 array [0, e_1, ..., L],
    e_i running over the n in [1, L], L = floor(X^(1/r)), with
    X // n^r != X // (n + 1)^r: the last n of each block of the Mobius
    sum; q[i] = X // e_{i+1}^r.  Below T the blocks are read off the
    floor values; for r = 1, T = floor(sqrt(X)), where every n < T ends a
    block (X // n - X // (n + 1) >= 1 as n (n + 1) < T^2 <= X), and every
    value q <= X // (T + 1) then ends the block at X // q.  For r >= 2,
    T = L, so that tail is empty.
    """
    T = _integer_root(X, max(r, 2))
    if r > 1:  # T = L, so X // (T + 1)^r = 0 and there is no tail
        n = np.arange(1, T + 1, dtype=np.int64)
        q = X // n**r  # n^r <= X, so no power wraps
        last = q != np.concatenate((q[1:], [0]))
        return np.concatenate(([0], n[last])), q[last]
    q_T = X // (T + 1)
    # every n < T ends a block, and T does unless X // T = q_T
    small = np.arange(1, T + (T > 0 and X // T != q_T), dtype=np.int64)
    tail = np.arange(q_T, 0, -1, dtype=np.int64)  # X // (X // q) = q for q <= q_T
    return np.concatenate(([0], small, X // tail)), np.concatenate((X // small, tail))


def count_rprime_mobius(table: CoefficientTable, x: float, m: int, r: int) -> int:
    """Exact count of relatively r-prime m-tuples with all norms <= x.

    Evaluates the Mobius-sum identity aggregated by norm (see the module
    docstring): the block ends, the prefix reads at them and the sum over
    the live blocks are numpy passes, the sum in int64 limbs whose few
    dot products with dB are shift-added as Python ints, so the result
    is exact at every size.  The limbs need I_K >= 0, I_K < 2^31 and
    sum |dB| < 2^31 at the live blocks, which every table from
    `build_tables` or `load_table` meets; a table that breaks one
    raises `OverflowError`.  For 0 <= x < 1 there is no block and the
    count is 0, as for the oracle.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    X = _norm_bound(x)
    if X > table.N:
        raise ValueError(f"x={x} exceeds the table cap N={table.N}")
    # once 2^r > X, X // n^r = 0 for every n >= 2, so a larger r leaves
    # the count unchanged; clamping keeps n^r from growing with r
    r = min(r, max(X.bit_length(), 1))
    ends, q = _block_ends(X, r)
    # the int64 differences of the stored B_prefix, int16 or int32, are exact
    B = table.B_prefix[ends].astype(np.int64)
    dB = B[1:] - B[:-1]
    live = dB.nonzero()[0]
    if not len(live):
        return 0
    dB = dB[live]
    # read as uint64 a negative I_K wraps past 2^63, so one max checks
    # both I_K >= 0 and I_K < 2^31
    I_q = table.I_prefix[q[live]].astype(np.uint64)
    top = int(np.maximum.reduce(I_q))
    weight = int(np.add.reduce(np.abs(dB)))
    if top >= 2**31 or weight >= 2**31:
        raise OverflowError("I_K < 0, I_K >= 2^31 or sum |dB| >= 2^31: table corrupt")
    I_q = I_q.view(np.int64)
    # w >= 31 >= bits(I_K), so one limb holds I_K; l * I_K + carry stays
    # below 2^(w + bits(I_K)) <= 2^62 and a carry below 2^bits(I_K); a dot
    # product with dB is at most sum |dB| * 2^w < 2^62
    w = 62 - max(top.bit_length(), weight.bit_length())
    # numpy scalars: a Python-int shift count takes a slower ufunc path
    shift, mask = np.int64(w), np.int64((1 << w) - 1)
    limbs = [I_q]  # I_K(q)^k in base 2^w, least significant limb first
    power = top
    for _ in range(m - 1):
        # no I_K(q)^k passes top^k: the product needs one more limb only
        # when top^k does, and else the top limb stays below 2^w
        power *= top
        grow = len(limbs) * w < power.bit_length()
        for i, limb in enumerate(limbs):
            t = limb * I_q
            if i:
                t += carry
            if grow or i < len(limbs) - 1:
                carry = t >> shift
                t &= mask
            limbs[i] = t
        if grow:
            limbs.append(carry)
    total = sum(int(dB.dot(limb)) << (w * i) for i, limb in enumerate(limbs))
    if total < 0:
        raise OverflowError("negative tuple count: table corrupt")
    return total


_CACHE_MAGIC = b"RPTABLE1"
_CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<8sI32sQ")  # magic, version, fingerprint, N: 52 bytes


def table_fingerprint(field: FieldSpec) -> bytes:
    """Digest of the field data that determines the table contents."""
    # imported here, its only use: importing hashlib after numpy maps
    # OpenSSL, about 3.5 MB of RSS in every process that never caches
    import hashlib

    payload = json.dumps(field.fingerprint_data(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).digest()


def save_table(table: CoefficientTable, path: str) -> None:
    """Dump (fingerprint, N, a, b) as a little-endian binary cache;
    `load_table` sums a and b back into the prefix arrays.  The
    differences are written one segment at a time, so saving holds no
    table-sized copy."""
    with open(path, "wb") as handle:
        fingerprint = table_fingerprint(table.field)
        handle.write(_CACHE_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, fingerprint, table.N))
        for prefix in (table.I_prefix, table.B_prefix):
            for seg in _segments(table.N):
                handle.write(_differences(prefix, seg).astype("<i4", copy=False))


def load_table(field: FieldSpec, path: str) -> CoefficientTable:
    """Load a cached table, validating magic, version, fingerprint, the
    cap (1 <= N <= `MAX_TABLE_N`), the size and the a/b values (a = b = 0
    at norm 0, a >= 0, |b| <= a, I_K(N) < 2^31).  a is read into the
    table's I_prefix and b one segment at a time into a reused buffer;
    each segment is checked and summed as the build does, and B is stored
    by the build's rule (int16 while every |B(n)| < 2^15)."""
    with open(path, "rb") as handle:
        head = handle.read(_CACHE_HEADER.size)
        if len(head) < _CACHE_HEADER.size or not head.startswith(_CACHE_MAGIC):
            raise FieldSpecError(f"{path}: not a table cache file")
        _, version, fp, N = _CACHE_HEADER.unpack(head)
        if version != _CACHE_VERSION:
            raise FieldSpecError(f"{path}: unsupported cache version {version}")
        if fp != table_fingerprint(field):
            raise FieldSpecError(f"{path}: cache fingerprint does not match field {field.name!r}")
        if not 1 <= N <= MAX_TABLE_N:
            raise FieldSpecError(f"{path}: corrupt cache: N={N} outside [1, {MAX_TABLE_N}]")
        expected = _CACHE_HEADER.size + 2 * 4 * (N + 1)
        size = os.fstat(handle.fileno()).st_size
        if size != expected:  # checked before allocating, and on the bytes read
            raise FieldSpecError(f"{path}: truncated cache (have {size} bytes, want {expected})")
        I_prefix = np.fromfile(handle, dtype="<i4", count=N + 1)
        B_prefix = np.empty(N + 1, dtype=np.int16)
        segments = list(_segments(N))
        b_buf = np.empty(segments[0].stop, dtype="<i4")
        size = _CACHE_HEADER.size + 4 * len(I_prefix)
        carry = (0, 0)
        for seg in segments:
            a, b = I_prefix[seg], b_buf[: seg.stop - seg.start]
            size += handle.readinto(b)  # 0 at the end of the file
            if size < _CACHE_HEADER.size + 4 * (N + 1 + seg.stop):
                raise FieldSpecError(f"{path}: truncated cache (have {size} bytes, want {expected})")
            if seg.start == 0 and (a[0] or b[0]):
                # no ideal has norm 0, and every count reads I_K and B from slot 0 up
                raise FieldSpecError(f"{path}: corrupt cache: norm-0 slot holds a={a[0]}, b={b[0]}")
            try:
                carry = _prefix_segment(a, b, *carry)
            except OverflowError as exc:
                raise FieldSpecError(f"{path}: corrupt cache: {exc}") from exc
            B_prefix = _store_B(B_prefix, seg, b)
    return CoefficientTable(field=field, N=N, I_prefix=I_prefix, B_prefix=B_prefix)
