"""Brute-force oracle over ideals as (norm, surviving-set) pairs.

The counting problems in this package ask two things of an ideal: its
norm, and which prime ideals divide it to exponent >= r.  So an ideal
is enumerated as a pair (norm, mask), never a lattice: bit j of the
mask is the j-th prime ideal in order of norm, as read from
`fields.residue_degrees`.  Distinct primes of equal norm lie above the
same rational p and get consecutive bits; any consistent order yields
identical counts.

Directly counting relatively r-prime m-tuples iterates the m-fold
product in aggregated form.  A prefix (a_1..a_k) is summarized by its
surviving set, the primes with exponent >= r in every member so far,
and by its largest norm.  Ideals are grouped by their own surviving
set T, the mask, with one histogram over norms per group; the
one-member prefixes are these groups.  Step k extends each surviving
set S by every group; the new set is S & T.  Extension is a
max-convolution of norm histograms, which is linear in the group
histogram, so the groups are first bucketed by S & T and summed, and
each (S, bucket) pair takes one convolution.  The empty bucket, every
group disjoint from S, is the histogram of all ideals less the other
buckets, so a state adds up only the groups it meets.  The empty set is
one more state: it meets no group, so it is extended by the histogram
of all ideals.  On the last step only the empty bucket is convolved,
because a prime that survives all m steps makes the tuple not r-prime.

A tuple is relatively r-prime exactly when its surviving set is empty,
so the count is the definition's finite sum over tuples, regrouped; no
Mobius identity enters, which keeps the oracle independent of the
Mobius route.  Tests pin it against a literal itertools.product
enumeration.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceededError
from .fields import FieldSpec, residue_degrees
from .sieve import _norm_bound, primes_between

ENUMERATION_GUARD = 10**5  # largest X whose ideals we will materialize
DIRECT_COUNT_BUDGET = 2**63  # I_K(x)^m below this keeps the int64 counts exact
STEP_CELL_BUDGET = 10**9  # cap on G^2 * (x + 1) for G surviving sets


def enumerate_ideals(
    field: FieldSpec,
    X: float,
    r: int,
) -> list[tuple[int, int]]:
    """All ideals of norm <= X as sorted (norm, mask) pairs, one per ideal.

    Bit j of mask stands for the j-th prime ideal in order of norm and
    is set when that prime divides the ideal to exponent >= r.
    Recursive descent over the prime ideals ordered by norm, dividing
    the remaining norm budget at each step.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    Xi = _norm_bound(X)
    if Xi > ENUMERATION_GUARD:
        raise BudgetExceededError(
            f"enumeration of norms <= {Xi} exceeds the guard {ENUMERATION_GUARD}"
        )
    if Xi < 1:
        return []
    primes = primes_between(2, Xi)
    norms: list[int] = []
    for p, row in zip(primes.tolist(), residue_degrees(field, primes).tolist()):
        for f, count in enumerate(row, start=1):
            if p**f <= Xi:
                norms += [p**f] * count
    norms.sort()
    out: list[tuple[int, int]] = []

    def descend(start: int, budget: int, norm: int, mask: int) -> None:
        out.append((norm, mask))
        for j in range(start, len(norms)):
            q = norms[j]
            if q > budget:
                break  # norms ascending: nothing further fits
            rem = budget // q
            power = q
            exp = 1
            while True:
                descend(j + 1, rem, norm * power, mask | (1 << j) if exp >= r else mask)
                if q <= rem:
                    rem //= q
                    power *= q
                    exp += 1
                else:
                    break

    descend(0, Xi, 1, 0)
    out.sort()
    return out


def _support_groups(
    ideals: list[tuple[int, int]], Xi: int
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Histogram (norm, mask) pairs by their surviving set, the mask.

    Returns (groups, total) where groups maps each distinct surviving
    set to an int64 histogram over norms and total is the histogram of
    all ideals.

    Every prefix state of the oracle is itself one of the G sets: the
    ideal prod P^r over a state's primes divides each member of the
    prefix, so its norm is <= Xi.  Hence a step adds at most G * G
    histograms of Xi + 1 cells.  Before allocating any histogram this
    raises BudgetExceededError when G^2 (Xi + 1) exceeds
    STEP_CELL_BUDGET; with the enumeration guard (Xi <= 10^5)
    that also caps the G histograms at 10^7 cells.
    """
    distinct = dict.fromkeys(mask for _, mask in ideals)  # first-seen order
    G = len(distinct)
    if G * G * (Xi + 1) > STEP_CELL_BUDGET:
        raise BudgetExceededError(
            f"{G} surviving sets at x = {Xi}: G^2 (x + 1) = {G * G * (Xi + 1)} "
            f"exceeds the step-cell budget {STEP_CELL_BUDGET}"
        )
    groups = {mask: np.zeros(Xi + 1, dtype=np.int64) for mask in distinct}
    total = np.zeros(Xi + 1, dtype=np.int64)
    for norm, mask in ideals:
        groups[mask][norm] += 1
        total[norm] += 1
    return groups, total


def _max_convolve(C: np.ndarray, H: np.ndarray) -> np.ndarray:
    """D[t] = number of pairs (u, v) with C-weight at u, H-weight at v
    and max(u, v) = t.  Linear in each argument."""
    cum_c = np.cumsum(C)
    cum_h = np.cumsum(H)
    D = C * cum_h
    D[1:] += cum_c[:-1] * H[1:]
    return D


def count_rprime_direct_upto(
    field: FieldSpec,
    X: float,
    m: int,
    r: int,
) -> np.ndarray:
    """Counts of relatively r-prime m-tuples for every integer bound.

    Returns an int64 array V with V[x] = number of m-tuples of ideals,
    all norms <= x, whose surviving-set masks have an empty AND, for
    0 <= x <= floor(X).  One enumeration pass serves every x.

    Step k extends each surviving prefix set S, the empty set included,
    by every ideal, grouped by surviving set T; the extended set is
    S & T.  The groups are first bucketed by S & T and their histograms
    summed (the empty bucket as the total less the others), so each
    (S, bucket) takes one max-convolution.  On step m only the empty
    bucket is convolved: a prefix with a prime left in its set is never
    r-prime.  V is the running sum of the final empty-set histogram.
    Both only regroup the definition's finite sum over tuples; no Mobius
    identity is used.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    Xi = _norm_bound(X)
    ideals = enumerate_ideals(field, Xi, r)
    # every prefix count, convolution and term of V counts m-tuples or
    # fewer-member prefixes of ideals of norm <= Xi, so all are <= I_K(Xi)^m
    if len(ideals) ** m >= DIRECT_COUNT_BUDGET:
        raise BudgetExceededError(
            f"I_K({Xi})^{m} = {len(ideals) ** m} is not below the direct-count budget 2^63, "
            "past which the int64 counts could wrap"
        )
    groups, total_hist = _support_groups(ideals, Xi)
    # level[S][v]: prefixes with surviving set S and max norm v, starting
    # from the one-member prefixes; S = 0 is the empty set
    level = dict(groups)
    for k in range(2, m + 1):
        nxt: dict[int, np.ndarray] = {}
        for state, counts in level.items():
            buckets: dict[int, np.ndarray] = {}  # S & T -> summed histograms
            for supp, hist in groups.items():
                narrowed = state & supp
                if not narrowed:
                    continue
                if narrowed in buckets:
                    buckets[narrowed] += hist
                else:
                    buckets[narrowed] = hist.copy()
            # The empty bucket holds every group not met above.
            buckets[0] = total_hist - sum(buckets.values())
            for narrowed, hist in buckets.items():
                if k == m and narrowed:
                    continue  # a prime survives all m steps: never r-prime
                joined = _max_convolve(counts, hist)
                if narrowed in nxt:
                    nxt[narrowed] += joined
                else:
                    nxt[narrowed] = joined
        level = nxt
    return np.cumsum(level.get(0, np.zeros(Xi + 1, dtype=np.int64)))


def count_rprime_direct(
    field: FieldSpec,
    x: float,
    m: int,
    r: int,
) -> int:
    """Exact number of relatively r-prime m-tuples with norms <= x,
    straight from the definition (no Mobius identity involved)."""
    V = count_rprime_direct_upto(field, x, m, r)
    return int(V[int(x)])
