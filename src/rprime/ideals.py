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
surviving set, the primes with exponent >= r in every member so far.
Ideals are grouped by their own surviving set T, the mask, with one
cumulative count over norms per group.  "Every norm <= x" holds member
by member, so at each x the prefixes of set S extended by group T, all
norms <= x, number the product of the two counts and have set S & T.
That product is linear in the group's count, so the groups are first
bucketed by S & T and summed; the empty bucket, every group disjoint
from S, is the count of all ideals less the other buckets.  On the last
step only the empty bucket is taken, because a prime that survives all
m steps makes the tuple not r-prime.

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
    """Cumulative norm counts of (norm, mask) pairs per surviving set.

    Returns (groups, total) where groups maps each distinct surviving
    set T to the int64 array c_T with c_T[x] = the number of ideals of
    mask T and norm <= x, and total is the same count over all ideals.

    Every prefix state of the oracle is itself one of the G sets: the
    ideal prod P^r over a state's primes divides each member of the
    prefix, so its norm is <= Xi.  Hence a step takes at most G * G
    products of Xi + 1 cells.  Before any array is allocated this
    raises BudgetExceededError when G^2 (Xi + 1) exceeds
    STEP_CELL_BUDGET; with the enumeration guard (Xi <= 10^5)
    that also caps the G count arrays at 10^7 cells.
    """
    index = {mask: g for g, mask in enumerate(dict.fromkeys(mask for _, mask in ideals))}
    G = len(index)
    if G * G * (Xi + 1) > STEP_CELL_BUDGET:
        raise BudgetExceededError(
            f"{G} surviving sets at x = {Xi}: G^2 (x + 1) = {G * G * (Xi + 1)} "
            f"exceeds the step-cell budget {STEP_CELL_BUDGET}"
        )
    cells = np.array([index[mask] * (Xi + 1) + norm for norm, mask in ideals], dtype=np.int64)
    counts = np.bincount(cells, minlength=G * (Xi + 1)).reshape(G, Xi + 1)
    np.cumsum(counts, axis=1, out=counts)
    return dict(zip(index, counts)), counts.sum(axis=0)


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
    by every group T of ideals, taking S into S & T: one pointwise
    product of cumulative counts per (S, bucket), as the module
    docstring describes.  V is the empty set's count after step m.  No
    Mobius identity is used.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    Xi = _norm_bound(X)
    ideals = enumerate_ideals(field, Xi, r)
    # every prefix count and product counts m-tuples or fewer-member
    # prefixes of ideals of norm <= Xi, so all are <= I_K(Xi)^m
    if len(ideals) ** m >= DIRECT_COUNT_BUDGET:
        raise BudgetExceededError(
            f"I_K({Xi})^{m} = {len(ideals) ** m} is not below the direct-count budget 2^63, "
            "past which the int64 counts could wrap"
        )
    groups, total = _support_groups(ideals, Xi)
    # level[S][x]: prefixes with surviving set S and all norms <= x,
    # starting from the one-member prefixes; S = 0 is the empty set
    level = groups
    for k in range(2, m + 1):
        nxt: dict[int, np.ndarray] = {}
        for state, counts in level.items():
            buckets: dict[int, np.ndarray] = {}  # S & T -> summed counts
            for supp, cum in groups.items():
                narrowed = state & supp
                if not narrowed:
                    continue
                if narrowed in buckets:
                    buckets[narrowed] += cum
                else:
                    buckets[narrowed] = cum.copy()
            # The empty bucket holds every group not met above.
            buckets[0] = total - sum(buckets.values())
            for narrowed, cum in buckets.items():
                if k == m and narrowed:
                    continue  # a prime survives all m steps: never r-prime
                joined = counts * cum
                if narrowed in nxt:
                    nxt[narrowed] += joined
                else:
                    nxt[narrowed] = joined
        level = nxt
    return level.get(0, np.zeros(Xi + 1, dtype=np.int64))


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
