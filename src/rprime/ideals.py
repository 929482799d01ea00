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
count per group.  "Every norm <= x" holds member by member, so the
prefixes of set S extended by group T number the product of the two
counts and have set S & T.  That product is linear in the group's
count, so the groups that share a prime with S are bucketed by S & T
and summed; the empty bucket, every group disjoint from S, is the count
of all ideals less the other buckets, so disjoint groups are never
visited.  On the last step only the empty bucket is taken, because a
prime that survives all m steps makes the tuple not r-prime.

One DP, `_count_tuples`, serves both count types.  `count_rprime_direct`
counts at its one x: a group's count is its size, a Python int, and no
array over x is formed.  `count_rprime_direct_upto` is the only function
that holds per-x arrays: a group's count is the int64 array of its
cumulative counts over every norm bound <= X, and each product is
pointwise.  Both refuse alike (see `_checked_group_sizes`).  The int64
and step-cell guards bound the per-x arrays; the single count's Python
ints cannot wrap and need no cells, but it keeps those refusals so that
a single count and its dense form answer or refuse together.

On a shared 2-core VM, Q at x = 1389 with (m, r) = (2, 1), at the edge
of the step-cell guard, takes about 0.03 s as a single count and 0.22 s
in the dense form; the 20 oracle counts of a `tables-cubic` benchmark
pass take 0.016-0.028 s, most of it ideal enumeration.  The
residue-degree fill of a few hundred primes per count takes the
cubic's form classes and makes no per-prime call.

A tuple is relatively r-prime exactly when its surviving set is empty,
so the count is the definition's finite sum over tuples, regrouped; no
Mobius identity enters, which keeps the oracle independent of the
Mobius route.  Tests pin it against a literal itertools.product
enumeration.
"""

from __future__ import annotations

from typing import TypeVar

import numpy as np

from .errors import BudgetExceededError
from .fields import FieldSpec, residue_degrees
from .sieve import _norm_bound, primes_between

ENUMERATION_GUARD = 10**5  # largest X whose ideals we will materialize
DIRECT_COUNT_BUDGET = 2**63  # I_K(x)^m below this keeps the int64 counts exact
STEP_CELL_BUDGET = 10**9  # cap on G^2 * (x + 1) for G surviving sets

# a group count: ideals of norm <= x at one x, or cumulative over every x
Count = TypeVar("Count", int, np.ndarray)


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
            f"enumeration of norms <= {X} exceeds the guard {ENUMERATION_GUARD}"
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


def _checked_group_sizes(
    field: FieldSpec, X: float, m: int, r: int
) -> tuple[int, list[tuple[int, int]], dict[int, int]]:
    """The oracle's set-up and refusals, shared by its two count types.

    Returns (Xi, ideals, sizes): Xi = floor(X), the (norm, mask) pairs
    of norm <= Xi, and the number of ideals per distinct surviving set
    T, in order of first appearance.

    Refuses with BudgetExceededError, in this order and before any
    array is allocated: Xi > ENUMERATION_GUARD (in `enumerate_ideals`);
    I_K(Xi)^m >= DIRECT_COUNT_BUDGET, past which the per-x int64 counts
    could wrap; and G^2 (Xi + 1) > STEP_CELL_BUDGET for G distinct
    sets.  Every prefix state is itself one of the G sets (the ideal
    prod P^r over a state's primes divides each member of the prefix,
    so its norm is <= Xi), so a per-x step takes at most G^2 products
    of Xi + 1 cells; with the enumeration guard that also caps the G
    per-x count arrays at 10^7 cells.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    Xi = _norm_bound(X)
    ideals = enumerate_ideals(field, X, r)
    # every prefix count and product counts m-tuples or fewer-member
    # prefixes of ideals of norm <= Xi, so all are <= I_K(Xi)^m
    if len(ideals) ** m >= DIRECT_COUNT_BUDGET:
        raise BudgetExceededError(
            f"I_K({Xi})^{m} = {len(ideals) ** m} is not below the direct-count budget 2^63, "
            "past which the int64 counts could wrap"
        )
    sizes: dict[int, int] = {}
    for _, mask in ideals:
        sizes[mask] = sizes.get(mask, 0) + 1
    G = len(sizes)
    if G * G * (Xi + 1) > STEP_CELL_BUDGET:
        raise BudgetExceededError(
            f"{G} surviving sets at x = {Xi}: G^2 (x + 1) = {G * G * (Xi + 1)} "
            f"exceeds the step-cell budget {STEP_CELL_BUDGET}"
        )
    return Xi, ideals, sizes


def _cumulative_groups(
    ideals: list[tuple[int, int]], Xi: int, sizes: dict[int, int]
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Cumulative norm counts of (norm, mask) pairs per surviving set.

    Returns (groups, total) where groups maps each set T, a key of
    `sizes`, to the int64 array c_T with c_T[x] = the number of ideals
    of mask T and norm <= x, and total is the same count over all
    ideals.
    """
    index = {mask: g for g, mask in enumerate(sizes)}
    G = len(index)
    cells = np.array([index[mask] * (Xi + 1) + norm for norm, mask in ideals], dtype=np.int64)
    counts = np.bincount(cells, minlength=G * (Xi + 1)).reshape(G, Xi + 1)
    np.cumsum(counts, axis=1, out=counts)
    return dict(zip(index, counts)), counts.sum(axis=0)


def _count_tuples(groups: dict[int, Count], total: Count, m: int) -> Count:
    """Tuples whose surviving sets have an empty AND, from group counts.

    groups maps each surviving set T to its count c_T and total is the
    sum of every c_T.  A count is a Python int (ideals of norm <= x at
    one x) or an int64 array over x (cumulative counts, every x at
    once); the DP only adds, subtracts and multiplies them, so one body
    serves both.  Step k extends each prefix set S, the empty set
    included, by the groups T that share a prime with S, bucketed by
    S & T; the empty bucket is total less the other buckets, so the
    groups disjoint from S are never visited.
    """
    holders: dict[int, list[int]] = {}  # prime bit -> the sets that contain it
    for supp in groups:
        rest = supp
        while rest:
            bit = rest & -rest
            holders.setdefault(bit, []).append(supp)
            rest ^= bit
    # level[S]: prefixes with surviving set S, starting from the
    # one-member prefixes; S = 0 is the empty set
    level = groups
    for k in range(2, m + 1):
        nxt: dict[int, Count] = {}
        for state, counts in level.items():
            met: set[int] = set()
            rest = state
            while rest:
                bit = rest & -rest
                met.update(holders[bit])
                rest ^= bit
            if k == m:
                # only the empty bucket: a prime that survives all m
                # steps makes the tuple not r-prime
                nxt[0] = nxt.get(0, 0) + counts * (total - sum([groups[s] for s in met]))
                continue
            buckets: dict[int, Count] = {}  # S & T -> summed counts
            for supp in met:
                narrowed = state & supp
                buckets[narrowed] = buckets.get(narrowed, 0) + groups[supp]
            buckets[0] = total - sum(buckets.values())
            for narrowed, cum in buckets.items():
                nxt[narrowed] = nxt.get(narrowed, 0) + counts * cum
        level = nxt
    return level.get(0, 0 * total)


def count_rprime_direct_upto(
    field: FieldSpec,
    X: float,
    m: int,
    r: int,
) -> np.ndarray:
    """Counts of relatively r-prime m-tuples for every integer bound.

    Returns an int64 array V with V[x] = number of m-tuples of ideals,
    all norms <= x, whose surviving-set masks have an empty AND, for
    0 <= x <= floor(X).  One enumeration pass serves every x: the DP
    runs on cumulative counts per surviving set, one int64 array of
    floor(X) + 1 cells each, and each product is pointwise.  No Mobius
    identity is used.
    """
    Xi, ideals, sizes = _checked_group_sizes(field, X, m, r)
    groups, total = _cumulative_groups(ideals, Xi, sizes)
    V = _count_tuples(groups, total, m)
    # for m = 1, V is a row of the G x (X + 1) count matrix: a copy of the
    # row lets the matrix go
    return V if V.base is None else V.copy()


def count_rprime_direct(
    field: FieldSpec,
    x: float,
    m: int,
    r: int,
) -> int:
    """Exact number of relatively r-prime m-tuples with norms <= x,
    straight from the definition (no Mobius identity involved).

    Counts at floor(x) alone: each surviving set contributes its number
    of ideals as a Python int, so no per-x array is formed (that is
    `count_rprime_direct_upto`, whose V[floor(x)] this equals).  It
    keeps the dense form's three refusals, in the same order and with
    the same messages, for parity with it, not because its Python ints
    could wrap.  Q at x = 1389 with (m, r) = (2, 1) takes about 0.03 s
    here against 0.22 s for the dense form (shared 2-core VM).
    """
    _, ideals, sizes = _checked_group_sizes(field, x, m, r)
    return _count_tuples(sizes, len(ideals), m)
