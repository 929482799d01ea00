"""Brute-force oracle over ideals as formal products of labeled primes.

The counting problems in this package depend only on norms and
factorization structure, so an ideal is a sorted tuple of
(prime label, exponent) pairs and never a lattice.  Distinct primes
above the same rational p are told apart by their index in order of
residue degree, as read from `fields.residue_degrees`; any consistent
labeling yields identical counts.

Directly counting relatively r-prime m-tuples iterates the m-fold
product in aggregated form: tuples are grouped by the set of prime
labels still "surviving" (exponent >= r in every member so far), and a
group whose surviving set goes empty is completed freely.  A tuple is
relatively r-prime exactly when its surviving set is empty, so summing
the free completions reproduces the naive count; tests pin this
against a literal itertools.product enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .fields import FieldSpec, residue_degrees
from .sieve import prime_flags

ENUMERATION_GUARD = 10**5  # largest X whose ideals we will materialize
DIRECT_COUNT_BUDGET = 10**9  # cap on I_K(x)^m for direct counting


@dataclass(frozen=True, order=True)
class PrimeLabel:
    """One prime ideal: rational prime, index among the primes above
    it (in order of residue degree), and residue degree."""

    p: int
    index: int
    f: int

    @property
    def norm(self) -> int:
        return self.p**self.f


@dataclass(frozen=True)
class FactoredIdeal:
    """Formal product of labeled primes; the empty product is the unit
    ideal of norm 1.  Factors are strictly sorted by (p, index)."""

    factors: tuple[tuple[PrimeLabel, int], ...]
    norm: int

    def __post_init__(self) -> None:
        expected = 1
        prev = None
        for label, exp in self.factors:
            if exp < 1:
                raise ValueError("factor exponents must be >= 1")
            key = (label.p, label.index)
            if prev is not None and key <= prev:
                raise ValueError("factors must be strictly sorted by (p, index)")
            prev = key
            expected *= label.p ** (label.f * exp)
        if expected != self.norm:
            raise ValueError(f"cached norm {self.norm} != product formula {expected}")

    @classmethod
    def from_factors(cls, factors: tuple[tuple[PrimeLabel, int], ...]) -> "FactoredIdeal":
        norm = 1
        for label, exp in factors:
            norm *= label.p ** (label.f * exp)
        return cls(factors=factors, norm=norm)

    def is_unit(self) -> bool:
        return not self.factors

    def exponent_of(self, label: PrimeLabel) -> int:
        for lab, exp in self.factors:
            if lab == label:
                return exp
        return 0


UNIT_IDEAL = FactoredIdeal(factors=(), norm=1)


def prime_labels(field: FieldSpec, X: int) -> list[PrimeLabel]:
    """All prime ideals of norm <= X, sorted by (p, index)."""
    labels: list[PrimeLabel] = []
    if X < 2:
        return labels
    primes = np.flatnonzero(prime_flags(X))
    for p, row in zip(primes.tolist(), residue_degrees(field, primes)):
        fs = np.repeat(np.arange(1, len(row) + 1), row).tolist()  # ascending residue degrees
        labels += [PrimeLabel(p, i, f) for i, f in enumerate(fs) if p**f <= X]
    return labels


def enumerate_ideals(
    field: FieldSpec,
    X: float,
    guard: int = ENUMERATION_GUARD,
) -> list[FactoredIdeal]:
    """All ideals of norm <= X, each once, sorted by (norm, factors).

    Recursive descent over prime labels ordered by norm, dividing the
    remaining norm budget at each step.
    """
    if X < 0:
        raise ValueError(f"X must be nonnegative, got {X}")
    Xi = int(X)
    if Xi > guard:
        raise BudgetExceededError(f"enumeration of norms <= {Xi} exceeds the guard {guard}")
    if Xi < 1:
        return []
    labels = sorted(prime_labels(field, Xi), key=lambda lab: (lab.norm, lab.p, lab.index))
    out: list[FactoredIdeal] = []
    stack: list[tuple[PrimeLabel, int]] = []

    def descend(start: int, budget: int) -> None:
        out.append(
            FactoredIdeal.from_factors(tuple(sorted(stack, key=lambda fe: (fe[0].p, fe[0].index))))
        )
        for j in range(start, len(labels)):
            q = labels[j].norm
            if q > budget:
                break  # labels sorted by norm: nothing further fits
            rem = budget // q
            exp = 1
            while True:
                stack.append((labels[j], exp))
                descend(j + 1, rem)
                stack.pop()
                if q <= rem:
                    rem //= q
                    exp += 1
                else:
                    break

    descend(0, Xi)
    out.sort(key=lambda ideal: (ideal.norm, tuple((l.p, l.index, e) for l, e in ideal.factors)))
    return out


def mobius_ideal(a: FactoredIdeal) -> int:
    """Ideal Mobius function: 1 on the unit, (-1)^s on s distinct
    primes, 0 when any prime divides to order >= 2."""
    for _, exp in a.factors:
        if exp >= 2:
            return 0
    return -1 if len(a.factors) % 2 else 1


def is_relatively_r_prime(ideals: list[FactoredIdeal], r: int) -> bool:
    """True when no prime label has exponent >= r in every member."""
    if not ideals:
        raise ValueError("tuple must be nonempty")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    first = ideals[0]
    for label, exp in first.factors:
        if exp < r:
            continue
        if all(other.exponent_of(label) >= r for other in ideals[1:]):
            return False
    return True


def _support_groups(
    ideals: list[FactoredIdeal], r: int, Xi: int
) -> tuple[dict[frozenset[int], np.ndarray], np.ndarray]:
    """Histogram ideals by their set of labels with exponent >= r.

    Returns (groups, total) where groups maps each distinct surviving
    set to an int64 histogram over norms and total is the histogram of
    all ideals.
    """
    label_ids: dict[PrimeLabel, int] = {}
    groups: dict[frozenset[int], np.ndarray] = {}
    total = np.zeros(Xi + 1, dtype=np.int64)
    for ideal in ideals:
        ids = []
        for label, exp in ideal.factors:
            if exp >= r:
                if label not in label_ids:
                    label_ids[label] = len(label_ids)
                ids.append(label_ids[label])
        key = frozenset(ids)
        if key not in groups:
            groups[key] = np.zeros(Xi + 1, dtype=np.int64)
        groups[key][ideal.norm] += 1
        total[ideal.norm] += 1
    return groups, total


def _max_convolve(C: np.ndarray, H: np.ndarray) -> np.ndarray:
    """D[t] = number of pairs (u, v) with C-weight at u, H-weight at v
    and max(u, v) = t."""
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
    guard: int = ENUMERATION_GUARD,
) -> np.ndarray:
    """Counts of relatively r-prime m-tuples for every integer bound.

    Returns an int64 array V with V[x] = number of m-tuples of ideals,
    all norms <= x, passing the r-prime predicate, for 0 <= x <=
    floor(X).  One enumeration pass serves every x.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    Xi = int(X)
    if Xi < 0:
        raise ValueError(f"X must be nonnegative, got {X}")
    ideals = enumerate_ideals(field, Xi, guard=guard)
    if len(ideals) ** m > DIRECT_COUNT_BUDGET:
        raise BudgetExceededError(
            f"I_K({Xi})^{m} = {len(ideals) ** m} exceeds the direct-count budget {DIRECT_COUNT_BUDGET}"
        )
    if Xi == 0:
        return np.zeros(1, dtype=np.int64)
    groups, total_hist = _support_groups(ideals, r, Xi)
    # events[k][v]: prefixes (a_1..a_k) whose surviving set first went
    # empty at step k, with max norm v; all completions are free.
    events = np.zeros((m + 1, Xi + 1), dtype=np.int64)
    level: dict[frozenset[int], np.ndarray] = {}
    for supp, hist in groups.items():
        if supp:
            level[supp] = hist.copy()
        else:
            events[1] += hist
    for k in range(2, m + 1):
        nxt: dict[frozenset[int], np.ndarray] = {}
        for state, counts in level.items():
            for supp, hist in groups.items():
                joined = _max_convolve(counts, hist)
                narrowed = state & supp
                if narrowed:
                    if narrowed in nxt:
                        nxt[narrowed] += joined
                    else:
                        nxt[narrowed] = joined
                else:
                    events[k] += joined
        level = nxt
    counts_by_x = np.cumsum(total_hist)
    V = np.zeros(Xi + 1, dtype=np.int64)
    for k in range(1, m + 1):
        V += np.cumsum(events[k]) * counts_by_x ** (m - k)
    return V


def count_rprime_direct(
    field: FieldSpec,
    x: float,
    m: int,
    r: int,
    guard: int = ENUMERATION_GUARD,
) -> int:
    """Exact number of relatively r-prime m-tuples with norms <= x,
    straight from the definition (no Mobius identity involved)."""
    V = count_rprime_direct_upto(field, x, m, r, guard=guard)
    return int(V[int(x)])
