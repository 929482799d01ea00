"""Number fields described by their defining data.

A field is given by a monic integer polynomial plus, optionally, one
block of exact invariants (signature, class number, regulator, roots
of unity, field discriminant) copied from standard tables.  Everything
downstream needs only two things: the density constant c, assembled
from the invariants and from nothing else, and, per rational prime,
the residue degrees of the prime ideals above it, tabulated by
`residue_degrees` for the sieve, zeta and the oracle.  `FieldSpec`
computes poly_disc = disc(poly) exactly and checks d_K against it, so
d_K cannot describe another field than `poly`.

No ideal arithmetic happens here: splitting types come from per-prime
overrides or from the factor degrees of the defining polynomial mod p
(Dedekind-Kummer), which `polygf.factor_degrees` reads straight off the
integer coefficients without finding any factor, trusted at a p with
p^2 | poly_disc only where Dedekind's criterion (`polygf.is_p_maximal`)
holds.  The invariants never touch splitting.  `splitting_type`
answers for one prime.  `FieldSpec` computes the polynomial route's
rows at the primes below 256 at most once, and `residue_degrees` fills
many primes by one of three routes, each of which must give back those
rows:
- the class table: `FieldSpec` hands the rows to `characters.derive`;
  with invariants, the conductors of the characters it finds must
  multiply to |d_K|.  A field with characters reads every prime off
  `characters.class_table`, with no per-prime call;
- the form classes: a cubic whose poly_disc d is a negative
  fundamental discriminant splits every prime, ramified ones included,
  by (d/p) and by the reduced forms of d that represent p (`forms`),
  with no per-prime call;
- the kernel: every other field takes the polynomial route, the only
  one that goes per prime.  It sends through `splitting_type` only the
  primes p <= the degree and the p with p^2 | poly_disc, where an
  override or an index-divisor refusal can apply, and fills every
  other prime in one batched int64 pass that peels the factor-degree
  counts off the traces of the powers of Berlekamp's Frobenius matrix.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .characters import _CHECK_PRIMES, Character, _is_prime, _prime_factors, class_table, derive
from .errors import FieldSpecError, IndexDivisorError
from .forms import is_fundamental, kronecker, reduced_forms, represented
from .polygf import factor_degrees, is_p_maximal


@dataclass(frozen=True)
class SplittingType:
    """Multiset of (ramification index e, residue degree f) above a prime.

    Parts are kept sorted by (f, e) so equality is structural.
    """

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise FieldSpecError("splitting type needs at least one part")
        for e, f in self.parts:
            if e < 1 or f < 1:
                raise FieldSpecError(f"splitting part ({e},{f}) must be positive")
        canon = tuple(sorted(self.parts, key=lambda part: (part[1], part[0])))
        if canon != self.parts:
            object.__setattr__(self, "parts", canon)

    @property
    def degree_sum(self) -> int:
        """Sum of e_i * f_i; must equal the owning field's degree."""
        return sum(e * f for e, f in self.parts)


@dataclass(frozen=True)
class FieldInvariants:
    """Exact invariants, one all-or-nothing block.

    r1/r2 are the real/complex place counts, h the class number, R the
    regulator, w the number of roots of unity, d_K the field
    discriminant.  They determine the density constant c and nothing
    else; splitting types never read them.
    """

    r1: int
    r2: int
    h: int
    R: float
    w: int
    d_K: int


def poly_discriminant(poly: tuple[int, ...] | list[int]) -> int:
    """Discriminant (-1)^(n(n-1)/2) Res(f, f') of the monic f = poly
    (constant term first), exact in Python ints: Bareiss fraction-free
    elimination of the Sylvester matrix of f and f'."""
    n = len(poly) - 1
    f = list(poly[::-1])  # leading coefficient first
    df = [c * (n - i) for i, c in enumerate(f[:-1])]
    size = 2 * n - 1
    M = [[0] * i + f + [0] * (n - 2 - i) for i in range(n - 1)]
    M += [[0] * i + df + [0] * (n - 1 - i) for i in range(n)]
    sign, prev = (-1) ** (n * (n - 1) // 2), 1
    for k in range(size - 1):
        if M[k][k] == 0:  # swap in a row with a nonzero pivot
            below = [i for i in range(k + 1, size) if M[i][k]]
            if not below:
                return 0
            M[k], M[below[0]] = M[below[0]], M[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                # exact: each entry is a minor of the Sylvester matrix
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


@dataclass(frozen=True)
class FieldSpec:
    """A number field given by a monic irreducible integer polynomial.

    `poly` lists coefficients constant term first with leading
    coefficient 1.  At degree 2 and 3 a reducible `poly`, which has an
    integer root, is refused; at degree >= 4 irreducibility is not
    checked, and the caller must make sure of it, as a reducible `poly`
    describes no field.  poly_disc is
    `poly_discriminant(poly)`, computed here, and must be nonzero, i.e.
    poly squarefree.  Invariants must satisfy poly_disc = k^2 * d_K for
    an integer k >= 1, the index of the polynomial order, and
    Dedekind's criterion must show every prime p | k to divide that
    index.  Overrides are allowed only at primes where Dedekind's
    criterion fails (so p^2 | poly_disc), the only primes where the
    factorization of poly cannot decide the splitting.  The polynomial
    route's rows at `_CHECK_PRIMES` are computed here at most once, and
    only where a derivation below can use them (none where an index
    divisor has no override); both derivations read the same rows.
    `characters` holds the primitive characters that
    `_abelian_characters` derives from them (the trivial one alone at
    degree 1), or None where it finds none; where they exist,
    `residue_degrees` splits every prime by them.  With invariants,
    their conductors must multiply to |d_K| (conductor-discriminant
    formula).  `forms` holds, for a cubic whose poly_disc is a negative
    fundamental discriminant d, the reduced forms of d that represent
    the primes split completely in it, as `_complex_cubic_forms`
    derives them, and None for every other field; where they exist,
    `residue_degrees` splits every prime by them and by (d/p), those
    dividing d included.  Instances are immutable and
    hashable, and every operation on them is a pure function, so they
    are safe to share across threads.
    """

    name: str
    poly: tuple[int, ...]
    poly_disc: int = dataclass_field(init=False)
    invariants: FieldInvariants | None = None
    splitting_overrides: tuple[tuple[int, SplittingType], ...] = ()
    characters: tuple[Character, ...] | None = dataclass_field(
        init=False, repr=False, compare=False
    )
    forms: tuple[tuple[int, int, int], ...] | None = dataclass_field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.poly) < 2:
            raise FieldSpecError("defining polynomial must have degree >= 1")
        if self.poly[-1] != 1:
            raise FieldSpecError(
                f"defining polynomial must be monic, leading coefficient {self.poly[-1]}"
            )
        object.__setattr__(self, "poly_disc", poly_discriminant(self.poly))
        if self.poly_disc == 0:
            raise FieldSpecError("defining polynomial is not squarefree: its discriminant is 0")
        if self.degree in (2, 3):
            root = _integer_root(self.poly)
            if root is not None:
                raise FieldSpecError(
                    f"defining polynomial is reducible: it has the integer root {root}"
                )
        inv = self.invariants
        if inv is not None:
            if min(inv.r1, inv.r2) < 0 or inv.r1 + 2 * inv.r2 != self.degree:
                raise FieldSpecError(
                    f"signature mismatch: r1 + 2*r2 = {inv.r1 + 2 * inv.r2} != degree {self.degree}"
                )
            if inv.w < 2:
                raise FieldSpecError("roots-of-unity count w must be >= 2")
            if inv.h < 1:
                raise FieldSpecError("class number h must be >= 1")
            if not 0 < inv.R < math.inf:  # also refuses NaN
                raise FieldSpecError("regulator R must be finite and positive")
            # poly_disc = k^2 d_K, k the index of Z[x]/(poly) in the ring
            # of integers, so each prime p | k must fail the criterion
            k = math.isqrt(max(self.poly_disc // inv.d_K, 0)) if inv.d_K else 0
            if k * k * inv.d_K != self.poly_disc or any(
                is_p_maximal(self.poly, p) for p in _prime_factors(k)
            ):
                raise FieldSpecError(
                    f"field discriminant d_K={inv.d_K} does not fit poly_disc={self.poly_disc}: "
                    "need poly_disc = k^2 d_K, k >= 1, each p | k failing Dedekind's criterion"
                )
        seen = set()
        for p, split in self.splitting_overrides:
            if p in seen:
                raise FieldSpecError(f"duplicate override for p={p}")
            seen.add(p)
            if not _is_prime(p):
                raise FieldSpecError(f"override key p={p!r} is not a prime")
            if is_p_maximal(self.poly, p):
                raise FieldSpecError(
                    f"override at p={p} not allowed: Dedekind's criterion holds there, "
                    "so poly mod p decides the splitting"
                )
            if split.degree_sum != self.degree:
                raise FieldSpecError(
                    f"override at p={p}: sum of e*f is {split.degree_sum}, expected {self.degree}"
                )
        # the one check pass, made at most once and only for a spec that
        # a derivation below can serve: the class table and the form
        # classes must each give back these rows of the polynomial route
        rows = functools.cache(lambda: _check_rows(self))
        characters = _abelian_characters(self, rows)
        if characters is not None and inv is not None:
            product = math.prod(chi.conductor for chi in characters)
            if product != abs(inv.d_K):
                raise FieldSpecError(
                    f"{self.name}: the conductors of its characters multiply to {product}, "
                    f"not |d_K| = {abs(inv.d_K)}"
                )
        object.__setattr__(self, "characters", characters)
        object.__setattr__(self, "forms", _complex_cubic_forms(self, rows))

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def fingerprint_data(self) -> dict:
        """Everything that determines splitting types and hence tables."""
        # d_K and a constant maximality flag stay, though neither
        # chooses a splitting type: dropping a key would change the
        # digest of every cache already written
        return {
            "poly": list(self.poly),
            "poly_disc": self.poly_disc,
            "poly_is_maximal": True,
            "d_K": self.invariants.d_K if self.invariants else None,
            "overrides": [
                [p, [list(part) for part in split.parts]]
                for p, split in self.splitting_overrides
            ],
        }


def splitting_type(field: FieldSpec, p: int) -> SplittingType:
    """Decomposition type of the prime p in the field.

    An explicit override wins; otherwise the factor degrees of the
    defining polynomial mod p (Dedekind-Kummer).  That route is refused
    when p^2 | poly_disc and Dedekind's criterion shows p to divide the
    index of the polynomial order, where the factorization misreports
    the splitting.
    """
    override = dict(field.splitting_overrides).get(p)
    if override is not None:
        return override
    if field.poly_disc % (p * p) == 0 and not is_p_maximal(field.poly, p):
        raise IndexDivisorError(
            f"{field.name}: cannot trust factorization mod p={p} "
            f"(p^2 | poly_disc={field.poly_disc}, Dedekind's criterion fails, no override)"
        )
    return SplittingType(tuple(factor_degrees(field.poly, p)))


# The batched pass takes the largest power of two <= _LANE_CELLS / n
# primes at a time (n the degree), so each int64 buffer of 2n rows of
# lanes is at most 128 KiB; the cubic's 192 KiB products at 4096 lanes
# made the fill's page faults depend on heap layout.  Wider batches
# would cut numpy calls per prime, but their buffers cost thousands of
# page faults per fill.
_LANE_CELLS = 8192


def residue_degrees(field: FieldSpec, primes: np.ndarray) -> np.ndarray:
    """Int8 table: entry [i, f - 1] counts the prime ideals of residue
    degree f above primes[i].

    Degree 1 is all ones.  Otherwise one of three routes fills the
    table, and only the last goes per prime:
    - the class table: a field with characters, abelian of conductor
      q, splits p by p mod q alone, so its row is that of p's class in
      `class_table`, at any prime.  `FieldSpec` compared those rows with
      `_poly_residue_degrees` at every prime below 256, which meet every
      class that holds a prime: all the units mod q, and each class of
      a p | q, which holds p alone;
    - the form classes: a cubic with `forms` takes
      `_form_residue_degrees` at every prime, ramified ones included,
      which `FieldSpec` compared with `_poly_residue_degrees` at the
      same primes;
    - the kernel: every other field takes `_poly_residue_degrees`.
    """
    primes = np.asarray(primes, dtype=np.int64)
    n = field.degree
    if n > 1 and field.characters is not None:
        table = class_table(field.characters, n)
        return table[primes % len(table)]
    if field.forms is not None:
        return _form_residue_degrees(field.poly_disc, field.forms, primes)
    return _poly_residue_degrees(field, primes)


# The form route takes this many primes at a time, so that its int64
# temporaries stay within 64 KiB each.
_FORM_CHUNK = 1 << 13

# a cubic's rows, indexed by (d/p) + 1 + [a form of H represents p]:
# (1, 2), ramified (1, 1), inert (3), split (1, 1, 1)
_CUBIC_ROWS = np.array([[1, 1, 0], [2, 0, 0], [0, 0, 1], [3, 0, 0]], dtype=np.int8)


def _form_residue_degrees(
    d: int, split: tuple[tuple[int, int, int], ...], primes: np.ndarray
) -> np.ndarray:
    """`residue_degrees` of a cubic K whose poly_disc d is a negative
    fundamental discriminant, from `split`, the reduced forms of d in the
    index-3 subgroup H of Cl(d) that K corresponds to (Hasse, Math. Z. 31,
    1930), at every prime.

    d_K = d, so K's Galois closure is unramified over Q(sqrt d): no
    prime ramifies totally, and each p | d, 2 included, is P^2 Q, that
    is (1, 1).  Every other p, 2 and 3 included, is unramified in the
    closure.  A p with (d/p) = -1 splits as (1, 2).  A p with
    (d/p) = 1 splits in Q(sqrt d) into ideals of the classes of the
    forms that represent p, and these lie in H, where K's closure splits
    them, exactly when p splits completely in K; otherwise p is inert.
    One `represented` call per `_FORM_CHUNK` primes marks the p of the
    first kind, and the chunk's rows are filled in place.
    """
    degrees = np.empty((len(primes), 3), dtype=np.int8)
    for start in range(0, len(primes), _FORM_CHUNK):
        p = primes[start : start + _FORM_CHUNK]
        index = kronecker(d, p) + 1
        residue = index == 2
        index[residue] += represented(split, p[residue])
        degrees[start : start + len(p)] = _CUBIC_ROWS[index]
    return degrees


def _poly_residue_degrees(field: FieldSpec, primes: np.ndarray) -> np.ndarray:
    """`residue_degrees` from the polynomial: all ones at degree 1.

    Otherwise a prime p <= degree, where the traces cannot count, or with
    p^2 | poly_disc, where an override or an index-divisor refusal can
    apply, takes `splitting_type`.  Every other prime is not an index
    divisor, so the degrees of the distinct factors of poly mod p are
    its residue degrees (Dedekind-Kummer), and
    `_frobenius_degree_counts` reads them in one int64 pass over all
    such primes, a batch of lanes at a time.  A row of a product there
    sums at most degree products below p^2, and a row is reduced mod p
    before any fold that its bound says could pass 2^63 - 1, so the pass
    is exact while 2 * degree * p^2 < 2^63.  That holds for every
    p <= 1e8 at any degree below 400; a larger such prime raises
    ValueError.
    """
    primes = np.asarray(primes, dtype=np.int64)
    n = field.degree
    if n == 1:
        return np.ones((len(primes), 1), dtype=np.int8)
    degrees = np.zeros((len(primes), n), dtype=np.int8)
    per_prime = primes <= n
    # p^2 | poly_disc needs p^2 <= |poly_disc|; the bound is clamped to
    # int64, and p^2 | poly_disc is tested in Python ints (p^2 wraps
    # int64 past p = 3.03e9), only at the few such p | poly_disc
    small = np.flatnonzero(primes <= min(math.isqrt(abs(field.poly_disc)), 2**63 - 1))
    for i in small[_mod_primes(field.poly_disc, primes[small]) == 0]:
        per_prime[i] |= field.poly_disc % int(primes[i]) ** 2 == 0
    for i in np.flatnonzero(per_prime):
        for _, f in splitting_type(field, int(primes[i])).parts:
            degrees[i, f - 1] += 1
    top = int(primes.max(initial=0, where=~per_prime))
    if 2 * n * top**2 >= 2**63:
        raise ValueError(
            f"{field.name}: prime {top} is past the int64-exact range of the "
            f"batched residue-degree fill (2 * degree * p^2 < 2^63)"
        )
    chunk = 1 << ((_LANE_CELLS // n).bit_length() - 1)
    for start in range(0, len(primes), chunk):
        rows = start + np.flatnonzero(~per_prime[start : start + chunk])
        if len(rows):
            degrees[rows] = _frobenius_degree_counts(field.poly, primes[rows])
    return degrees


def _mod_primes(c: int, primes: np.ndarray) -> np.ndarray:
    # c mod each prime, exact for an integer c of any size
    if -(2**63) < c < 2**63:
        return np.int64(c) % primes
    return (c % primes.astype(object)).astype(np.int64)


def _frobenius_degree_counts(poly: tuple[int, ...], p: np.ndarray) -> np.ndarray:
    """Row i counts the distinct irreducible factors of each degree of
    poly mod p[i]; every p[i] must exceed the degree n.

    Q is the Frobenius a -> a^p on F_p[x]/poly, column j holding
    x^(jp) mod poly (Berlekamp's matrix; Cohen, A Course in
    Computational Algebraic Number Theory, 3.4).  F_p[x]/poly is the
    sum of the F_p[x]/g^e over the factors g^e of poly.  Frobenius
    sends the nilpotent part (g)/(g^e) to 0, since e <= n < p, and acts
    on the residue field F_p[x]/g, of degree d = deg g, as a generator
    of its Galois group, so tr(Q^k) mod p is the sum of d over the
    distinct factors with d | k.  That sum is at most n < p, so the
    residue is the sum itself: tr(Q^k) = sum over d | k of d N_d, and
    N_k = (tr(Q^k) - sum over d | k, d < k of d N_d) / k is peeled off
    as Q^k is formed.  Lanes (one per prime) run along the last axis.

    x^p takes one squaring per bit of p, times x in the lanes whose p
    has that bit: a plain shift when every lane has it, a masked one
    when only some do.  A squaring forms the n(n+1)/2 distinct products
    in buffers allocated once per call and works in them in place.  Its
    rows of degree >= n fold through x^n = -sum c_i x^i by the integers
    -c_i themselves where |c_i| is below every lane's p, else by their
    residues.  Every entry entering a product is below p, so a product
    row sums at most n products below p^2; `_fold_schedule` tracks each
    row's bound from there and reduces a row mod p before a fold only
    where the fold could carry a row past 2^63 - 1.  The n rows left are
    reduced once.  A reduced row times a coefficient below p stays below
    p^2, so under 2n p^2 < 2^63 a schedule exists at every prime: near
    the edge of that guard it reduces before some folds (before all of
    them for x^3 + 1e7 x + 1e7), below 1e8 with small coefficients
    before none.
    """
    n = len(poly) - 1
    lanes = len(p)
    top = int(p.max())
    # x^n = sum_i fold[i] x^i mod (poly, p): -c_i itself where |c_i| is
    # below every lane's p, else its residue in each lane
    low = int(p.min())
    fold = [-c if abs(c) < low else -_mod_primes(c, p) % p for c in poly[:-1]]
    size = [abs(f) if isinstance(f, int) else top - 1 for f in fold]
    plan = _fold_schedule(size, top)
    # (i, multiplier, op): a unit coefficient folds by one add or subtract
    steps = []
    for i, f in enumerate(fold):
        if isinstance(f, int) and abs(f) == 1:
            steps.append((i, None, np.add if f == 1 else np.subtract))
        elif size[i]:
            steps.append((i, f, np.add))

    w = np.empty((2 * n, lanes), np.int64)  # w[k] holds degree k
    scratch = np.empty((2 * n, lanes), np.int64)
    twice = np.empty((n, lanes), np.int64)
    lane_bit = np.empty(lanes, np.int64)

    def reduce_into(out):
        # w mod (poly, p) into out
        for k, cut, early in plan:
            if cut:
                np.remainder(w[k], p, out=w[k])
            for t in early:
                np.remainder(w[t], p, out=w[t])
            for i, f, op in steps:
                row = w[k - n + i]
                if f is None:
                    op(row, w[k], out=row)
                else:
                    np.multiply(w[k], f, out=scratch[0])
                    op(row, scratch[0], out=row)
        np.remainder(w[:n], p, out=out)

    # x^p mod poly, left to right over the bits of each lane's p
    xp = np.zeros((n, lanes), np.int64)
    xp[0] = 1
    every = int(np.bitwise_and.reduce(p))
    some = int(np.bitwise_or.reduce(p))
    for bit in range(top.bit_length() - 1, -1, -1):
        # xp^2 x^s into w (s = 1 when every lane takes x, a plain shift):
        # the squares on their own rows, each cross term once, against 2 xp
        s = every >> bit & 1
        w[1 - s :: 2] = 0
        np.multiply(xp, xp, out=w[s::2])
        np.add(xp, xp, out=twice)
        for i in range(n - 1):
            rows = w[s + 2 * i + 1 : s + i + n]
            np.multiply(xp[i], twice[i + 1 :], out=scratch[: n - 1 - i])
            np.add(rows, scratch[: n - 1 - i], out=rows)
        if not s and some >> bit & 1:
            # row k - 1 moves to row k in the lanes with this bit, where
            # lane_bit is all ones (0 elsewhere)
            np.left_shift(p, 63 - bit, out=lane_bit)
            np.right_shift(lane_bit, 63, out=lane_bit)
            np.copyto(scratch[0], w[0])
            np.bitwise_xor(w[:-1], w[1:], out=scratch[1:])
            np.bitwise_and(scratch, lane_bit, out=scratch)
            np.bitwise_xor(w, scratch, out=w)
        reduce_into(xp)

    # column j of Q is x^(jp) = x^((j-1)p) x^p, by all n^2 products;
    # column 0 is 1
    columns = [xp]
    for _ in range(2, n):
        a = columns[-1]
        np.multiply(a[0], xp, out=w[:n])
        w[n:] = 0
        for i in range(1, n):
            np.multiply(a[i], xp, out=scratch[:n])
            np.add(w[i : i + n], scratch[:n], out=w[i : i + n])
        columns.append(np.empty((n, lanes), np.int64))
        reduce_into(columns[-1])
    # the traces over blocks of lanes, so that Q and its powers each stay
    # within 2 * _LANE_CELLS entries
    counts = np.empty((lanes, n), np.int64)
    width = max(1, 2 * _LANE_CELLS // n**2)
    for lo in range(0, lanes, width):
        part = slice(lo, lo + width)
        Q = np.zeros((n, n, len(p[part])), np.int64)
        Q[0, 0] = 1
        for j, column in enumerate(columns, 1):
            Q[:, j] = column[:, part]
        counts[part] = _peel_traces(Q, p[part])
    return counts


def _fold_schedule(size: list[int], top: int) -> list[tuple[int, bool, list[int]]]:
    """When to reduce mod p while a product of two residues folds, for
    primes p <= top, with |coefficient i of x^n| <= size[i].

    Row k of the product, times x or not, sums at most
    max(m_k, m_(k-1)) products below top^2, m_k the number of pairs
    i + j = k with i, j < n.  For each row k >= n in folding order,
    (k, cut, early): cut reduces row k before it folds, only if folding
    it unreduced could carry a row past 2^63 - 1; early lists the rows
    it folds into that must be reduced first, since even the reduced
    fold could.  A bound then runs below 2^63 - 1 at every step,
    because a reduced row times a size below top stays below top^2.
    """
    n = len(size)
    pairs = [max(0, min(k + 1, 2 * n - 1 - k)) for k in range(-1, 2 * n)]
    bound = [max(pairs[k], pairs[k + 1]) * (top - 1) ** 2 for k in range(2 * n)]
    plan = []
    for k in range(2 * n - 1, n - 1, -1):
        into = [(k - n + i, a) for i, a in enumerate(size) if a]
        cut = any(bound[t] + a * bound[k] > 2**63 - 1 for t, a in into)
        if cut:
            bound[k] = top - 1
        early = [t for t, a in into if bound[t] + a * bound[k] > 2**63 - 1]
        for t, a in into:
            bound[t] = (top - 1 if t in early else bound[t]) + a * bound[k]
        plan.append((k, cut, early))
    return plan


def _peel_traces(Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    # column k - 1 is N_k, from tr(Q^k) for k = 1..n; an entry of a
    # product of two matrices sums n products below p^2
    n = len(Q)
    counts = np.empty((len(p), n), np.int64)
    Qk = Q
    for k in range(1, n + 1):
        if k == n > 1:
            # only the diagonal of Q^(n-1) Q
            trace = (np.einsum("iml,mil->il", Qk, Q) % p).sum(axis=0)
        else:
            if k > 1:
                Qk = np.einsum("iml,mjl->ijl", Qk, Q)
                Qk %= p
            trace = np.trace(Qk)
        k_N_k = trace % p - sum(d * counts[:, d - 1] for d in range(1, k) if k % d == 0)
        counts[:, k - 1] = k_N_k // k
    return counts


def _check_rows(field: FieldSpec) -> np.ndarray | None:
    # the polynomial route's rows at `_CHECK_PRIMES`, or None where an
    # index divisor has no override
    try:
        return _poly_residue_degrees(field, np.array(_CHECK_PRIMES, dtype=np.int64))
    except IndexDivisorError:
        return None


_Rows = Callable[[], "np.ndarray | None"]


def _abelian_characters(field: FieldSpec, rows: _Rows) -> tuple[Character, ...] | None:
    """`derive` on `rows()`, the polynomial route's residue degrees at
    `_CHECK_PRIMES`, or None where there are none (an index divisor with
    no override), where |poly_disc| has a prime factor past them, and
    for a cubic of negative discriminant, which is not Galois."""
    if field.degree == 3 and field.poly_disc < 0:
        return None
    rest = abs(field.poly_disc)
    for p in _CHECK_PRIMES:
        while rest % p == 0:
            rest //= p
    degrees = rows() if rest == 1 else None
    return None if degrees is None else derive(degrees)


# Cubics with |poly_disc| past this bound keep the kernel: `reduced_forms`
# takes about |d| / 6 steps, and the labels one search per class.
_FORM_DISC_BOUND = 10**5


def _complex_cubic_forms(field: FieldSpec, rows: _Rows) -> tuple[tuple[int, int, int], ...] | None:
    """The reduced forms of d = poly_disc that represent the primes split
    completely in a cubic field, where d < 0 is a fundamental
    discriminant of |d| <= `_FORM_DISC_BOUND`; None for every other field.

    Such a poly generates the ring of integers (poly_disc = k^2 d_K with
    d fundamental forces k = 1).  Each reduced form is labelled by the
    polynomial route at the least prime p not dividing d that it
    represents: its row of `rows()`, the route's rows at
    `_CHECK_PRIMES`, or a fresh one past them.  The forms labelled
    (1, 1, 1) are H.  They are accepted only if every label is
    (1, 1, 1) or (3), (a, b, c) and (a, -b, c) agree, the principal form
    is split, 3 |H| = h(d), and `_form_residue_degrees` gives back
    `rows()`; else None, and the field keeps the kernel.
    """
    d = field.poly_disc
    if field.degree != 3 or not -_FORM_DISC_BOUND <= d < 0 or not is_fundamental(d):
        return None
    reduced = reduced_forms(d)
    least = [_least_prime(form, d) for form in reduced]
    if None in least:
        return None
    by_prime = dict(zip(_CHECK_PRIMES, map(tuple, rows().tolist())))
    past = sorted(set(least) - set(by_prime))
    if past:
        by_prime.update(zip(past, map(tuple, _poly_residue_degrees(field, past).tolist())))
    label = {form: by_prime[p] for form, p in zip(reduced, least)}
    split = tuple(form for form in reduced if label[form] == (3, 0, 0))
    if (
        any(row not in ((3, 0, 0), (0, 0, 1)) for row in label.values())
        or any(label.get((a, -b, c), row) != row for (a, b, c), row in label.items())
        or reduced[0] not in split
        or 3 * len(split) != len(reduced)
    ):
        return None
    check = _form_residue_degrees(d, split, np.array(_CHECK_PRIMES, dtype=np.int64))
    return split if (check == rows()).all() else None


def _least_prime(form: tuple[int, int, int], d: int) -> int | None:
    # the least prime not dividing d that form represents, searched to 2^20
    bounds = (2, 2**8, 2**12, 2**16, 2**20)
    for lo, hi in zip(bounds, bounds[1:]):
        values = np.arange(lo, hi)
        for v in values[represented([form], values)].tolist():
            if d % v and _is_prime(v):
                return v
    return None


def _integer_root(poly: tuple[int, ...]) -> int | None:
    """An integer root of the monic poly of degree 2 or 3, or None.

    Every root has |r| < 1 + max |c_i| (Cauchy).  poly is monotone
    between its real critical points, each of which lies within 1 of a
    cut below; poly is evaluated at the cuts, and bisected over the
    integers strictly between two consecutive cuts, where it is
    monotone.
    """

    def value(x: int) -> int:
        return sum(c * x**i for i, c in enumerate(poly))

    bound = 1 + max(abs(c) for c in poly[:-1])
    if len(poly) == 3:
        near = [-poly[1] // 2]
    else:
        # poly' = 3x^2 + 2 c_2 x + c_1 vanishes at (-c_2 +- sqrt(c_2^2 - 3 c_1)) / 3
        disc = poly[2] ** 2 - 3 * poly[1]
        near = [(-poly[2] + s * math.isqrt(disc)) // 3 for s in (-1, 1)] if disc >= 0 else []
    cuts = {min(max(k + j, -bound), bound) for k in near for j in (-1, 0, 1, 2)}
    cuts = sorted(cuts | {-bound, bound})
    for k in cuts:
        if value(k) == 0:
            return k
    for lo, hi in zip(cuts, cuts[1:]):
        lo, hi = lo + 1, hi - 1
        rising = value(hi) > value(lo)
        while lo <= hi:
            mid = (lo + hi) // 2
            v = value(mid)
            if v == 0:
                return mid
            if (v < 0) == rising:
                lo = mid + 1
            else:
                hi = mid - 1
    return None


def ideal_density_constant(field: FieldSpec) -> float:
    """Constant c with ideal count I_K(x) ~ c*x, assembled from the
    invariants as 2^r1 (2*pi)^r2 h R / (w sqrt(|d_K|))."""
    inv = field.invariants
    if inv is None:
        raise FieldSpecError(f"{field.name}: density constant needs invariants")
    return (
        (2.0**inv.r1)
        * (2.0 * math.pi) ** inv.r2
        * inv.h
        * inv.R
        / (inv.w * math.sqrt(abs(inv.d_K)))
    )


_INVARIANT_KEYS = {"r1", "r2", "h", "R", "w", "d_K"}
_SPEC_KEYS = {"name", "poly", "poly_disc", "invariants", "overrides"}
_OVERRIDE_KEYS = {"p", "parts"}


def _refuse_unknown_keys(what: str, doc: dict, allowed: set[str]) -> None:
    # a misspelt key would otherwise vanish and leave its default in force
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise FieldSpecError(f"{what} takes only the keys {sorted(allowed)}: unknown {unknown}")


def _is_int(v: object) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def parse_field_spec(text: str) -> FieldSpec:
    """Parse a JSON field-spec document and validate every invariant.

    Recognized keys: name (string), poly (integer array, constant term
    first), poly_disc (optional integer; a value that is not disc(poly)
    is refused), invariants (object with exactly the keys r1, r2, h, R, w, d_K),
    overrides (array of {"p": prime, "parts": [[e, f], ...]}).  Any
    other key, at the top level or in an override, is refused.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FieldSpecError(f"malformed field-spec document: {exc}") from exc
    if not isinstance(doc, dict):
        raise FieldSpecError("field-spec document must be a JSON object")
    _refuse_unknown_keys("a field-spec document", doc, _SPEC_KEYS)
    try:
        name = doc["name"]
        poly = doc["poly"]
    except KeyError as exc:
        raise FieldSpecError(f"missing required key {exc.args[0]!r}") from exc
    if not isinstance(name, str):
        raise FieldSpecError("name must be a string")
    if not isinstance(poly, list) or not all(_is_int(c) for c in poly):
        raise FieldSpecError("poly must be an array of integers")
    if not _is_int(doc.get("poly_disc", 0)):
        raise FieldSpecError("poly_disc must be an integer")

    invariants = None
    if "invariants" in doc:
        raw = doc["invariants"]
        if not isinstance(raw, dict):
            raise FieldSpecError("invariants must be an object")
        if set(raw) != _INVARIANT_KEYS:
            missing = sorted(_INVARIANT_KEYS - set(raw))
            unknown = sorted(set(raw) - _INVARIANT_KEYS)
            raise FieldSpecError(
                f"invariants need exactly the keys {sorted(_INVARIANT_KEYS)}: "
                f"missing {missing}, unknown {unknown}"
            )
        for key in ("r1", "r2", "h", "w", "d_K"):
            if not _is_int(raw[key]):
                raise FieldSpecError(f"invariant {key} must be an integer")
        if not isinstance(raw["R"], (int, float)) or isinstance(raw["R"], bool):
            raise FieldSpecError("invariant R must be a number")
        try:
            invariants = FieldInvariants(**{**raw, "R": float(raw["R"])})
        except OverflowError:  # an integer R past the float range
            raise FieldSpecError("regulator R must be finite and positive") from None

    overrides: list[tuple[int, SplittingType]] = []
    entries = doc.get("overrides", [])
    if not isinstance(entries, list):
        raise FieldSpecError("overrides must be an array")
    for entry in entries:
        if not isinstance(entry, dict) or "p" not in entry or "parts" not in entry:
            raise FieldSpecError("each override needs keys 'p' and 'parts'")
        _refuse_unknown_keys("an override", entry, _OVERRIDE_KEYS)
        p = entry["p"]
        if not _is_int(p):
            raise FieldSpecError(f"override key p={p!r} is not a prime")
        parts = entry["parts"]
        if not isinstance(parts, list) or not all(
            isinstance(part, list) and len(part) == 2 and all(map(_is_int, part)) for part in parts
        ):
            raise FieldSpecError(
                f"override at p={p}: parts must be an array of [e, f] integer pairs"
            )
        overrides.append((p, SplittingType(tuple((e, f) for e, f in parts))))

    spec = FieldSpec(
        name=name,
        poly=tuple(poly),
        invariants=invariants,
        splitting_overrides=tuple(overrides),
    )
    if doc.get("poly_disc", spec.poly_disc) != spec.poly_disc:
        # a wrong poly_disc would describe another field than poly
        raise FieldSpecError(f"poly_disc={doc['poly_disc']} is not disc(poly)={spec.poly_disc}")
    return spec


def load_field_file(path: str) -> FieldSpec:
    """Read and parse a field-spec document from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_field_spec(handle.read())
