import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rprime import (
    FieldSpecError,
    IndexDivisorError,
    build_tables,
    ideal_density_constant,
    load_field_file,
    parse_field_spec,
    splitting_type,
)
from rprime import characters as characters_module
from rprime import fields as fields_module
from rprime.characters import _is_prime
from rprime.fields import _fold_schedule, _frobenius_degree_counts
from rprime.fields import _poly_residue_degrees
from rprime.fields import poly_discriminant, residue_degrees
from rprime.fields import FieldInvariants, FieldSpec, SplittingType
from rprime.polygf import factor_degrees, factor_mod_p
from rprime.sieve import primes_between, table_fingerprint


def _primes_upto(n):
    return primes_between(2, n).tolist()


def test_parse_rational_field():
    field = parse_field_spec(
        json.dumps(
            {
                "name": "Q",
                "poly": [0, 1],
                "poly_disc": 1,
                "invariants": {"r1": 1, "r2": 0, "h": 1, "R": 1.0, "w": 2, "d_K": 1},
            }
        )
    )
    assert field.degree == 1
    assert field.invariants.h == 1


def test_parse_rejects_non_monic():
    with pytest.raises(FieldSpecError, match="monic"):
        parse_field_spec(json.dumps({"name": "bad", "poly": [1, 0, 2], "poly_disc": 1}))


def test_parse_gaussian_field():
    field = parse_field_spec(
        json.dumps(
            {
                "name": "Q(i)",
                "poly": [1, 0, 1],
                "poly_disc": -4,
                "invariants": {"r1": 0, "r2": 1, "h": 1, "R": 1.0, "w": 4, "d_K": -4},
            }
        )
    )
    assert field.degree == 2
    assert ideal_density_constant(field) == pytest.approx(math.pi / 4, rel=1e-12)
    # Z[i] passes Dedekind's criterion at 2, so 2 may be factored
    assert splitting_type(field, 2).parts == ((2, 1),)


def test_parse_rejects_signature_mismatch():
    for r1, r2 in ((1, 1), (4, -1)):
        with pytest.raises(FieldSpecError, match="signature"):
            parse_field_spec(
                json.dumps(
                    {
                        "name": "bad",
                        "poly": [1, 0, 1],
                        "poly_disc": -4,
                        "invariants": {"r1": r1, "r2": r2, "h": 1, "R": 1.0, "w": 2, "d_K": -4},
                    }
                )
            )


def test_parse_rejects_override_at_good_prime():
    # 3 does not divide disc(x^2 + 1) = -4, so poly mod 3 decides it
    overrides = [{"p": 3, "parts": [[1, 2]]}]
    bad = {"name": "bad", "poly": [1, 0, 1], "poly_disc": -4, "overrides": overrides}
    with pytest.raises(FieldSpecError, match="override at p=3"):
        parse_field_spec(json.dumps(bad))
    # 2^2 | disc(x^2 + 5) = -20, but Z[sqrt-5] passes Dedekind's criterion
    # at 2, so an override there would silently beat a correct factorization
    with pytest.raises(FieldSpecError, match="override at p=2 not allowed: Dedekind"):
        parse_field_spec(_qsqrtm5_doc(overrides=_override_at_2([[1, 2]])))


def test_parse_malformed_document():
    with pytest.raises(FieldSpecError, match="malformed"):
        parse_field_spec("{not json")


def _qsqrtm5_doc(**changes):
    doc = {
        "name": "Q(sqrt-5)",
        "poly": [5, 0, 1],
        "poly_disc": -20,
        "invariants": {"r1": 0, "r2": 1, "h": 2, "R": 1.0, "w": 2, "d_K": -20},
    }
    return _spec_doc(doc, changes)


def _x2p3_doc(**changes):
    # x^2 + 3 fails Dedekind's criterion at 2, where it carries an override:
    # 2 is inert in Q(sqrt-3)
    doc = {
        "name": "x^2 + 3",
        "poly": [3, 0, 1],
        "poly_disc": -12,
        "invariants": {"r1": 0, "r2": 1, "h": 1, "R": 1.0, "w": 6, "d_K": -3},
        "overrides": _override_at_2([[1, 2]]),
    }
    return _spec_doc(doc, changes)


def _spec_doc(doc, changes):
    # a change to an invariant's key (or to c) lands in the invariant block
    for key, value in changes.items():
        if key in doc["invariants"] or key == "c":
            doc["invariants"][key] = value
        else:
            doc[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "changes",
    [
        {"d_K": -4},  # ratio 5 is no square: c would be pi, not 1.405
        {"d_K": 20},  # ratio -1 is negative
        {"d_K": -3},  # d_K does not divide poly_disc
        {"d_K": 0},
        # k = 2, but x^2 + 5 passes Dedekind's criterion at 2
        {"d_K": -5},
        # Q(i) with k = 2, though Z[i] is 2-maximal: c would be pi/2, not pi/4
        {"poly": [1, 0, 1], "poly_disc": -4, "h": 1, "w": 4, "d_K": -1},
    ],
)
def test_parse_rejects_d_K_that_does_not_fit_poly_disc(changes):
    with pytest.raises(FieldSpecError, match="does not fit poly_disc"):
        parse_field_spec(_qsqrtm5_doc(**changes))


def test_parse_rejects_partial_invariant_block():
    doc = json.loads(_qsqrtm5_doc())
    del doc["invariants"]["R"]
    with pytest.raises(FieldSpecError, match=r"exactly the keys.*missing \['R'\]"):
        parse_field_spec(json.dumps(doc))


def test_parse_rejects_density_constant_key():
    with pytest.raises(FieldSpecError, match=r"unknown \['c'\]"):
        parse_field_spec(_qsqrtm5_doc(c=1.405))


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "1e400", "1" + "0" * 400], ids=["NaN", "Infinity", "1e400", "10**400"]
)
def test_parse_refuses_non_finite_regulator(value):
    # Python's json reads all four: 1e400 overflows to inf, and the
    # 401-digit integer has no float at all
    doc = _qsqrtm5_doc().replace('"R": 1.0', f'"R": {value}')
    with pytest.raises(FieldSpecError, match="regulator R must be finite and positive"):
        parse_field_spec(doc)


def _override_at_2(parts):
    return [{"p": 2, "parts": parts}]


@pytest.mark.parametrize(
    "doc, unknown",
    [
        # a misspelt key would otherwise vanish and leave its default in force
        (
            '{"name": "x", "poly": [1, 0, 1], "poly_disc": -4, "poly_is_maximl": true}',
            "poly_is_maximl",
        ),
        # Dedekind's criterion decides maximality from poly, so the old flag
        # is refused rather than trusted
        (_qsqrtm5_doc(poly_is_maximal=True), "poly_is_maximal"),
        (_qsqrtm5_doc(override=_override_at_2([[2, 1]])), "override"),
        (_qsqrtm5_doc(invariant={}), "invariant"),
        (_qsqrtm5_doc(overrides=[{"p": 2, "parts": [[2, 1]], "part": [[2, 1]]}]), "part"),
        # FieldSpec derives the conductor from poly
        (_qsqrtm5_doc(conductor=20), "conductor"),
    ],
    ids=["poly_is_maximl", "poly_is_maximal", "override", "invariant", "override-entry", "conductor"],
)
def test_parse_refuses_unknown_keys(doc, unknown):
    with pytest.raises(FieldSpecError, match=rf"unknown \['{unknown}'\]"):
        parse_field_spec(doc)


@pytest.mark.parametrize(
    "changes,message",
    [
        # JSON true/false are bools, which Python counts as ints
        ({"poly": [5, 0, True]}, "poly must be an array of integers"),
        ({"poly_disc": True}, "poly_disc must be an integer"),
        ({"r1": False}, "invariant r1 must be an integer"),
        ({"r2": True}, "invariant r2 must be an integer"),
        ({"h": True}, "invariant h must be an integer"),
        ({"w": True}, "invariant w must be an integer"),
        ({"d_K": True}, "invariant d_K must be an integer"),
        ({"R": True}, "invariant R must be a number"),
        # 2 may carry an override; its parts must be integers
        ({"overrides": _override_at_2([["a", 1]])}, r"\[e, f\] integer pairs"),
        ({"overrides": _override_at_2([[2.0, 1]])}, r"\[e, f\] integer pairs"),
        ({"overrides": _override_at_2([[True, 1], [True, 1]])}, r"\[e, f\] integer pairs"),
        ({"overrides": 5}, "overrides must be an array"),
        ({"overrides": _override_at_2([[2, 1]])[0]}, "overrides must be an array"),
        ({"name": 5}, "name must be a string"),
        ({"invariants": []}, "invariants must be an object"),
        ({"overrides": [{"p": True, "parts": [[1, 2]]}]}, "p=True is not a prime"),
    ],
    ids=["poly", "poly_disc", "r1", "r2", "h", "w", "d_K", "R"]
    + ["part-str", "part-float", "part-bool", "overrides-int", "overrides-object"]
    + ["name", "invariants", "p-bool"],
)
def test_parse_refuses_bools_and_non_integers(changes, message):
    parse_field_spec(_x2p3_doc())  # the valid form
    with pytest.raises(FieldSpecError, match=message):
        parse_field_spec(_x2p3_doc(**changes))


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[]", "must be a JSON object"),
        ('{"name": "x"}', "missing required key 'poly'"),
        (_x2p3_doc(poly=[1]), "degree >= 1"),
        (_x2p3_doc(w=1), "w must be >= 2"),
        (_x2p3_doc(h=0), "class number h must be >= 1"),
        (_x2p3_doc(overrides=[{"parts": [[1, 2]]}]), "needs keys 'p' and 'parts'"),
        (_x2p3_doc(overrides=[{"p": 4, "parts": [[1, 2]]}]), "p=4 is not a prime"),
        (_x2p3_doc(overrides=_override_at_2([[1, 2]]) * 2), "duplicate override for p=2"),
        (_x2p3_doc(overrides=_override_at_2([[1, 1]])), r"sum of e\*f is 1, expected 2"),
        (_x2p3_doc(overrides=_override_at_2([])), "at least one part"),
        (_x2p3_doc(overrides=_override_at_2([[0, 2]])), r"part \(0,2\) must be positive"),
    ],
    ids=[
        "not-object", "no-poly", "degree-0", "w=1", "h=0",
        "override-no-p", "p-not-prime", "duplicate-override", "degree-sum", "no-parts", "e=0",
    ],
)
def test_parse_refuses_malformed_spec(doc, message):
    with pytest.raises(FieldSpecError, match=message):
        parse_field_spec(doc)


def test_splitting_gaussian(field_qi):
    assert splitting_type(field_qi, 5).parts == ((1, 1), (1, 1))
    assert splitting_type(field_qi, 3).parts == ((1, 2),)
    assert splitting_type(field_qi, 2).parts == ((2, 1),)


def test_splitting_cubic_ramified(field_cubic):
    assert splitting_type(field_cubic, 23).parts == ((1, 1), (2, 1))


def test_splitting_respects_override():
    # x^2 + 3 = (x + 1)^2 mod 2 reads 2 as ramified; the override at this
    # index divisor says inert, and the override is what every route reads
    field = FieldSpec(
        name="x^2 + 3",
        poly=(3, 0, 1),
        splitting_overrides=((2, SplittingType(((1, 2),))),),
    )
    assert factor_degrees(field.poly, 2) == [(2, 1)]
    assert splitting_type(field, 2).parts == ((1, 2),)
    assert residue_degrees(field, np.array([2])).tolist() == [[0, 1]]


def test_splitting_refuses_index_divisor_without_assertion():
    # 2^2 divides disc(x^2 + 5) = -20, but Z[sqrt-5] is 2-maximal, so with
    # no invariants and no override (x + 1)^2 mod 2 gives 2 ramified
    field = FieldSpec(name="naked", poly=(5, 0, 1))
    assert splitting_type(field, 2).parts == ((2, 1),)
    assert splitting_type(field, 3).parts == ((1, 1), (1, 1))
    # Z[sqrt-3] has index 2 in Z[(1 + sqrt-3)/2]: (x + 1)^2 mod 2 would
    # call 2 ramified, yet it is inert in Q(sqrt-3)
    with pytest.raises(IndexDivisorError, match="p=2"):
        splitting_type(FieldSpec(name="x^2 + 3", poly=(3, 0, 1)), 2)
    doc = {
        "name": "x^2 + 3",
        "poly": [3, 0, 1],
        "invariants": {"r1": 0, "r2": 1, "h": 1, "R": 1.0, "w": 6, "d_K": -3},
        "overrides": [{"p": 2, "parts": [[1, 2]]}],
    }
    field = parse_field_spec(json.dumps(doc))
    c = ideal_density_constant(field)
    assert c == pytest.approx(math.pi / (3 * math.sqrt(3)), rel=1e-12)
    N = 10**6
    assert abs(int(build_tables(field, N).I_prefix[N]) / (c * N) - 1) < 1e-3


def _x2m5(overrides=()):
    # x^2 - 5 generates the order of index 2 in Q(sqrt5): poly_disc = 2^2 * 5
    return parse_field_spec(
        json.dumps(
            {
                "name": "Z[sqrt5]",
                "poly": [-5, 0, 1],
                "poly_disc": 20,
                "invariants": {
                    "r1": 2,
                    "r2": 0,
                    "h": 1,
                    "R": math.log((1 + math.sqrt(5)) / 2),
                    "w": 2,
                    "d_K": 5,
                },
                "overrides": list(overrides),
            }
        )
    )


def test_non_maximal_quadratic_needs_an_override_at_its_index_divisor():
    # x^2 - 5 = (x + 1)^2 mod 2 would call 2 ramified; it is inert in Q(sqrt5)
    field = _x2m5()
    with pytest.raises(IndexDivisorError, match="p=2"):
        splitting_type(field, 2)
    with pytest.raises(IndexDivisorError):
        residue_degrees(field, np.array([2, 3, 5]))
    assert splitting_type(field, 5).parts == ((2, 1),)
    field = _x2m5([{"p": 2, "parts": [[1, 2]]}])
    assert splitting_type(field, 2).parts == ((1, 2),)
    assert residue_degrees(field, np.array([2, 3, 5, 11])).tolist() == [
        [0, 1],
        [0, 1],
        [1, 0],
        [2, 0],
    ]


def test_splitting_degree_sum_matches_field_degree(fields):
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 997]
    for field in fields.values():
        for p in rng.sample(primes, 8):
            split = splitting_type(field, p)
            assert split.degree_sum == field.degree


def test_cubic_splitting_matches_full_factorization(field_cubic):
    # the factor-degree route against the Cantor-Zassenhaus reference
    for p in _primes_upto(2 * 10**4):
        factors = factor_mod_p(field_cubic.poly, p)
        expected = SplittingType(tuple((mult, len(g) - 1) for g, mult in factors))
        assert splitting_type(field_cubic, p) == expected, p


# (poly, poly_disc) of fields of degree 3 to 5 whose polynomial order is
# the full ring of integers; zeta5 and zeta8 have p^2 | poly_disc, where
# Dedekind's criterion holds
_MORE_FIELDS = {
    "zeta5": ((1, 1, 1, 1, 1), 125),
    "zeta8": ((1, 0, 0, 0, 1), 256),
    "cyclic cubic": ((-1, -2, 1, 1), 49),
    "quartic": ((-1, 1, 0, 0, 1), -283),
    "quintic": ((-1, -1, 0, 0, 0, 1), 2869),
}


def _field(fields, name):
    if name in fields:
        return fields[name]
    poly, _ = _MORE_FIELDS[name]
    return FieldSpec(name=name, poly=poly)


def _degree_row(field, p):
    row = [0] * field.degree
    for _, f in splitting_type(field, p).parts:
        row[f - 1] += 1
    return row


@pytest.mark.parametrize("name", ["Q", "Qi", "Qsqrt2", "Qsqrtm5", "cubic", *_MORE_FIELDS])
def test_residue_degrees_match_splitting_types(fields, name):
    # covers ramified primes, Q(sqrt-5)'s override at 2, the cubic's 23 and
    # the batched pass on every other prime; for Q it checks the all-ones
    # shortcut against the polynomial route
    field = _field(fields, name)
    primes = primes_between(2, 2 * 10**4 if name == "cubic" else 1999)
    degrees = residue_degrees(field, primes)
    assert degrees.dtype == np.int8 and degrees.shape == (len(primes), field.degree)
    for p, row in zip(primes.tolist(), degrees.tolist()):
        assert row == _degree_row(field, p), p


@pytest.mark.parametrize("name", ["Qi", "cubic", *_MORE_FIELDS])
def test_residue_degrees_of_no_primes_and_of_two_alone(fields, name):
    field = _field(fields, name)
    assert residue_degrees(field, np.array([], dtype=np.int64)).shape == (0, field.degree)
    assert residue_degrees(field, np.array([2])).tolist() == [_degree_row(field, 2)]


@pytest.mark.parametrize("name", ["cubic", "zeta5", "quintic"])
def test_batched_fill_is_exact_just_below_1e8(fields, name):
    # the top of the table cap, where products come closest to int64; the
    # kernel itself, since Q(zeta5) fills from its class table
    field = _field(fields, name)
    primes = [p for p in range(10**8 - 3000, 10**8) if _is_prime(p)]
    degrees = _frobenius_degree_counts(field.poly, np.array(primes))
    for p, row in zip(primes, degrees.tolist()):
        expected = [0] * field.degree
        for _, f in factor_degrees(field.poly, p):
            expected[f - 1] += 1
        assert row == expected, p


@pytest.mark.parametrize(
    "poly, disc",
    [
        ((0, 1), 1),
        ((3, 1), 1),
        ((1, 0, 1), -4),
        ((-2, 0, 1), 8),
        ((5, 0, 1), -20),
        ((-5, 0, 1), 20),
        ((-1, -1, 0, 1), -23),
        ((0, 1, 0, 1), -4),  # x^3 + x: -4 p^3 - 27 q^2 at p = 1, q = 0
        ((10**7, 10**7, 0, 1), -4 * 10**21 - 27 * 10**14),
        ((1, 3, -3, -4, 1, 1), 11**4),
        ((1, 1, 1, 1, 1, 1, 1), -(7**5)),
        *_MORE_FIELDS.values(),
    ],
)
def test_poly_discriminant_is_exact(poly, disc):
    assert poly_discriminant(poly) == disc


@pytest.mark.parametrize("poly", [(1, 2, 1), (0, 0, 1), (0, 0, 0, 1), (1, 0, 2, 0, 1)])
def test_spec_refuses_a_polynomial_that_is_not_squarefree(poly):
    with pytest.raises(FieldSpecError, match="not squarefree"):
        FieldSpec(name="square", poly=poly)


@pytest.mark.parametrize(
    "poly, root",
    [
        ((-4, 0, 1), 2),  # x^2 - 4
        ((6, -5, 1), 2),  # (x - 2)(x - 3)
        ((0, 1, 0, 1), 0),  # x (x^2 + 1)
        ((-1, 1, -1, 1), 1),  # (x - 1)(x^2 + 1)
        ((-8, 0, 0, 1), 2),  # x^3 - 8
        ((10**6 + 3, 10**6 + 2, 0, 1), -1),  # (x + 1)(x^2 - x + 10^6 + 3)
    ],
)
def test_spec_refuses_a_reducible_polynomial_of_degree_2_or_3(poly, root):
    # a monic poly of degree <= 3 is reducible exactly when it has an
    # integer root; one of degree >= 4, such as (x^2 + 1)(x^2 + 2), is
    # still taken as it is
    with pytest.raises(FieldSpecError, match=f"reducible: it has the integer root {root}$"):
        FieldSpec(name="reducible", poly=poly)
    assert FieldSpec(name="quartic", poly=(2, 0, 3, 0, 1)).degree == 4


def test_integer_root_search_matches_a_divisor_scan():
    # every monic poly of degree 2 and 3 with coefficients in [-9, 9]: an
    # integer root divides c_0, and c_0 = 0 has the root 0
    def roots(poly):
        c0 = poly[0]
        candidates = range(-9, 10) if c0 == 0 else [d for d in range(-abs(c0), abs(c0) + 1) if d and c0 % d == 0]
        return {r for r in candidates if sum(c * r**i for i, c in enumerate(poly)) == 0}

    for degree in (2, 3):
        for coeffs in itertools.product(range(-9, 10), repeat=degree):
            poly = (*coeffs, 1)
            root = fields_module._integer_root(poly)
            assert (root in roots(poly)) if root is not None else not roots(poly), poly


def test_spec_refuses_poly_disc_that_is_not_the_discriminant():
    # FieldSpec computes poly_disc itself; a document may state it, and a
    # stated value that is not disc(poly) is refused with both values
    with pytest.raises(TypeError):
        FieldSpec(name="x^2 - 5", poly=(-5, 0, 1), poly_disc=5)
    doc = {"name": "x^2 - 5", "poly": [-5, 0, 1], "poly_disc": 5}
    with pytest.raises(FieldSpecError, match=r"poly_disc=5 is not disc\(poly\)=20"):
        parse_field_spec(json.dumps(doc))
    with pytest.raises(FieldSpecError, match=r"poly_disc=-4 is not disc\(poly\)=-20"):
        parse_field_spec(_qsqrtm5_doc(poly_disc=-4))


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parent.parent / "fields").glob("*.json")),
    ids=lambda path: path.name,
)
def test_poly_disc_key_may_be_left_out(path):
    # with the key absent the parser derives disc(poly), so the spec and
    # every cache digest are those of the document that states it
    doc = json.loads(path.read_text())
    stated = parse_field_spec(json.dumps(doc))
    del doc["poly_disc"]
    derived = parse_field_spec(json.dumps(doc))
    assert derived == stated
    assert table_fingerprint(derived) == table_fingerprint(stated)


def test_discriminant_past_int64_splits_primes_exactly():
    # x^3 + 1e7 x + 1e7 has disc -4e21 - 2.7e15, past 2^63, which is reduced
    # mod each prime exactly, not through int64; 2^2 and 5^2 divide it, so
    # 2 and 5 go per prime, where Dedekind's criterion fails and, with no
    # override, refuses them; every other row must equal the per-prime
    # splitting type
    big = FieldSpec(name="big", poly=(10**7, 10**7, 0, 1))
    assert big.poly_disc == -4 * 10**21 - 27 * 10**14
    assert abs(big.poly_disc) >= 2**63 and big.poly_disc % 100 == 0
    primes = primes_between(2, 1999)
    with pytest.raises(IndexDivisorError, match="p=2"):
        residue_degrees(big, primes)
    with pytest.raises(IndexDivisorError, match="p=5"):
        residue_degrees(big, primes[primes != 2])
    others = primes[(primes != 2) & (primes != 5)]
    degrees = residue_degrees(big, others)
    for p, row in zip(others.tolist(), degrees.tolist()):
        assert row == _degree_row(big, p), p


def test_batched_fill_refuses_primes_past_int64_exact_range(field_cubic):
    # 2 * 3 * (2^31 - 1)^2 >= 2^63: the pass would wrap, so it must refuse
    with pytest.raises(ValueError, match="int64-exact"):
        _poly_residue_degrees(field_cubic, np.array([2**31 - 1]))


def _edge_of_the_guard():
    # the largest prime with 2 * 3 * p^2 < 2^63, the primes up to 2000
    # below it, and the least prime past it
    edge = math.isqrt((2**63 - 1) // 6)
    while not _is_prime(edge):
        edge -= 1
    after = edge + 1
    while not _is_prime(after):
        after += 1
    assert 6 * edge**2 < 2**63 <= 6 * after**2
    below = [p for p in range(edge - 2000, edge + 1) if _is_prime(p)]
    assert below[-1] == edge
    return below, after


def test_batched_fill_is_exact_at_the_edge_of_its_guard(field_cubic):
    # the largest prime with 2 * 3 * p^2 < 2^63 runs the pass with products
    # closest to int64 and must match the scalar route; the next is refused
    below, after = _edge_of_the_guard()
    degrees = _poly_residue_degrees(field_cubic, np.array(below))
    for p, row in zip(below, degrees.tolist()):
        assert row == _degree_row(field_cubic, p), p
    with pytest.raises(ValueError, match="int64-exact"):
        _poly_residue_degrees(field_cubic, np.array([below[-1], after]))


def test_form_classes_are_exact_past_the_kernel_guard(field_cubic):
    # the cubic's form classes have no such guard: near 1.24e9 their
    # windows hold 14,700 rows, and they must still give the factor degrees
    below, after = _edge_of_the_guard()
    primes = np.array(below + [after])
    degrees = residue_degrees(field_cubic, primes)
    for p, row in zip(primes.tolist(), degrees.tolist()):
        assert row == _degree_row(field_cubic, p), p


# x^3 + 1e7 x + 1e7: its coefficients pass every prime below 1e7, so
# there the fill folds by their residues, and above it by 1e7 itself
_BIG_CUBIC = FieldSpec(name="big cubic", poly=(10**7, 10**7, 0, 1))


def _factor_row(field, p):
    row = [0] * field.degree
    for _, f in factor_degrees(field.poly, p):
        row[f - 1] += 1
    return row


def _guard_edge(n):
    # the largest prime p with 2 n p^2 < 2^63
    edge = math.isqrt((2**63 - 1) // (2 * n))
    while not _is_prime(edge):
        edge -= 1
    return edge


@pytest.mark.parametrize(
    "name, top",
    [("big cubic", 10**7), ("big cubic", 10**8), ("qzeta7", 10**8), ("qzeta11plus", 10**8)],
)
def test_fold_by_own_coefficients_is_exact_below(name, top):
    # below 1e7 the big cubic folds by residues up to 1e7, above it by 1e7
    # itself, and it reduces every row before it folds; Q(zeta7) folds by
    # six units and Q(zeta11)^+ by coefficients up to 4, reducing no row
    # before the last n; the kernel itself, since the two abelian fields
    # fill from their class tables
    fields_dir = Path(__file__).resolve().parent.parent / "fields"
    field = _BIG_CUBIC if name == "big cubic" else load_field_file(str(fields_dir / f"{name}.json"))
    primes = [p for p in range(top - 3000, top) if _is_prime(p)]
    degrees = _frobenius_degree_counts(field.poly, np.array(primes))
    for p, row in zip(primes, degrees.tolist()):
        assert row == _factor_row(field, p), p


def test_big_coefficient_fill_is_exact_at_the_edge_of_its_guard():
    edge = _guard_edge(3)
    below = [p for p in range(edge - 2000, edge + 1) if _is_prime(p)]
    degrees = residue_degrees(_BIG_CUBIC, np.array(below))
    for p, row in zip(below, degrees.tolist()):
        assert row == _factor_row(_BIG_CUBIC, p), p
    assert [cut for _, cut, _ in _fold_schedule([10**7, 10**7, 0], edge)] == [True] * 3


def test_fold_schedule_reduces_only_where_a_bound_could_pass_int64():
    # (row k, reduce row k first, rows reduced before it folds into them)
    assert _fold_schedule([1, 0], 10**6) == [(3, False, []), (2, False, [])]
    assert _fold_schedule([1, 1, 0], 10**8) == [(5, False, []), (4, False, []), (3, False, [])]
    # x^3 - x - 1 at its guard edge: the two top rows still fold unreduced
    assert _fold_schedule([1, 1, 0], _guard_edge(3)) == [
        (5, False, []),
        (4, False, []),
        (3, True, []),
    ]
    # x^2 - 29x - 29 with largest prime 545461393: after row 3 folds
    # unreduced, row 1 is within 29 p of 2^63 - 1, so it is reduced before
    # row 2 folds into it
    assert _fold_schedule([29, 29], 545461393) == [(3, False, []), (2, True, [1])]


def test_fill_is_exact_where_a_target_row_is_reduced_first():
    field = FieldSpec(name="x^2 - 29x - 29", poly=(-29, -29, 1))
    primes = [p for p in range(545461393 - 2000, 545461394) if _is_prime(p)]
    assert primes[-1] == 545461393
    degrees = residue_degrees(field, np.array(primes))
    for p, row in zip(primes, degrees.tolist()):
        assert row == _factor_row(field, p), p


@pytest.mark.parametrize("name", ["Qi", "cubic", "zeta5"])
def test_batched_fill_is_chunk_invariant(fields, name):
    # lanes share a squaring, so a prime's row must not depend on its
    # neighbours: one call over every prime <= 2e5 against one call per
    # prime, on a sample that includes the primes around 2^17; the
    # polynomial route, since Q(i) and Q(zeta5) fill from class tables
    field = _field(fields, name)
    primes = primes_between(2, 2 * 10**5)
    degrees = _poly_residue_degrees(field, primes)
    near = np.flatnonzero(abs(primes - 2**17) < 600).tolist()
    rng = random.Random(f"chunks:{name}")
    sample = near + rng.sample(range(len(primes)), 200 - len(near))
    for i in sample:
        row = _poly_residue_degrees(field, primes[i : i + 1]).tolist()
        assert row == [degrees[i].tolist()], i
    # in one kernel call across 2^17, bit 17 is in some lanes only (the
    # masked x-shift); alone, a prime takes x in every lane or none
    window = primes[abs(primes - 2**17) < 3000]
    counts = _frobenius_degree_counts(field.poly, window)
    for p, row in zip(window.tolist(), counts.tolist()):
        assert row == _frobenius_degree_counts(field.poly, np.array([p])).tolist()[0], p


def test_fill_working_set_stays_bounded(field_cubic):
    # beyond its int8 output the kernel's fill of the 78,498 primes below
    # 1e6 holds one batch's buffers, none above 128 KiB, and the per-prime
    # routing arrays: 969 KiB measured, 1,669 KiB when each squaring
    # allocated.  The cubic's form classes hold one chunk's primes and one
    # window's points: 1,007 KiB measured, 1,330 KiB before the points were
    # evaluated in place.
    primes = primes_between(2, 10**6)
    for route in (_poly_residue_degrees, residue_degrees):
        tracemalloc.start()
        try:
            degrees = route(field_cubic, primes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - degrees.nbytes < 1152 * 1024, route


def test_traces_separate_degree_patterns_of_equal_factor_count():
    # x^4 + x - 1 has Galois group S4, so both (1, 3) and (2, 2) occur: two
    # factors each, which only tr(Q^k) for k >= 2 tells apart
    poly, disc = _MORE_FIELDS["quartic"]
    primes = np.array([p for p in _primes_upto(1999) if p > 4 and disc % p != 0])
    counts = _frobenius_degree_counts(poly, primes)
    field = _field({}, "quartic")
    for p, row in zip(primes.tolist(), counts.tolist()):
        assert row == _degree_row(field, p), p
    patterns = {tuple(row) for row in counts.tolist()}
    assert {(1, 0, 1, 0), (0, 2, 0, 0)} <= patterns


def test_primes_up_to_the_degree_take_the_per_prime_route(monkeypatch):
    # tr(Q^k) mod p counts the factor degrees only for p > n, so the
    # quintic sends 2, 3 and 5 through splitting_type; 19 divides
    # poly_disc = 2869 = 19 * 151 once, so it goes to the kernel
    field = _field({}, "quintic")
    expected = {p: _degree_row(field, p) for p in (2, 3, 5)}
    per_prime, lanes = [], []

    def spy_splitting(field, p):
        per_prime.append(p)
        return splitting_type(field, p)

    def spy_kernel(poly, p):
        lanes.extend(p.tolist())
        return _frobenius_degree_counts(poly, p)

    monkeypatch.setattr(fields_module, "splitting_type", spy_splitting)
    monkeypatch.setattr(fields_module, "_frobenius_degree_counts", spy_kernel)
    primes = np.array(_primes_upto(60))
    degrees = residue_degrees(field, primes)
    assert sorted(per_prime) == [2, 3, 5]
    assert sorted(lanes) == [p for p in primes.tolist() if p not in (2, 3, 5)]
    for i, p in enumerate((2, 3, 5)):
        assert degrees[i].tolist() == expected[p]


def test_degree_one_residue_degrees_are_ones(field_q):
    shifted = FieldSpec(name="Q, shifted", poly=(3, 1))
    primes = primes_between(2, 10**5)
    for field in (field_q, shifted):
        degrees = residue_degrees(field, primes)
        assert degrees.dtype == np.int8 and degrees.shape == (len(primes), 1)
        assert (degrees == 1).all()
    assert residue_degrees(field_q, primes[:0]).shape == (0, 1)


def _spec_files_with_invariants():
    paths = sorted((Path(__file__).resolve().parent.parent / "fields").glob("*.json"))
    return [path for path in paths if "invariants" in json.loads(path.read_text())]


@pytest.mark.parametrize("path", _spec_files_with_invariants(), ids=lambda path: path.name)
def test_shipped_invariants_match_ideal_density(path):
    # a wrong h, R, w or d_K moves I_K(N) / (c N) by a factor of 2 or
    # more; every shipped spec reads within 1.1e-3 of 1 at N = 1e5
    field = load_field_file(str(path))
    N = 10**5
    observed = int(build_tables(field, N).I_prefix[N]) / (ideal_density_constant(field) * N)
    assert abs(observed - 1) < 1e-2, observed


@pytest.mark.parametrize("name", ["Q", "Qi", "Qsqrt2", "Qsqrtm5"])
def test_invariants_match_observed_ideal_density(fields, name):
    # a wrong h, R, w or d_K in a spec moves c far outside this margin
    field = fields[name]
    N = 10**4
    c = ideal_density_constant(field)
    observed = int(build_tables(field, N).I_prefix[N]) / N
    assert abs(observed - c) / c < 1e-2


def test_splitting_deterministic(field_cubic):
    first = splitting_type(field_cubic, 59)
    assert all(splitting_type(field_cubic, 59) == first for _ in range(5))


def test_splitting_type_canonical_order():
    split = SplittingType(((2, 1), (1, 1)))
    assert split.parts == ((1, 1), (2, 1))


def test_density_constant_rational(field_q):
    assert ideal_density_constant(field_q) == 1.0


def test_density_constant_real_quadratic(fields):
    assert ideal_density_constant(fields["Qsqrt2"]) == pytest.approx(0.62323, abs=5e-6)


def test_density_constant_requires_data(field_cubic):
    with pytest.raises(FieldSpecError, match="invariants"):
        ideal_density_constant(field_cubic)


# ------------------------------------------------------------ conductors

_FIELDS_DIR = Path(__file__).resolve().parent.parent / "fields"
# the conductor each abelian spec ships, and the classes mod it of the
# primes that split completely (derived from residue_degrees at the
# primes up to 5000)
_SHIPPED_CONDUCTORS = {
    "gaussian": (4, [1]),
    "qsqrt2": (8, [1, 7]),
    "qsqrtm5": (20, [1, 3, 7, 9]),
    "cyclic_cubic7": (7, [1, 6]),
    "qzeta5": (5, [1]),
    "qzeta11plus": (11, [1, 10]),
    "qzeta7": (7, [1]),
}


def _with(path, **changes):
    doc = json.loads((_FIELDS_DIR / path).read_text())
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(_SHIPPED_CONDUCTORS))
def test_shipped_conductors(name):
    field = load_field_file(str(_FIELDS_DIR / f"{name}.json"))
    conductor, kernel = _SHIPPED_CONDUCTORS[name]
    characters = field.characters
    assert len(characters) == field.degree
    assert math.lcm(*(chi.conductor for chi in characters)) == conductor
    # the characters are those trivial on exactly the split classes
    trivial_on = [
        a for a in range(1, conductor)
        if math.gcd(a, conductor) == 1
        and all(chi.phase[a % chi.conductor] == 0 for chi in characters)
    ]
    assert trivial_on == kernel
    # conductor-discriminant formula
    assert math.prod(chi.conductor for chi in characters) == abs(field.invariants.d_K)
    # derived from poly alone
    assert FieldSpec(name, field.poly).characters == characters


def test_characters_split_primes_by_their_values():
    # p splits completely exactly when every character is 1 at p
    field = load_field_file(str(_FIELDS_DIR / "qzeta7.json"))
    primes = primes_between(8, 2000)
    degrees = residue_degrees(field, primes)
    for p, row in zip(primes.tolist(), degrees.tolist()):
        split = all(chi.phase[p % chi.conductor] == 0 for chi in field.characters)
        assert split == (row[0] == 6) == (p % 7 == 1)


def _shipped_or_more_field(name):
    if name in _MORE_FIELDS:
        return _field({}, name)
    return load_field_file(str(_FIELDS_DIR / f"{name}.json"))


@pytest.mark.parametrize("name", [*sorted(_SHIPPED_CONDUCTORS), "zeta5", "zeta8", "cyclic cubic"])
def test_class_table_matches_the_polynomial_route(name):
    # a field with characters fills from its class table mod the
    # conductor; at every prime <= 2e5 it must give the rows of the kernel,
    # and of splitting_type at p <= n and at the ramified p
    field = _shipped_or_more_field(name)
    assert field.characters is not None
    primes = primes_between(2, 2 * 10**5)
    degrees = residue_degrees(field, primes)
    assert degrees.dtype == np.int8 and degrees.shape == (len(primes), field.degree)
    assert (degrees == _poly_residue_degrees(field, primes)).all()


# complex cubics whose poly_disc is a negative fundamental discriminant,
# with the class number h of d: Cl(d) has an index-3 subgroup H, whose
# forms represent the primes that split completely
_COMPLEX_CUBICS = {
    (-1, -1, 0, 1): (-23, 3),
    (-3, -2, 1, 1): (-87, 6),
    (-3, -4, -1, 1): (-199, 9),
    (-3, 0, 1, 1): (-231, 12),
    (-3, -1, 0, 1): (-239, 15),
    (-6, -4, -3, 1): (-2516, 36),
}


@pytest.mark.parametrize("poly", sorted(_COMPLEX_CUBICS), ids=str)
def test_form_classes_match_the_polynomial_route(poly):
    # at every prime <= 2e5 the form classes must give the kernel's rows,
    # and splitting_type's at p <= 3 and at p | d, with no per-prime call
    d, h = _COMPLEX_CUBICS[poly]
    field = FieldSpec(name=f"cubic {d}", poly=poly)
    assert field.poly_disc == d and field.characters is None
    assert field.forms is not None and 3 * len(field.forms) == h
    assert field.forms[0][0] == 1  # the principal form is split
    primes = primes_between(2, 2 * 10**5)
    per_prime = []

    def spy_splitting(field, p):
        per_prime.append(p)
        return splitting_type(field, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fields_module, "splitting_type", spy_splitting)
        degrees = residue_degrees(field, primes)
    assert per_prime == []
    assert degrees.dtype == np.int8 and degrees.shape == (len(primes), 3)
    assert (degrees == _poly_residue_degrees(field, primes)).all()


@pytest.mark.parametrize(
    "poly",
    [
        (-2, 0, 0, 1),  # x^3 - 2: d = -108 is not fundamental
        (1, -4, 0, 1),  # x^3 - 4x + 1: totally real, d = 229
        _MORE_FIELDS["quartic"][0],
        _MORE_FIELDS["quintic"][0],
    ],
    ids=str,
)
def test_fields_outside_the_form_route_keep_the_kernel(monkeypatch, poly):
    field = FieldSpec(name="outside", poly=poly)
    assert field.forms is None and field.characters is None
    lanes = []

    def spy_kernel(poly, p):
        lanes.extend(p.tolist())
        return _frobenius_degree_counts(poly, p)

    monkeypatch.setattr(fields_module, "_frobenius_degree_counts", spy_kernel)
    primes = primes_between(2, 2000)
    residue_degrees(field, primes)
    assert len(lanes) > 250


def test_forms_are_not_compared_or_hashed(field_cubic):
    # derived from poly like the characters: two specs of one poly are
    # equal and share a hash, and no init argument sets them
    again = FieldSpec(name=field_cubic.name, poly=field_cubic.poly)
    assert again == field_cubic and hash(again) == hash(field_cubic)
    assert again.forms == field_cubic.forms == ((1, 1, 6),)
    assert "forms" not in repr(again)
    with pytest.raises(TypeError):
        FieldSpec(name="c", poly=field_cubic.poly, forms=None)


@pytest.mark.parametrize(
    "name, by_poly",
    [(name, False) for name in sorted(_SHIPPED_CONDUCTORS)]
    + [("cubic_x3mxm1", False)]
    + [(name, True) for name in ("quartic", "quintic")],
)
def test_only_fields_without_characters_take_the_polynomial_route(monkeypatch, name, by_poly):
    # built before the spies: the check made while a spec is built always
    # takes the polynomial route.  The cubic takes its form classes, which
    # fill every prime, 2, 3 and 23 | d included, with no per-prime call
    # and no lane.
    field = _shipped_or_more_field(name)
    assert (field.characters is None and field.forms is None) == by_poly
    per_prime, lanes = [], []

    def spy_splitting(field, p):
        per_prime.append(p)
        return splitting_type(field, p)

    def spy_kernel(poly, p):
        lanes.extend(p.tolist())
        return _frobenius_degree_counts(poly, p)

    monkeypatch.setattr(fields_module, "splitting_type", spy_splitting)
    monkeypatch.setattr(fields_module, "_frobenius_degree_counts", spy_kernel)
    residue_degrees(field, primes_between(2, 2000))
    if field.forms is not None:
        assert (per_prime, lanes) == ([], [])
    else:
        assert (bool(per_prime), bool(lanes)) == (by_poly, by_poly)


@pytest.mark.parametrize("name, calls", [("cubic_x3mxm1", [2, 3]), ("gaussian", [2])])
def test_building_a_spec_checks_each_prime_once(monkeypatch, name, calls):
    # the polynomial route's rows at the check primes are computed once and
    # serve both the characters and the form classes; only p <= the degree
    # goes per prime, 23 | d included in the kernel's lanes
    per_prime = []

    def spy_splitting(field, p):
        per_prime.append(p)
        return splitting_type(field, p)

    monkeypatch.setattr(fields_module, "splitting_type", spy_splitting)
    load_field_file(str(_FIELDS_DIR / f"{name}.json"))
    assert per_prime == calls


def test_degree_one_has_the_trivial_character(field_q):
    (chi,) = field_q.characters
    assert (chi.conductor, chi.phase) == (1, (0,))
    assert load_field_file(str(_FIELDS_DIR / "cubic_x3mxm1.json")).characters is None


def _check_degrees(path):
    field = load_field_file(str(_FIELDS_DIR / path))
    return residue_degrees(field, np.array(characters_module._CHECK_PRIMES))


@pytest.mark.parametrize(
    "path, q",
    [
        # Q(sqrt5)'s conductor: 3 splits in Q(sqrt-5), where the
        # characters mod 5 see one prime of degree 1
        ("qsqrtm5.json", 5),
        # x^3 - x - 1 is not abelian: the split classes mod 23 make 2
        # split, where the cubic keeps 2 inert
        ("cubic_x3mxm1.json", 23),
        ("gaussian.json", 3),
        # 5 splits in Q(i), but its class mod 5 is no unit
        ("gaussian.json", 5),
        # a multiple of the conductor gives the same characters
        ("qsqrtm5.json", 40),
        ("qzeta7.json", 14),
        ("q.json", 4),
        # no character mod 2 has conductor 2
        ("gaussian.json", 2),
        # the 53 primes below 256 prime to 256 cannot meet its 128 unit
        # classes, nor the 52 prime to 200 its 80
        ("gaussian.json", 256),
        ("gaussian.json", 200),
    ],
    ids=[
        "qsqrtm5-conductor-5",
        "cubic-not-abelian",
        "gaussian-conductor-3",
        "gaussian-conductor-5",
        "qsqrtm5-multiple",
        "qzeta7-multiple",
        "q-conductor-4",
        "conductor-2",
        "conductor-too-large",
        "classes-unchecked",
    ],
)
def test_conductor_refused(path, q):
    # the check the derivation runs per candidate q turns each down
    assert characters_module._characters_mod(q, _check_degrees(path)) is None


@pytest.mark.parametrize(
    "doc, message",
    [
        # wrong values of d_K that poly_disc = k^2 d_K cannot see (k = 1),
        # with the splitting at the index divisor 2 given by an override
        (
            _with(
                "gaussian.json",
                name="x^2+4",
                poly=[4, 0, 1],
                poly_disc=-16,
                invariants={"r1": 0, "r2": 1, "h": 1, "R": 1.0, "w": 4, "d_K": -16},
                overrides=[{"p": 2, "parts": [[2, 1]]}],
            ),
            r"multiply to 4, not \|d_K\| = 16",
        ),
        # Q(sqrt-3) claiming d_K = -12 would halve c
        (
            _with(
                "gaussian.json",
                name="x^2+3",
                poly=[3, 0, 1],
                poly_disc=-12,
                invariants={"r1": 0, "r2": 1, "h": 1, "R": 1.0, "w": 6, "d_K": -12},
                overrides=[{"p": 2, "parts": [[1, 2]]}],
            ),
            r"multiply to 3, not \|d_K\| = 12",
        ),
    ],
    ids=["x2p4", "x2p3"],
)
def test_conductor_product_refused(doc, message):
    with pytest.raises(FieldSpecError, match=message):
        parse_field_spec(doc)


def test_conductor_without_invariants_is_checked_against_poly():
    doc = json.loads(_with("gaussian.json"))
    del doc["invariants"]
    field = parse_field_spec(json.dumps(doc))
    assert sorted(chi.conductor for chi in field.characters) == [1, 4]
    # bare polynomials: x^4 + 1 is Q(zeta8); Z[sqrt-3] is not 2-maximal,
    # so x^2 + 3 needs the inert override at 2 before it has characters
    inert = ((2, SplittingType(((1, 2),))),)
    for spec, conductors in [
        (FieldSpec("x^4+1", (1, 0, 0, 0, 1)), [1, 4, 8, 8]),
        (FieldSpec("x^2+3", (3, 0, 1), splitting_overrides=inert), [1, 3]),
    ]:
        assert sorted(chi.conductor for chi in spec.characters) == conductors
    assert FieldSpec("x^2+3", (3, 0, 1)).characters is None


def test_unit_characters_and_their_conductors():
    # all characters mod q: phi(q) of them, and the primitive ones number
    # sum over d | q of mu(q / d) phi(d)
    def phi(n):
        return sum(math.gcd(a, n) == 1 for a in range(1, n + 1))

    def mu(n):
        factors = characters_module._prime_factors(n)
        return 0 if any(n % (p * p) == 0 for p in factors) else (-1) ** len(factors)

    for q in range(3, 61):
        basis = characters_module._unit_basis(q)
        assert math.prod(order for _, order in basis) == phi(q)
        assert all(pow(g, order, q) == 1 for g, order in basis)
        generated = {1}
        for g, order in basis:
            generated = {a * pow(g, e, q) % q for a in generated for e in range(order)}
        assert len(generated) == phi(q)
        characters = characters_module._primitive_characters(q, (1,))
        assert len(characters) == phi(q)
        primitive = sum(mu(q // d) * phi(d) for d in range(1, q + 1) if q % d == 0)
        assert sum(chi.conductor == q for chi in characters) == primitive, q
