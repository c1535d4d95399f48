import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nichols.exactfield import integer_value, root_name
from nichols.braidspace import powers_subrack
from nichols.permgroup import NormalForm, Permutation, UnmixedClass
from nichols.reps import (RepSpec, _mu_label, _parse_mu, enumerate_irreps,
                          level_sizes, parse_rep_spec, partitions_of,
                          pi_scalar, sn_character)

from exactfield_oracle import MINUS_ONE, ONE, ROOT_ONE, rational, zeta
from exactla_oracle import Matrix
from nichols.verdict import class_plan
from oracles import (A, B, CatalogGapError, GammaCharacter, catalog_covers,
                     cataloged, centralizer_elements, character_value,
                     class_size, coefficients_by_placements, dense_pi_scalar,
                     gamma, orbit_and_stabilizer, partition_degree,
                     permutation_spectrum_plan, resolve, rotation_defects,
                     sign, sn_irrep, tried_subracks)
from oracles import parse_rep_spec as reference_parse_rep_spec
from test_golden import DIGESTS


def _int_matrix(rows):
    return Matrix([[rational(x) for x in row] for row in rows])


# reference matrices for the standard representation of S_5 on the
# adjacent transpositions (12), (23), (34), (45)
STANDARD_S5 = {
    (1, 2): [[-1, -1, -1, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    (2, 3): [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    (3, 4): [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    (4, 5): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
}


def test_standard_rep_of_s5_matches_reference_matrices():
    rep = sn_irrep(5, "standard")
    for (a, b), rows in STANDARD_S5.items():
        got = rep.matrix(Permutation.from_cycles(5, ((a, b),)))
        assert got == _int_matrix(rows)


def test_conjugate_standard_rep_is_sign_times_standard():
    phi = sn_irrep(5, "standard")
    psi = sn_irrep(5, "standard_sign")
    for (a, b) in STANDARD_S5:
        t = Permutation.from_cycles(5, ((a, b),))
        assert psi.matrix(t) == phi.matrix(t).scale(MINUS_ONE)


def test_sn_irrep_is_a_homomorphism():
    rng = random.Random(17)
    for m, label in ((3, "standard"), (4, "standard"), (4, (2, 2)),
                     (5, "standard"), (4, "standard_sign")):
        rep = sn_irrep(m, label)
        pool = [Permutation(imgs) for imgs in
                [rng.sample(range(1, m + 1), m) for _ in range(12)]]
        for _ in range(30):
            p, q = rng.choice(pool), rng.choice(pool)
            assert rep.matrix(p * q) == rep.matrix(p) * rep.matrix(q)
        assert rep.matrix(Permutation.identity(m)).is_identity()


def test_sign_rep_matches_permutation_sign():
    rep = sn_irrep(4, "sign")
    rng = random.Random(23)
    for _ in range(20):
        p = Permutation(rng.sample(range(1, 5), 4))
        assert rep.matrix(p).is_scalar() == (
            ONE if sign(p) == 1 else MINUS_ONE)


def test_partition_degrees_by_hook_lengths():
    assert partition_degree((5,)) == 1
    assert partition_degree((1, 1, 1, 1, 1)) == 1
    assert partition_degree((4, 1)) == 4
    assert partition_degree((2, 1, 1, 1)) == 4
    assert partition_degree((3, 2)) == 5
    assert partition_degree((2, 2, 1)) == 5
    assert partition_degree((3, 1, 1)) == 6
    assert partition_degree((2, 2)) == 2
    assert partition_degree((2, 1)) == 2


def test_catalog_covers_small_groups_completely():
    for m in (1, 2, 3, 4):
        for part in partitions_of(m):
            assert catalog_covers(m, part)
    assert catalog_covers(5, (5,))
    assert catalog_covers(5, (4, 1))
    assert catalog_covers(5, (2, 1, 1, 1))
    assert catalog_covers(5, (1, 1, 1, 1, 1))
    assert not catalog_covers(5, (3, 2))
    assert not catalog_covers(6, (4, 2))


def test_uncataloged_partition_raises_on_resolve():
    # the oracle's matrix catalog has a gap here; the character does not
    spec = parse_rep_spec(2, 5, "chi=(1,1,1,1,1);mu=catalog:3+2")
    assert not cataloged(spec)
    with pytest.raises(CatalogGapError):
        resolve(spec)
    cls = UnmixedClass(2, 5)
    identity = cls.normal_form(Permutation.identity(10))
    assert character_value(spec.character(), identity) == rational(5)


def test_sum_of_squared_degrees_is_group_order():
    for k, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2), (6, 1)):
        total = sum(spec.degree() ** 2 for spec in enumerate_irreps(k, n))
        assert total == k ** n * math.factorial(n)


def test_enumerate_irreps_counts_and_order():
    rows = enumerate_irreps(2, 3)
    assert len(rows) == 10
    assert [r.label() for r in rows[:3]] == [
        "chi=(1,1,1);mu=trivial", "chi=(1,1,1);mu=standard",
        "chi=(1,1,1);mu=sign"]
    assert len(enumerate_irreps(2, 4)) == 20
    assert all(cataloged(spec) for spec in enumerate_irreps(2, 4))


def test_rep_spec_labels_round_trip():
    for k, n in ((2, 3), (2, 4), (3, 2), (4, 2), (2, 5)):
        for spec in enumerate_irreps(k, n):
            again = parse_rep_spec(k, n, spec.label())
            assert again == spec


def _compositions(n):
    # every tuple of positive sizes adding up to n
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_the_mu_label_is_the_first_name_that_reads_as_the_partitions():
    # every tuple of partitions of at most 10 boxes in all: its label reads
    # back as it, and no earlier name of trivial, sign, standard and
    # standard_sign does
    names = ("trivial", "sign", "standard", "standard_sign")
    read = 0
    for n in range(1, 11):
        for sizes in _compositions(n):
            for parts in itertools.product(*map(partitions_of, sizes)):
                label = _mu_label(parts)
                assert _parse_mu(sizes, label) == parts, label
                for name in names[:names.index(label) if label in names
                                  else len(names)]:
                    try:
                        assert _parse_mu(sizes, name) != parts, (parts, name)
                    except ValueError:
                        pass
                read += 1
    assert read == 13462


def test_parse_shorthand_and_canonicalization():
    spec = parse_rep_spec(2, 4, "chi=k:1;mu=standard")
    assert spec.u == (1, 0, 0, 0)
    assert parse_rep_spec(2, 4, "chi=(0,1,0,0);mu=standard") == spec
    assert parse_rep_spec(2, 4, "chi=2:1;mu=standard") == spec
    for text in ("chi=2:5", "chi=2:-1", "chi=2:x", "chi=3:1", "chi=2:+1"):
        with pytest.raises(ValueError):
            parse_rep_spec(2, 4, text)
    assert parse_rep_spec(3, 2, "chi=(1,2)").u == (2, 1)
    assert parse_rep_spec(4, 2, "chi=(-1,0)").u == (3, 0)
    with pytest.raises(ValueError):
        parse_rep_spec(3, 2, "chi=k:1")
    with pytest.raises(ValueError):
        parse_rep_spec(2, 3, "chi=(1,1)")
    with pytest.raises(ValueError):
        parse_rep_spec(2, 3, "chi=(1,1,1);mu=nonsense")
    with pytest.raises(ValueError):
        parse_rep_spec(2, 3, "tau=(1,1,1)")



@pytest.mark.parametrize("text,field", [
    ("chi=(1,1,1);mu=sign;mu=trivial", "mu"),
    ("chi=(1,1,1);chi=(0,0,0)", "chi"),
    ("chi=(1,1,0); chi =(1,1,0)", "chi"),
])
def test_repeated_spec_field_is_rejected(text, field):
    # the last value used to win silently, answering for a rep the text
    # does not name unambiguously
    with pytest.raises(ValueError,
                       match="^repeated representation spec field: %s$" % field):
        parse_rep_spec(2, 3, text)


def _parsed(parse, k, n, text):
    # the spec, or the type and message of what the parse raised
    try:
        return parse(k, n, text)
    except Exception as exc:
        return type(exc), str(exc)


_PAD = st.sampled_from(["", " ", "  ", "\t"])
# mostly digits, sometimes a bad token or none
_TOKENS = st.sampled_from([str(x) for x in range(10)] * 4 + [
    "-1", "x", "1.5", "+1", "1_0", "\u0661", "(", "", " "])
# a vector entry mostly holds one token, but may hold two, "1 2", or none
_ENTRIES = st.sampled_from((1, 1, 1, 2, 0)).flatmap(
    lambda size: st.lists(_TOKENS, min_size=size, max_size=size)).map(" ".join)
_WEIGHTS = st.builds("{}:{}".format, st.sampled_from(["2", "k", " 2 ", "3"]),
                     st.sampled_from(["0", "1", "2", "5", "-1", "x", " 3 "]))
_PARTITIONS = st.lists(st.sampled_from("012341x\u0661"),
                       min_size=1, max_size=3).map("+".join)
_MUS = st.sampled_from(["trivial", "sign", "standard", "standard_sign",
                        "nonsense", ""]) | st.lists(
    _PARTITIONS, min_size=1, max_size=3).map(lambda p: "catalog:" + "|".join(p))


def _vectors(n):
    # about n entries, in or out of brackets
    return st.builds(
        lambda entries, left, right: left + ",".join(entries) + right,
        st.sampled_from((n - 1, n, n, n, n + 1)).flatmap(
            lambda size: st.lists(_ENTRIES, min_size=size, max_size=size)),
        st.sampled_from(["(", "(", "", " ("]),
        st.sampled_from([")", ")", "", ") "]))


@st.composite
def _spec_texts(draw, n):
    # "key=value" per field, padded, or a bare part with no "=", in any
    # order, joined by ";": mostly a chi and a mu field, sometimes a
    # repeated, unknown or empty key, or a bare part, and sometimes no chi
    fields = [("chi", draw(_WEIGHTS if draw(st.integers(0, 5)) == 5
                           else _vectors(n)))]
    if draw(st.booleans()):
        fields.append(("mu", draw(_MUS)))
    if draw(st.integers(0, 3)) == 3:
        fields.append(draw(st.sampled_from([
            ("chi", "(1)"), (" chi", "0"), ("tau", "(1)"), ("", "1"),
            ("mu", "sign"), ("", None), ("junk", None)])))
    if draw(st.integers(0, 9)) == 9:
        fields = fields[1:]
    return ";".join(key if value is None else
                    key + draw(_PAD) + "=" + draw(_PAD) + value
                    for key, value in draw(st.permutations(fields)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from((0, 1, 2, 2, 3, 4, 4)), st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), _spec_texts(n))))
def test_the_one_pass_parse_matches_the_reference(k, text_for):
    # the same spec, or the same exception type and message, as the
    # field-by-field reference (tests/oracles.py), on texts with spaces,
    # empty entries, two tokens in an entry, bad tokens, the weight
    # shorthand, repeated, unknown and missing fields, and catalog labels
    n, text = text_for
    assert _parsed(parse_rep_spec, k, n, text) == _parsed(
        reference_parse_rep_spec, k, n, text), text


def test_the_one_pass_parse_reads_every_label_as_the_reference():
    for k, n in ((2, 4), (3, 3), (4, 3), (6, 2), (8, 2)):
        for spec in enumerate_irreps(k, n):
            assert parse_rep_spec(k, n, spec.label()) == \
                reference_parse_rep_spec(k, n, spec.label()) == spec


# what a mutation puts into a label: its own separators and digits, the
# tokens that int() reads but a label never holds, and spaces that
# str.strip() takes but int() keeps ("\x1c") or that are not ASCII
_PIECES = st.sampled_from(list("0123456789-+_,;|=(): x") + [
    "\t", "\x1c", "\x1f", "\u00a0", "\u0661", "catalog:", "mu=", "chi=", ""])


@st.composite
def _mutated_labels(draw):
    # a printed label of a few classes, one with two-digit entries, with up
    # to three characters inserted, deleted or replaced
    k, n = draw(st.sampled_from(((2, 4), (3, 3), (4, 3), (4, 5), (6, 2),
                                 (12, 3))))
    spec = draw(st.sampled_from(enumerate_irreps(k, n)))
    text = spec.label()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from((0, 1, 1)))
        text = text[:at] + draw(_PIECES) + text[at + kind:]
    return k, n, spec, text


_CATALOG_SPEC = RepSpec(2, 5, (1, 1, 0, 0, 0), ((2,), (2, 1)))


@settings(max_examples=1000, deadline=None)
@given(_mutated_labels())
@example((2, 5, _CATALOG_SPEC, "chi=(1,1,0,0,0);mu=catalog:2|2+\x1c1"))
@example((2, 5, _CATALOG_SPEC, "chi=(1,1,0,0,0);mu=catalog:2|2+1_0"))
@example((2, 5, _CATALOG_SPEC, "chi=(1,\x1c1,0,0,+0);mu=catalog:2|2+1"))
def test_a_mutated_label_reads_as_the_reference(case):
    # every label reads back as its spec, and a label mutated anywhere,
    # the catalog partitions included, gives the spec or the exception
    # type and message of the field-by-field reference
    k, n, spec, text = case
    got = _parsed(parse_rep_spec, k, n, text)
    assert got == _parsed(reference_parse_rep_spec, k, n, text), text
    if text == spec.label():
        assert got == spec


@pytest.mark.parametrize("k, n, text", [
    # a modulus below 1
    (0, 2, "chi=(1,0);mu=trivial"), (-1, 2, "chi=(1,0);mu=trivial"),
    # one entry too many or too few
    (4, 2, "chi=(1,0,0);mu=trivial"), (4, 2, "chi=(1);mu=sign"),
    (12, 3, "chi=(11,10,9,8);mu=trivial"), (12, 3, "chi=(11,10);mu=trivial"),
    # leading zeros, which no label prints
    (4, 2, "chi=(03,1);mu=trivial"), (4, 2, "chi=(00,0);mu=sign"),
    (12, 3, "chi=(011,1,0);mu=trivial"),
    # entries of k or more, whose level sizes are those of the residues
    (4, 2, "chi=(5,4);mu=trivial"), (4, 2, "chi=(5,1);mu=sign"),
    (4, 2, "chi=(4,0);mu=standard"), (4, 2, "chi=(6,1);mu=standard"),
    (12, 3, "chi=(13,12,1);mu=catalog:2|1"),
    # mu that fails on the level sizes read
    (4, 3, "chi=(3,2,1);mu=standard"), (2, 5, "chi=(1,1,0,0,0);mu=catalog:2"),
    (2, 5, "chi=(1,1,0,0,0);mu=catalog:2|2+2"),
    (2, 5, "chi=(1,1,0,0,0);mu=catalog:2|0+3"),
    (2, 5, "chi=(1,1,0,0,0);mu=catalog:2|3+"),
] + [(2, 5, spec.label()) for spec in enumerate_irreps(2, 5)
     if spec.label().count("catalog:")])
def test_a_label_shaped_text_reads_as_the_reference(k, n, text):
    # texts in the printed grammar, which one match reads, give the spec,
    # or the exception type and message, of the field-by-field reference
    assert _parsed(parse_rep_spec, k, n, text) == _parsed(
        reference_parse_rep_spec, k, n, text)


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"])
def test_a_vector_entry_is_an_ascii_integer(token):
    # int() reads these as 10, 1 and 1; no label prints them
    with pytest.raises(ValueError) as caught:
        parse_rep_spec(4, 2, "chi=(%s,0)" % token)
    assert str(caught.value) == "%r is not an integer" % token


@pytest.mark.parametrize("part", ["", "a", "1+a", "1++2", "9", "0_3",
                                  "1+\u0662"])
def test_catalog_part_that_is_no_partition(part):
    with pytest.raises(ValueError) as caught:
        parse_rep_spec(2, 3, "chi=(1,1,1);mu=catalog:" + part)
    assert str(caught.value) == "%r is not a partition of block size 3" % part

def test_pi_scalar_is_weight_power_of_root():
    for k, n, u in ((2, 3, (1, 1, 1)), (2, 4, (1, 1, 0, 0)),
                    (4, 2, (3, 1)), (6, 3, (3, 3, 3))):
        spec = parse_rep_spec(
            k, n, "chi=(%s)" % ",".join(str(x) for x in u))
        cls = UnmixedClass(k, n)
        assert pi_scalar(spec) == sum(u) % k
        assert root_name(k, pi_scalar(spec)) == str(zeta(k, sum(u) % k))
        assert dense_pi_scalar(resolve(spec), cls) == zeta(k, pi_scalar(spec))


def test_induced_rep_is_a_homomorphism():
    rng = random.Random(41)
    for k, n, text in ((2, 3, "chi=(1,1,1);mu=standard"),
                       (2, 4, "chi=k:1;mu=standard"),
                       (4, 2, "chi=(2,0);mu=trivial"),
                       (3, 2, "chi=(1,0);mu=trivial")):
        cls = UnmixedClass(k, n)
        rho = resolve(parse_rep_spec(k, n, text))
        pool = list(centralizer_elements(cls))
        for _ in range(30):
            g, h = rng.choice(pool), rng.choice(pool)
            lhs = rho.evaluate(cls.normal_form(g * h))
            rhs = rho.evaluate(cls.normal_form(g)) * rho.evaluate(cls.normal_form(h))
            assert lhs == rhs


def test_central_element_acts_by_minus_identity_in_weight_one():
    # chi=(1,...,1) tensor standard at k = 2 sends the basepoint to -Id
    cls = UnmixedClass(2, 5)
    spec = parse_rep_spec(2, 5, "chi=(1,1,1,1,1);mu=standard")
    img = resolve(spec).evaluate(cls.normal_form(cls.basepoint))
    assert img == Matrix.identity(4).scale(MINUS_ONE)
    label = cls.normal_form(cls.basepoint).class_label(2)
    terms = spec.character().coefficients(label)
    assert integer_value(2, terms) == -spec.degree()


def test_rep_images_of_block_products_match_reference():
    # conjugates of the basepoint act by minus the swap images
    cls = UnmixedClass(2, 5)
    rho = resolve(parse_rep_spec(2, 5, "chi=(1,1,1,1,1);mu=standard"))
    phi = sn_irrep(5, "standard")
    b1 = Permutation.from_cycles(5, ((1, 2),))
    b3 = Permutation.from_cycles(5, ((3, 4),))
    pi1 = B(cls, 1) * A(cls, 3) * A(cls, 4) * A(cls, 5)
    pi5 = B(cls, 1) * B(cls, 3) * A(cls, 5)
    assert rho.evaluate(cls.normal_form(pi1)) == phi.matrix(b1).scale(MINUS_ONE)
    assert rho.evaluate(cls.normal_form(pi5)) == (
        phi.matrix(b1) * phi.matrix(b3)).scale(MINUS_ONE)


def test_induced_degree_is_orbit_size_times_factor_degree():
    spec = parse_rep_spec(2, 4, "chi=k:1;mu=standard")
    assert spec.degree() == 8
    rho = resolve(spec)
    cls = UnmixedClass(2, 4)
    img = rho.evaluate(cls.normal_form(cls.basepoint))
    assert img.nrows == 8
    assert spec.character().degree == 8


def test_degree_is_the_listed_orbit_size_times_the_partition_degrees():
    # the orbit size n!/prod m_v! and the level sizes m_v, read off u,
    # against the orbit listed by permuting u and the sizes of its listed
    # stabilizer blocks, on every golden class with n <= 8: the listing
    # makes n! tuples, once per vector u
    for k, n in sorted(DIGESTS):
        if n > 8:
            continue
        listed = {}
        for spec in enumerate_irreps(k, n):
            if spec.u not in listed:
                orbit, stab = orbit_and_stabilizer(GammaCharacter(k, spec.u))
                listed[spec.u] = len(orbit), tuple(map(len, stab.blocks))
            orbit_size, block_sizes = listed[spec.u]
            assert level_sizes(spec.u) == block_sizes, spec.label()
            assert spec.degree() == orbit_size * math.prod(
                partition_degree(p) for p in spec.partitions), spec.label()


def test_parse_rejects_an_empty_vector_entry():
    # "1,,1" used to be read as "1,1"; entries separated by spaces still
    # parse
    with pytest.raises(ValueError, match="empty entry"):
        parse_rep_spec(2, 2, "chi=(1,,1)")
    assert parse_rep_spec(2, 3, "chi=(1 1 0)").u == (1, 1, 0)


def test_parse_rejects_a_modulus_below_one():
    # checked before the entries are reduced mod k, so k = 0 gives this
    # message rather than a ZeroDivisionError
    for k in (0, -2):
        with pytest.raises(ValueError, match="modulus must be positive"):
            parse_rep_spec(k, 2, "chi=(1,0)")


def _sn_classes(m):
    # (cycle type, class size) for every conjugacy class of S_m
    return [(part, class_size(part))
            for part in partitions_of(m)]


def test_murnaghan_nakayama_rows_are_orthonormal():
    for m in range(1, 8):
        classes = _sn_classes(m)
        for lam in partitions_of(m):
            for mu in partitions_of(m):
                inner = sum(Fraction(size * sn_character(lam, ct) * sn_character(mu, ct),
                                     math.factorial(m)) for ct, size in classes)
                assert inner == (1 if lam == mu else 0), (lam, mu)


def test_character_degree_is_hook_length_degree():
    for m in range(1, 9):
        for lam in partitions_of(m):
            assert sn_character(lam, (1,) * m) == partition_degree(lam)
        assert all(sn_character((m,), ct) == 1 for ct in partitions_of(m))
    for k, n in ((2, 6), (3, 3), (4, 4), (6, 2)):
        cls = UnmixedClass(k, n)
        identity = cls.normal_form(Permutation.identity(k * n))
        for spec in enumerate_irreps(k, n):
            assert character_value(spec.character(), identity) == rational(spec.degree())


def _gamma_entries(cls):
    # the power subrack is no candidate, but `diagram --subrack powers`
    # draws it at n = 1
    subracks = tried_subracks(cls)
    if cls.n == 1:
        subracks.append(powers_subrack(cls))
    for subrack in subracks:
        for i in range(subrack.size):
            for j in range(subrack.size):
                yield gamma(subrack, i, j)


def test_induced_character_is_trace_of_oracle_matrix():
    compared = 0
    for k, n in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (4, 1), (4, 2),
                 (4, 3), (6, 2), (8, 2)):
        cls = UnmixedClass(k, n)
        entries = [cls.normal_form(g) for g in dict.fromkeys(_gamma_entries(cls))]
        assert entries
        for spec in enumerate_irreps(k, n):
            if not cataloged(spec):
                continue
            rho = resolve(spec)
            character = spec.character()
            for nf in entries:
                assert character_value(character, nf) == rho.evaluate(nf).trace(), (
                    k, n, spec.label(), str(nf))
                compared += 1
    assert compared > 1000


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_labels_parse_back_to_their_spec(data):
    k = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(1, 5))
    specs = enumerate_irreps(k, n)
    spec = specs[data.draw(st.integers(0, len(specs) - 1))]
    assert parse_rep_spec(k, n, spec.label()) == spec
    assert parse_rep_spec(k, n, str(spec)) == spec


def _product(k: int, x: tuple, y: tuple) -> list:
    # the product of two values over Z/k as terms
    return [((a + b) % k, c * e) for a, c in x for b, e in y]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_negativity_identity_matches_the_field(data):
    # |chi(x)| <= degree, with equality exactly when rho(x) is scalar, so
    # chi(x) chi(y) = degree^2 exactly when x and y act by roots of unity
    # whose product is 1, which the field reads off the values; a power of
    # the basepoint is central, so it and its inverse always pass
    k = data.draw(st.sampled_from((2, 3, 4, 5, 6, 8, 10, 12)))
    n = data.draw(st.integers(1, 3))
    specs = enumerate_irreps(k, n)
    spec = specs[data.draw(st.integers(0, len(specs) - 1))]
    if data.draw(st.booleans()):
        c = data.draw(st.integers(0, k - 1))
        x = NormalForm((c,) * n, tuple(range(1, n + 1)))
        y = NormalForm(((-c) % k,) * n, tuple(range(1, n + 1)))
    else:
        x, y = (NormalForm(
            tuple(data.draw(st.integers(0, k - 1)) for _ in range(n)),
            tuple(data.draw(st.permutations(range(1, n + 1)))))
            for _ in range(2))
    character = spec.character()
    degree = spec.degree()
    lam, mu = ((character_value(character, nf) * Fraction(1, degree))
               .as_root_of_unity() for nf in (x, y))
    expected = lam is not None and mu is not None and lam * mu == ROOT_ONE
    product = _product(k, character.coefficients(x.class_label(k)),
                       character.coefficients(y.class_label(k)))
    square = degree ** 2
    assert (integer_value(k, product) == square) == expected, (
        spec.label(), str(x), str(y))


def test_alike_cycles_counted_by_multinomials_match_every_placement():
    # the labels of every element of H on every candidate subrack, listed
    # by the reference closure (a decision reads those of the coset
    # representatives of <pi> and of pi), and those of the partner classes
    # and their duals.  (6,2), (6,4), (8,3), (10,3) and (12,2) are classes
    # where many vectors u share level sizes and so read one table of
    # placements with different values
    pairs = 0
    for k, n in ((2, 6), (4, 4), (6, 3), (8, 2), (2, 7), (4, 5), (2, 8),
                 (3, 4), (10, 2), (6, 2), (6, 4), (8, 3), (10, 3), (12, 2)):
        plan = class_plan(k, n)
        labels = set()
        for subrack_plan in plan.plans():
            labels.update(permutation_spectrum_plan(
                plan.cls, subrack_plan.distinct).labels)
        for partner in plan.partners():
            labels.update((partner.label, partner.dual))
        for spec in enumerate_irreps(k, n):
            character = spec.character()
            for label in sorted(labels):
                assert (character.coefficients(label)
                        == coefficients_by_placements(character, label)), (
                    k, n, spec.label(), label)
                pairs += 1
    assert pairs == 65799


@st.composite
def _specs_and_labels(draw):
    # any spec, and any sorted (L, s) label: each b-cycle of length L with
    # any coordinate sum s; few sums, so alike pairs repeat often
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    spec = draw(st.sampled_from(enumerate_irreps(k, n)))
    lengths = draw(st.sampled_from(partitions_of(n)))
    sums = st.integers(0, draw(st.integers(0, k - 1)))
    label = tuple(sorted((length, draw(sums)) for length in lengths))
    return spec, label


@settings(max_examples=300, deadline=None)
@given(_specs_and_labels())
# one alike pair four times over; the standard character of S_3 vanishes
# at a transposition, so one term of the split drops out; a zero value
@example((RepSpec(2, 6, (1, 1, 1, 0, 0, 0), ((2, 1), (3,))),
          ((1, 0), (1, 0), (1, 0), (1, 0), (2, 1))))
@example((RepSpec(2, 3, (1, 1, 1), ((2, 1),)), ((1, 0), (2, 1))))
def test_split_character_matches_every_placement(case):
    # the placements cached per (level sizes, label), read with the values
    # of u as phases and times the partition characters of each tuple of
    # cycle types, against placing every cycle one at a time
    spec, label = case
    character = spec.character()
    assert (character.coefficients(label)
            == coefficients_by_placements(character, label)), (
        spec.label(), label)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_character_turns_with_the_basepoint(data):
    # chi(pi^e h) = zeta_k^(q e) chi(h), q = pi_scalar, as terms, each
    # exponent moved by q e: the label of pi^e h moves each (L, s) of h's to
    # (L, s + e L), so each level's twist sum S_i moves by e m_i and the
    # phase sum_i v_i S_i by e sum(u) = e q (oracles.rotation_defects).
    # planned_spectrum and the witness check read chi at the coset
    # representatives of <pi> only and rest on this.  Any spec and any
    # sorted (L, s) label
    spec, label = data.draw(_specs_and_labels())
    k = spec.k
    e = data.draw(st.integers(0, 2 * k))
    moved = tuple(sorted((length, (s + e * length) % k)
                         for length, s in label))
    character = spec.character()
    value = character.coefficients(label)
    shift = pi_scalar(spec) * e
    assert character.coefficients(moved) == tuple(sorted(
        ((a + shift) % k, c) for a, c in value)), (
        spec.label(), label, e)


@pytest.mark.parametrize("k,n", sorted(DIGESTS))
def test_the_character_turns_with_the_basepoint_on_every_planned_h(k, n):
    # the same identity at every element of H on each candidate subrack of
    # the golden grid, for every irrep: H listed by the reference closure,
    # each element pi^e r against its coset representative r
    plan = class_plan(k, n)
    groups = [permutation_spectrum_plan(plan.cls,
                                        subrack_plan.distinct).labels
              for subrack_plan in plan.plans()]
    for spec in enumerate_irreps(k, n):
        character = spec.character()
        for labels in groups:
            assert not rotation_defects(character, pi_scalar(spec),
                                        labels), spec.label()
