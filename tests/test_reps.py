import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nichols.exactfield import MINUS_ONE, ONE, ROOT_MINUS_ONE, rational, zeta
from nichols.exactla import Matrix
from nichols.permgroup import CycleType, Permutation, UnmixedClass
from nichols.reps import (enumerate_irreps, parse_rep_spec, partition_degree,
                          partitions_of, pi_scalar, sn_character)
from nichols.verdict import candidate_subracks

from oracles import (CatalogGapError, catalog_covers, cataloged,
                     dense_pi_scalar, resolve, sn_irrep)


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
            ONE if p.sign() == 1 else MINUS_ONE)


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
    assert spec.character().value(identity) == rational(5)


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


def test_parse_shorthand_and_canonicalization():
    spec = parse_rep_spec(2, 4, "chi=k:1;mu=standard")
    assert spec.u == (1, 0, 0, 0)
    assert parse_rep_spec(2, 4, "chi=(0,1,0,0);mu=standard") == spec
    assert parse_rep_spec(2, 4, "chi=2:1;mu=standard") == spec
    for text in ("chi=2:5", "chi=2:-1", "chi=2:x", "chi=3:1"):
        with pytest.raises(ValueError):
            parse_rep_spec(2, 4, text)
    assert parse_rep_spec(3, 2, "chi=(1,2)").u == (2, 1)
    with pytest.raises(ValueError):
        parse_rep_spec(3, 2, "chi=k:1")
    with pytest.raises(ValueError):
        parse_rep_spec(2, 3, "chi=(1,1)")
    with pytest.raises(ValueError):
        parse_rep_spec(2, 3, "chi=(1,1,1);mu=nonsense")
    with pytest.raises(ValueError):
        parse_rep_spec(2, 3, "tau=(1,1,1)")


def test_pi_scalar_is_weight_power_of_root():
    for k, n, u in ((2, 3, (1, 1, 1)), (2, 4, (1, 1, 0, 0)),
                    (4, 2, (3, 1)), (6, 3, (3, 3, 3))):
        spec = parse_rep_spec(
            k, n, "chi=(%s)" % ",".join(str(x) for x in u))
        cls = UnmixedClass(k, n)
        assert pi_scalar(spec) == zeta(k, sum(u) % k)
        assert str(pi_scalar(spec)) == str(zeta(k, sum(u) % k))
        assert dense_pi_scalar(resolve(spec), cls) == zeta(k, sum(u) % k)


def test_induced_rep_is_a_homomorphism():
    rng = random.Random(41)
    for k, n, text in ((2, 3, "chi=(1,1,1);mu=standard"),
                       (2, 4, "chi=k:1;mu=standard"),
                       (4, 2, "chi=(2,0);mu=trivial"),
                       (3, 2, "chi=(1,0);mu=trivial")):
        cls = UnmixedClass(k, n)
        rho = resolve(parse_rep_spec(k, n, text))
        pool = list(cls.centralizer_elements())
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
    assert spec.character().scalar(cls.normal_form(cls.basepoint)) == ROOT_MINUS_ONE


def test_rep_images_of_block_products_match_reference():
    # conjugates of the basepoint act by minus the swap images
    cls = UnmixedClass(2, 5)
    rho = resolve(parse_rep_spec(2, 5, "chi=(1,1,1,1,1);mu=standard"))
    phi = sn_irrep(5, "standard")
    b1 = Permutation.from_cycles(5, ((1, 2),))
    b3 = Permutation.from_cycles(5, ((3, 4),))
    pi1 = cls.B(1) * cls.A(3) * cls.A(4) * cls.A(5)
    pi5 = cls.B(1) * cls.B(3) * cls.A(5)
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


def _sn_classes(m):
    # (cycle type, class size) for every conjugacy class of S_m
    return [(part, CycleType.from_lengths(part).class_size())
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
            assert spec.character().value(identity) == rational(spec.degree())


def _gamma_entries(cls):
    for subrack in candidate_subracks(cls):
        for i in range(subrack.size):
            for j in range(subrack.size):
                yield subrack.gamma(i, j)


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
                assert character.value(nf) == rho.evaluate(nf).trace(), (
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
