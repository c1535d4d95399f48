import itertools
import math
import random

import pytest

from nichols.permgroup import Permutation, UnmixedClass, dual_label

from oracles import (A, B, centralizer_elements, centralizer_generators,
                     class_elements, class_size, conjugate, in_centralizer,
                     permutation_order, sign, transporter)


def test_permutation_composition_and_inverse():
    rng = random.Random(11)
    for _ in range(50):
        deg = rng.randint(1, 9)
        imgs = list(range(1, deg + 1))
        rng.shuffle(imgs)
        p = Permutation(imgs)
        imgs2 = list(range(1, deg + 1))
        rng.shuffle(imgs2)
        q = Permutation(imgs2)
        assert (p * q).inverse() == q.inverse() * p.inverse()
        assert p * p.inverse() == Permutation.identity(deg)
        for x in range(1, deg + 1):
            assert (p * q)(x) == p(q(x))


def test_permutation_order_matches_lcm_of_cycles():
    p = Permutation.from_cycles(8, ((1, 2, 3), (4, 5)))
    assert permutation_order(p) == 6
    assert p.cycle_type() == (1, 1, 1, 2, 3)
    assert sign(p) == -1
    assert sign(Permutation.from_cycles(4, ((1, 2),))) == -1


def test_conjugation_preserves_cycle_type():
    rng = random.Random(5)
    for _ in range(30):
        deg = rng.randint(2, 8)
        imgs = list(range(1, deg + 1))
        rng.shuffle(imgs)
        h = Permutation(imgs)
        rng.shuffle(imgs)
        g = Permutation(imgs)
        assert h.conjugated_by(g).cycle_type() == h.cycle_type()
        assert h.conjugated_by(g) == g * h * g.inverse()


def test_commutes_with():
    a = Permutation.from_cycles(4, ((1, 2),))
    b = Permutation.from_cycles(4, ((3, 4),))
    c = Permutation.from_cycles(4, ((2, 3),))
    assert a.commutes_with(b)
    assert not a.commutes_with(c)


def test_class_size_and_centralizer_order():
    for k, n in ((2, 2), (2, 3), (3, 2), (4, 2)):
        cls = UnmixedClass(k, n)
        expected = math.factorial(k * n) // (k ** n * math.factorial(n))
        assert class_size(cls.cycle_type()) == expected
        assert cls.centralizer_order() == k ** n * math.factorial(n)
        assert len(class_elements(cls)) == expected


def test_conjugacy_class_matches_brute_force():
    cls = UnmixedClass(2, 2)
    brute = {
        Permutation(imgs) for imgs in itertools.permutations(range(1, 5))
        if Permutation(imgs).cycle_type() == cls.cycle_type()}
    assert set(class_elements(cls)) == brute


def test_basepoint_is_product_of_block_cycles():
    cls = UnmixedClass(4, 3)
    prod = Permutation.identity(12)
    for j in range(1, 4):
        prod = prod * A(cls, j)
    assert cls.basepoint == prod
    assert A(cls, 1) == Permutation.from_cycles(12, ((1, 2, 3, 4),))
    assert A(cls, 3) == Permutation.from_cycles(12, ((9, 10, 11, 12),))


def test_block_swap_involution_conjugates_blocks():
    cls = UnmixedClass(3, 2)
    b = B(cls, 1)
    assert permutation_order(b) == 2
    assert conjugate(b, A(cls, 1)) == A(cls, 2)
    assert conjugate(b, A(cls, 2)) == A(cls, 1)


def test_normal_form_round_trip_over_full_centralizer():
    for k, n in ((2, 3), (3, 2), (4, 2)):
        cls = UnmixedClass(k, n)
        seen = set()
        for g in centralizer_elements(cls):
            nf = cls.normal_form(g)
            assert cls.assemble(nf) == g
            assert type(nf.d) is type(nf.b) is tuple
            assert all(0 <= d < k for d in nf.d)
            seen.add(g)
        assert len(seen) == cls.centralizer_order()


def _label(cls, nf):
    return tuple(sorted((len(c), sum(nf.d[j - 1] for j in c) % cls.k)
                        for c in Permutation(nf.b).cycles(include_fixed=True)))


def _conjugation_orbits(cls, elements):
    gens = centralizer_generators(cls)
    left = set(elements)
    orbits = []
    while left:
        orbit = {min(left)}
        frontier = list(orbit)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = conjugate(g, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        left -= orbit
        orbits.append(orbit)
    return orbits


def test_partner_classes_match_the_centralizer_walk():
    grids = [(2, n) for n in range(1, 7)] + [(3, 3)] + \
        [(4, n) for n in range(1, 5)] + [(6, 2), (6, 3), (8, 2)]
    for k, n in grids:
        cls = UnmixedClass(k, n)
        classes = cls.partner_classes()
        reps = [cls.assemble(pc.representative) for pc in classes]
        assert all(t.cycle_type() == cls.cycle_type() for t in reps)
        labels = [_label(cls, pc.representative) for pc in classes]
        assert labels == [pc.label for pc in classes]
        assert len(set(labels)) == len(labels)
        partners = [h for h in centralizer_elements(cls)
                    if h != cls.basepoint and h.cycle_type() == cls.cycle_type()]
        assert sum(pc.size for pc in classes) == len(partners), (k, n)
        # the labels are the centralizer's conjugacy classes: each orbit
        # holds exactly one representative and has the class's size
        orbits = _conjugation_orbits(cls, partners)
        assert len(orbits) == len(classes), (k, n)
        for pc, t in zip(classes, reps):
            orbit = next(o for o in orbits if t in o)
            assert len(orbit) == pc.size, (k, n, pc.label)
    assert sum(pc.size for pc in UnmixedClass(4, 5).partner_classes()) == 4671
    assert sum(pc.size for pc in UnmixedClass(2, 7).partner_classes()) == 1302


def test_normal_form_rejects_non_centralizing_elements():
    cls = UnmixedClass(2, 2)
    outsider = Permutation.from_cycles(4, ((2, 3),))
    assert not in_centralizer(cls, outsider)
    with pytest.raises(ValueError):
        cls.normal_form(outsider)


def test_normal_form_multiplicativity():
    # (d, b) pairs compose like the semidirect product they encode
    cls = UnmixedClass(3, 3)
    rng = random.Random(3)
    pool = list(centralizer_elements(cls))
    identity = cls.identity_form()
    assert identity == cls.normal_form(Permutation.identity(cls.degree))
    for _ in range(40):
        g, h = rng.choice(pool), rng.choice(pool)
        ng, nh = cls.normal_form(g), cls.normal_form(h)
        nm = cls.normal_form(g * h)
        assert cls.product(ng, nh) == nm
        assert cls.product(identity, ng) == ng == cls.product(ng, identity)
        assert Permutation(nm.b) == Permutation(ng.b) * Permutation(nh.b)
        binv = Permutation(ng.b).inverse()
        for j in range(1, cls.n + 1):
            assert nm.d[j - 1] == (ng.d[j - 1] + nh.d[binv(j) - 1]) % cls.k


def test_transporter_sends_basepoint_to_target():
    for k, n in ((2, 3), (3, 2), (4, 2)):
        cls = UnmixedClass(k, n)
        for t in class_elements(cls):
            g = transporter(cls, t)
            assert conjugate(g, cls.basepoint) == t


def test_transporter_rejects_wrong_type():
    cls = UnmixedClass(2, 2)
    with pytest.raises(ValueError):
        transporter(cls, Permutation.from_cycles(4, ((1, 2, 3),)))


def test_dual_label_is_the_label_of_the_pulled_back_basepoint():
    # every partner class with k^n <= 10^6: the closed form against the
    # class label of g^-1 pi g, g a transporter of the representative
    compared = 0
    for k in range(2, 13):
        for n in range(1, 7):
            if k ** n > 10 ** 6:
                continue
            cls = UnmixedClass(k, n)
            pi = cls.basepoint
            for pc in cls.partner_classes():
                g = transporter(cls, cls.assemble(pc.representative))
                pulled_back = cls.normal_form(conjugate(g.inverse(), pi))
                assert pc.dual == dual_label(k, pc.label)
                assert pc.dual == pulled_back.class_label(k), (k, n, pc.label)
                compared += 1
    assert compared == 6708


def test_sigma_pairs_conjugate_basepoint_into_commuting_partners():
    cls = UnmixedClass(2, 5)
    pi = cls.basepoint
    for l in range(1, cls.n // 2 + 1):
        for g in (cls.sigma_plus(l), cls.sigma_minus(l)):
            t = conjugate(g, pi)
            assert t != pi
            assert t.commutes_with(pi)
            assert t.cycle_type() == pi.cycle_type()
    a = conjugate(cls.sigma_plus(1), pi)
    b = conjugate(cls.sigma_minus(1), pi)
    assert a != b
    assert a.commutes_with(b)


def test_canonical_involutions_move_pi_to_inverse_and_swap():
    # one test id over several classes and every block pair i < j
    for k, n in ((4, 2), (4, 3), (6, 3), (8, 2)):
        cls = UnmixedClass(k, n)
        pi = cls.basepoint
        sigma = cls.sigma_reflect()
        assert conjugate(sigma, pi) == pi.inverse()
        for j in range(1, n + 1):
            # sigma_block(j) inverts the cycle of block j, fixes every
            # point of the other blocks, and is an involution
            reflect = cls.sigma_block(j)
            turns = [k - 1 if blk == j else 1 for blk in range(1, n + 1)]
            assert conjugate(reflect, pi) == cls.twist(turns)
            assert all(reflect(cls.point(blk, h)) == cls.point(blk, h)
                       for blk in range(1, n + 1) if blk != j
                       for h in range(1, k + 1))
            assert reflect * reflect == Permutation.identity(cls.degree)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            swap, swapinv = cls.sigma_swap(i, j), cls.sigma_swapinv(i, j)
            mixed = pi * cls.block_swap(i, j)
            assert conjugate(swap, pi) == mixed, (k, n, i, j)
            assert conjugate(swapinv, pi) == mixed.inverse(), (k, n, i, j)
            assert mixed.cycle_type() == pi.cycle_type()
            assert cls.sigma_block(i, j) == cls.sigma_block(i) * cls.sigma_block(j)


def test_twist_produces_class_member_commuting_with_basepoint():
    cls = UnmixedClass(6, 3)
    t = cls.twist((5, 1, 1))
    assert t.cycle_type() == cls.cycle_type()
    assert t.commutes_with(cls.basepoint)


def test_conjugacy_class_helper_agrees_with_unmixed_class():
    # the class listed by the oracle against every permutation of S_6 of
    # the class's cycle type
    cls = UnmixedClass(2, 3)
    listed = class_elements(cls)
    brute = [imgs for imgs in itertools.permutations(range(1, 7))
             if Permutation(imgs).cycle_type() == cls.cycle_type()]
    assert sorted(t.img for t in listed) == sorted(brute)
