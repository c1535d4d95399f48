import random

import pytest

from nichols.exactfield import (Cyclotomic, MINUS_ONE, ONE, ZERO,
                                cyclotomic_polynomial, degree_of_field,
                                rational, zeta)


def _random_elements(rng, count):
    out = []
    for _ in range(count):
        m = rng.choice((1, 2, 3, 4, 6, 8, 12))
        x = rational(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            x = x + rational(rng.randint(-2, 2)) * zeta(m, rng.randint(0, m - 1))
        out.append(x)
    return out


def test_field_axioms_on_random_elements():
    rng = random.Random(2024)
    xs = _random_elements(rng, 12)
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            for c in xs[:4]:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
    for a in xs:
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        if a != ZERO:
            assert a * a.inverse() == ONE


def test_root_of_unity_powers_and_order():
    for m in (2, 3, 4, 5, 6, 8, 12):
        z = zeta(m)
        acc = ONE
        for _ in range(1, m):
            acc = acc * z
            assert acc != ONE
        assert acc * z == ONE
        assert z ** m == ONE
        root = z.as_root_of_unity()
        assert root is not None
        assert root.order() == m


def test_zeta_satisfies_its_cyclotomic_polynomial():
    for m in (1, 2, 3, 4, 6, 8, 9, 10, 12, 15):
        poly = cyclotomic_polynomial(m)
        z = zeta(m)
        acc = ZERO
        power = ONE
        for coeff in poly:
            acc = acc + rational(coeff) * power
            power = power * z
        assert acc == ZERO
        assert len(poly) - 1 == degree_of_field(m)


def test_sum_of_all_roots_vanishes():
    for m in (2, 3, 4, 6, 8, 12):
        total = ZERO
        for a in range(m):
            total = total + zeta(m, a)
        assert total == ZERO


def test_minus_one_constant():
    assert MINUS_ONE == zeta(2, 1)
    assert MINUS_ONE * MINUS_ONE == ONE
    assert MINUS_ONE + ONE == ZERO


def test_mixed_order_arithmetic_lands_in_common_field():
    x = zeta(4) * zeta(6)
    root = x.as_root_of_unity()
    assert root is not None
    assert root.order() == 12
    assert x ** 12 == ONE
    assert x ** 6 == MINUS_ONE


def test_negative_powers_and_division():
    z = zeta(8, 3)
    assert z ** -1 == z.inverse()
    assert z ** -3 == (z ** 3).inverse()
    assert (ONE / z) * z == ONE
    assert z / z == ONE


def test_rational_detection():
    assert rational(5, 3).is_rational()
    assert not zeta(3).is_rational()
    assert (zeta(3) + zeta(3, 2)).as_rational() == -1
    assert zeta(6, 3).as_rational() == -1


def test_non_root_has_no_root_form():
    x = ONE + zeta(4)
    assert x.as_root_of_unity() is None


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_galois_conjugation_fixes_rationals_and_permutes_roots():
    z = zeta(5)
    for a in (1, 2, 3, 4):
        img = z.galois(a)
        assert img == zeta(5, a)
    assert rational(7).galois(3) == rational(7)


def test_complex_conjugate_inverts_roots():
    for m in (3, 4, 6, 8):
        z = zeta(m)
        assert z.conjugate() == z.inverse()
    mix = rational(2) + zeta(6)
    assert mix.conjugate().conjugate() == mix


# property tests

from math import gcd  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from nichols.exactfield import RootOfUnity  # noqa: E402

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)
UNITS = tuple(t for t in range(1, 120) if gcd(t, 120) == 1)
# pairs have lcm at most 120, which keeps the products' fields small
ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15)


@st.composite
def elements(draw):
    # sum of c_i zeta_m^i over all i < m, so the reduction is exercised
    m = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                           min_size=m, max_size=m))
    x = ZERO
    for i, c in enumerate(coeffs):
        x = x + rational(c.numerator, c.denominator) * zeta(m, i)
    return x


def _at_conductor(x, big):
    # the same value computed in Q(zeta_big): add and remove zeta_big
    z = zeta(big)
    return (x + z) - z


@settings(max_examples=150, deadline=None)
@given(elements(), st.sampled_from(CONDUCTORS))
def test_equal_elements_hash_equally(x, big):
    y = _at_conductor(x, big)
    assert y == x
    assert hash(y) == hash(x)
    assert y.canonical() == x.canonical()
    if x.is_rational():
        assert hash(x) == hash(x.as_rational())


@settings(max_examples=100, deadline=None)
@given(elements(), elements(), elements())
def test_field_axioms_hold(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO
    if a:
        assert a * a.inverse() == ONE


@settings(max_examples=100, deadline=None)
@given(elements(), elements(), st.sampled_from(UNITS))
def test_galois_is_a_ring_homomorphism(a, b, t):
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert ONE.galois(t) == ONE
    assert a.galois(1) == a


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDERS), st.integers(-50, 50),
       st.sampled_from(ORDERS), st.integers(-50, 50))
def test_root_of_unity_labels_agree_with_field_elements(m, a, p, b):
    r, s = RootOfUnity(m, a), RootOfUnity(p, b)
    assert str(r) == str(zeta(m, a))
    assert r == zeta(m, a) and hash(r) == hash(zeta(m, a))
    assert r.order() == zeta(m, a).as_root_of_unity().order()
    assert (r * s).value() == zeta(m, a) * zeta(p, b)
    assert str(r * s) == str(zeta(m, a) * zeta(p, b))
    assert r.inverse().value() == zeta(m, a).inverse()
    assert str(r.inverse()) == str(zeta(m, a).inverse())
