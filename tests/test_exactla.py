import random

import pytest

from nichols.exactfield import MINUS_ONE, ONE, ZERO, rational, zeta
from nichols.exactla import (Matrix, kernel, kron, rref,
                             eigenspaces_finite_order)

from oracles import NonCommutingError, simultaneous_diagonalize


def _rand_matrix(rng, n):
    return Matrix([[rational(rng.randint(-3, 3)) for _ in range(n)]
                   for _ in range(n)])


def test_matrix_ring_identities():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 4)
        a, b, c = (_rand_matrix(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * Matrix.identity(n) == a
        assert (a * b).transpose() == b.transpose() * a.transpose()


def test_apply_matches_column_action():
    m = Matrix([[rational(1), rational(2)], [rational(3), rational(4)]])
    vec = (rational(5), rational(7))
    assert m.apply(vec) == (rational(19), rational(43))


def test_scalar_detection():
    assert Matrix.identity(3).scale(MINUS_ONE).is_scalar() == MINUS_ONE
    assert Matrix.identity(1).is_scalar() == ONE
    mixed = Matrix([[ONE, ZERO], [ZERO, MINUS_ONE]])
    assert mixed.is_scalar() is None
    assert Matrix.identity(2).is_identity()


def test_kron_dimensions_and_values():
    a = Matrix([[rational(2)]])
    b = Matrix([[ONE, ZERO], [ZERO, MINUS_ONE]])
    k = kron(a, b)
    assert k.shape == (2, 2)
    assert k.rows[1][1] == rational(-2)
    c = Matrix([[ZERO, ONE], [ONE, ZERO]])
    assert kron(b, c) * kron(b, c) == Matrix.identity(4)


def test_rref_and_kernel():
    m = Matrix([[rational(1), rational(2), rational(3)],
                [rational(2), rational(4), rational(6)]])
    basis = kernel(m)
    assert len(basis) == 2
    for vec in basis:
        assert m.apply(vec) == (ZERO, ZERO)
    reduced, pivots = rref(m)
    assert pivots == (0,)
    assert reduced.rows[0][0] == ONE


def test_eigenspaces_of_finite_order_operator():
    # a transposition-like swap has eigenvalues 1 and -1
    swap = Matrix([[ZERO, ONE], [ONE, ZERO]])
    dec = eigenspaces_finite_order(swap, 2)
    assert set(dec.eigenvalues()) == {ONE, MINUS_ONE}
    assert dec.dimension() == 2
    for val, vecs in dec.spaces:
        for vec in vecs:
            assert swap.apply(vec) == tuple(val * x for x in vec)


def test_eigenspaces_cover_the_whole_space():
    z = zeta(3)
    m = Matrix([[ZERO, ZERO, ONE],
                [ONE, ZERO, ZERO],
                [ZERO, ONE, ZERO]])
    dec = eigenspaces_finite_order(m, 3)
    assert dec.dimension() == 3
    assert set(dec.eigenvalues()) == {ONE, z, z * z}


def test_simultaneous_diagonalize_on_commuting_family():
    swap = Matrix([[ZERO, ONE], [ONE, ZERO]])
    flip = Matrix([[MINUS_ONE, ZERO], [ZERO, MINUS_ONE]])
    basis, table = simultaneous_diagonalize([swap, flip], [2, 2])
    assert len(basis) == 2
    for i, op in enumerate((swap, flip)):
        for s, vec in enumerate(basis):
            assert op.apply(vec) == tuple(table[i][s] * x for x in vec)


def test_simultaneous_diagonalize_rejects_non_commuting():
    a = Matrix([[ZERO, ONE], [ONE, ZERO]])
    b = Matrix([[ONE, ZERO], [ZERO, MINUS_ONE]])
    assert a * b != b * a
    with pytest.raises(NonCommutingError):
        simultaneous_diagonalize([a, b], [2, 2])


def test_simultaneous_diagonalize_splits_joint_eigenspaces():
    # block operators that only a joint basis separates
    a = Matrix([[ZERO, ONE, ZERO, ZERO],
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, ZERO, ZERO, ONE],
                [ZERO, ZERO, ONE, ZERO]])
    b = Matrix([[ZERO, ZERO, ONE, ZERO],
                [ZERO, ZERO, ZERO, ONE],
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, ONE, ZERO, ZERO]])
    assert a * b == b * a
    basis, table = simultaneous_diagonalize([a, b], [2, 2])
    assert len(basis) == 4
    seen = set()
    for s in range(4):
        pair = (table[0][s], table[1][s])
        seen.add(pair)
        for i, op in enumerate((a, b)):
            vec = basis[s]
            assert op.apply(vec) == tuple(table[i][s] * x for x in vec)
    assert seen == {(ONE, ONE), (ONE, MINUS_ONE), (MINUS_ONE, ONE),
                    (MINUS_ONE, MINUS_ONE)}
