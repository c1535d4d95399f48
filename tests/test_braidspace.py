import itertools
import random
import time

import pytest

from nichols.braidspace import (AbelianSubrack, GeneralizedDynkinDiagram,
                                canonical_subrack, diagonal_subspace,
                                dynkin_diagram, powers_subrack,
                                quadruple_subrack, rotation_subrack,
                                triple_subrack)
from nichols.exactfield import MINUS_ONE, ONE, RootOfUnity
from nichols.permgroup import Permutation, UnmixedClass, conjugate
from nichols.reps import enumerate_irreps, parse_rep_spec
from nichols.verdict import candidate_subracks

from oracles import (REFERENCE_Q_ROTATION_EDGELESS, REFERENCE_Q_SIX_CYCLE,
                     cataloged, dense_columns, q_matches_up_to_permutation,
                     resolve)


def _q_strings(space):
    verts = space.vertices
    return [[str(space.q(a, b)) for b in verts] for a in verts]


def test_subrack_rejects_non_commuting_elements():
    cls = UnmixedClass(2, 3)
    pi = cls.basepoint
    t = Permutation.from_cycles(6, ((1, 6), (2, 3), (4, 5)))
    assert t.cycle_type() == cls.cycle_type()
    assert not pi.commutes_with(t)
    with pytest.raises(ValueError):
        AbelianSubrack(cls, (pi, t),
                       (Permutation.identity(6), cls.transporter(t)))


def test_subrack_rejects_wrong_transporter():
    cls = UnmixedClass(2, 3)
    pi = cls.basepoint
    t = conjugate(cls.sigma_plus(1), pi)
    with pytest.raises(ValueError):
        AbelianSubrack(cls, (pi, t),
                       (Permutation.identity(6), Permutation.identity(6)))


def test_subrack_gamma_diagonal_is_basepoint():
    cls = UnmixedClass(2, 5)
    sub = canonical_subrack(cls)
    for j in range(sub.size):
        assert sub.gamma(j, j) == cls.basepoint
    for i in range(sub.size):
        for j in range(sub.size):
            g = sub.gamma(i, j)
            assert g.cycle_type() == cls.cycle_type()
            assert cls.in_centralizer(g)


def test_canonical_subrack_matches_reference_element_list():
    # the nine commuting conjugates of the basepoint for five 2-blocks
    cls = UnmixedClass(2, 5)
    sub = canonical_subrack(cls)
    a = cls.A
    b = cls.B
    pi = cls.basepoint
    expected = {
        pi,
        b(1) * a(3) * a(4) * a(5),
        pi * b(1),
        a(1) * a(2) * b(3) * a(5),
        pi * b(3),
        b(1) * b(3) * a(5),
        b(1) * a(3) * a(4) * b(3) * a(5),
        a(1) * a(2) * b(1) * b(3) * a(5),
        a(1) * a(2) * b(1) * a(3) * a(4) * b(3) * a(5),
    }
    assert set(sub.elements) == expected
    assert sub.elements[0] == pi
    assert sub.size == 9


def test_triple_subrack_is_prefix_of_canonical():
    cls = UnmixedClass(2, 5)
    tri = triple_subrack(cls, 1)
    assert tri.size == 3
    assert tri.elements[0] == cls.basepoint
    assert set(tri.elements) <= set(canonical_subrack(cls).elements)


def test_quadruple_subrack_elements_commute_pairwise():
    cls = UnmixedClass(4, 2)
    for sub in (quadruple_subrack(cls, 1, 2), rotation_subrack(cls)):
        for i in range(sub.size):
            for j in range(sub.size):
                assert sub.elements[i].commutes_with(sub.elements[j])
                assert conjugate(sub.transporters[j], cls.basepoint) == sub.elements[j]


def test_powers_subrack_lists_coprime_powers():
    cls = UnmixedClass(6, 1)
    sub = powers_subrack(cls)
    assert sub.size == 2
    orders = {t.order() for t in sub.elements}
    assert orders == {6}


def test_diagonal_subspace_vertices_are_genuine_eigenvectors():
    # the q-value of ((i, r), (j, s)) is the eigenvalue of the (i, j)
    # conjugation image on eigenvector s of column j; re-check it on the
    # dense oracle's eigenvector s by direct matrix application
    for k, n, text, builder in (
            (2, 3, "chi=(1,1,1);mu=standard", lambda c: triple_subrack(c, 1)),
            (2, 4, "chi=k:1;mu=standard", lambda c: triple_subrack(c, 2)),
            (4, 2, "chi=(2,0);mu=trivial", lambda c: quadruple_subrack(c, 1, 2)),
            (6, 3, "chi=(1,1,1);mu=sign", lambda c: rotation_subrack(c))):
        cls = UnmixedClass(k, n)
        spec = parse_rep_spec(k, n, text)
        rho = resolve(spec)
        sub = builder(cls)
        space = diagonal_subspace(sub, spec.character())
        columns = dense_columns(sub, rho)
        assert space.size > 0
        for (j, s) in space.vertices:
            basis, _ = columns[j]
            vec = basis[s]
            for i in range(sub.size):
                image = rho.evaluate(cls.normal_form(sub.gamma(i, j)))
                val = space.q((i, space.vertices[0][1]), (j, s)).value()
                assert image.apply(vec) == tuple(val * x for x in vec)


def test_character_path_table_matches_dense_oracle():
    # same eigenvalues in the same order as simultaneous diagonalization of
    # the oracle's matrices, on every candidate subrack of every cataloged
    # rep, plus the full canonical subrack that `diagram` can draw
    started = time.monotonic()
    compared = 0
    for k, n in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (4, 1), (4, 2),
                 (4, 3), (6, 2), (8, 2)):
        cls = UnmixedClass(k, n)
        subracks = list(candidate_subracks(cls))
        if k == 2 and n >= 4:
            subracks.append(canonical_subrack(cls))
        for spec in enumerate_irreps(k, n):
            if not cataloged(spec):
                continue
            rho = resolve(spec)
            for sub in subracks:
                space = diagonal_subspace(sub, spec.character())
                columns = dense_columns(sub, rho)
                got = [[[str(space.q((i, 0), (j, s))) for s in range(spec.degree())]
                        for i in range(sub.size)] for j in range(sub.size)]
                want = [[[str(x) for x in row] for row in table]
                        for _, table in columns]
                assert got == want, (k, n, spec.label(), sub.kind)
                compared += 1
    assert compared > 200
    print("%d subspaces match the dense oracle, %.1fs"
          % (compared, time.monotonic() - started))


def test_triple_braiding_matches_reference_six_cycle():
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(1,1,1);mu=standard").character()
    space = diagonal_subspace(triple_subrack(cls, 1), chi)
    assert space.size == 6
    assert q_matches_up_to_permutation(_q_strings(space), REFERENCE_Q_SIX_CYCLE)
    diagram = dynkin_diagram(space)
    assert len(diagram.components()) == 1
    assert all(str(lbl) == "-1" for lbl in diagram.vertex_labels)
    assert len(diagram.edges) == 6
    assert all(str(w) == "-1" for _, _, w in diagram.edges)


def test_rotation_braiding_matches_reference_edgeless():
    cls = UnmixedClass(4, 2)
    chi = parse_rep_spec(4, 2, "chi=(1,1);mu=trivial").character()
    space = diagonal_subspace(rotation_subrack(cls), chi)
    assert _q_strings(space) == REFERENCE_Q_ROTATION_EDGELESS
    assert dynkin_diagram(space).edges == ()


def test_negative_case_braiding_is_symmetric_with_unit_products():
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(1,1,1);mu=trivial").character()
    space = diagonal_subspace(triple_subrack(cls, 1), chi)
    verts = space.vertices
    for a in verts:
        assert space.q(a, a) == MINUS_ONE
        for b in verts:
            assert space.q(a, b) * space.q(b, a) == ONE


def test_restrict_vectors_keeps_column_structure():
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(1,1,1);mu=standard").character()
    space = diagonal_subspace(triple_subrack(cls, 1), chi)
    small = space.restrict_vectors((0,))
    assert small.size == 3
    assert all(s == 0 for _, s in small.vertices)
    for a in small.vertices:
        for b in small.vertices:
            assert small.q(a, b) == space.q(a, b)


def test_dynkin_diagram_edges_only_where_product_differs_from_one():
    cls = UnmixedClass(2, 4)
    chi = parse_rep_spec(2, 4, "chi=k:1;mu=standard").character()
    space = diagonal_subspace(triple_subrack(cls, 2), chi)
    diagram = dynkin_diagram(space)
    verts = space.vertices
    listed = {(a, b) for a, b, _ in diagram.edges}
    for x in range(len(verts)):
        for y in range(x + 1, len(verts)):
            w = space.q(verts[x], verts[y]) * space.q(verts[y], verts[x])
            assert ((x, y) in listed) == (w != ONE)


def test_dynkin_diagram_dot_shape():
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(1,1,1);mu=standard").character()
    dot = dynkin_diagram(diagonal_subspace(triple_subrack(cls, 1), chi)).to_dot()
    assert dot.startswith("graph diagram {")
    assert dot.endswith("}")
    assert dot.count("--") == 6


def test_non_commuting_table_is_rejected():
    # a maximal abelian subrack of the (4,2) class whose table entries do
    # not commute, as a witness could supply it: no joint spectrum exists
    cls = UnmixedClass(4, 2)
    elements = ((2, 3, 4, 1, 6, 7, 8, 5), (4, 1, 2, 3, 8, 5, 6, 7),
                (6, 7, 8, 5, 2, 3, 4, 1), (8, 5, 6, 7, 4, 1, 2, 3))
    transporters = ((1, 2, 3, 4, 5, 6, 7, 8), (1, 4, 3, 2, 5, 8, 7, 6),
                    (1, 6, 3, 8, 2, 7, 4, 5), (1, 8, 3, 6, 2, 5, 4, 7))
    sub = AbelianSubrack(cls, map(Permutation, elements),
                         map(Permutation, transporters))
    distinct = set(itertools.chain(*sub.gamma_table()))
    assert any(not a.commutes_with(b)
               for a, b in itertools.combinations(distinct, 2))
    chi = parse_rep_spec(4, 2, "chi=(1,1);mu=trivial").character()
    with pytest.raises(ValueError, match="do not commute"):
        diagonal_subspace(sub, chi)


def test_dynkin_adjacency_map_matches_edge_scan():
    rng = random.Random(4711)
    labels = [RootOfUnity(m, a) for m in (2, 3, 4, 6) for a in range(1, m)]
    for _ in range(200):
        size = rng.randint(1, 12)
        pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        edges = [(a, b, rng.choice(labels)) for a, b in chosen]
        diagram = GeneralizedDynkinDiagram(
            [rng.choice(labels) for _ in range(size)], edges)
        for v in range(size):
            scanned = sorted([y for x, y, _ in edges if x == v]
                             + [x for x, y, _ in edges if y == v])
            assert diagram.neighbors(v) == tuple(scanned)
            for w in range(size):
                want = next((lbl for x, y, lbl in edges
                             if (x, y) in ((v, w), (w, v))), None)
                assert diagram.edge_label(v, w) == want
        assert sorted(len(diagram.neighbors(v)) for v in range(size)) == list(
            diagram.degree_sequence())
        covered = sorted(v for comp in diagram.components() for v in comp)
        assert covered == list(range(size))
