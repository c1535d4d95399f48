import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from nichols.braidspace import (FAMILIES, AbelianSubrack,
                                GeneralizedDynkinDiagram, canonical_subrack,
                                dynkin_diagram, planned_spectrum,
                                powers_subrack, quadruple_subrack,
                                rotation_subrack, spectrum_plan, subrack_plan,
                                triple_subrack)
from nichols.permgroup import NormalForm, Permutation, UnmixedClass
from nichols.reps import enumerate_irreps, parse_rep_spec, pi_scalar
from nichols.verdict import INFINITE, Verdict, class_plan
from nichols.witness import _witness_subrack, verify_witness

from exactfield_oracle import (ROOT_MINUS_ONE, ROOT_ONE, ZERO, rational,
                               root_value, zeta)
from oracles import (REFERENCE_Q_ROTATION_EDGELESS, REFERENCE_Q_SIX_CYCLE, A,
                     B, cataloged, centralizer_elements, character_value,
                     conjugate, degree_sequence, dense_columns, edge_label,
                     gamma, in_centralizer, label_root, permutation_order,
                     permutation_spectrum_plan, q_matches_up_to_permutation,
                     rectangle, resolve, rotation_defects, transporter,
                     tried_subracks, vertex_space)
from test_golden import DIGESTS


def _q_strings(diagram):
    space = vertex_space(diagram)
    return [[str(space.q(a, b)) for b in space.vertices]
            for a in space.vertices]


def test_subrack_rejects_non_commuting_elements():
    cls = UnmixedClass(2, 3)
    pi = cls.basepoint
    t = Permutation.from_cycles(6, ((1, 6), (2, 3), (4, 5)))
    assert t.cycle_type() == cls.cycle_type()
    assert not pi.commutes_with(t)
    with pytest.raises(ValueError):
        AbelianSubrack(cls, (pi, t),
                       (Permutation.identity(6), transporter(cls, t)))


def test_subrack_rejects_an_element_of_the_wrong_cycle_type():
    cls = UnmixedClass(2, 3)
    pi = cls.basepoint
    three = Permutation.from_cycles(6, ((1, 2, 3),))
    assert three.cycle_type() == (1, 1, 1, 3) != cls.cycle_type()
    with pytest.raises(ValueError, match="outside the class"):
        AbelianSubrack(cls, (pi, three),
                       (Permutation.identity(6), Permutation.identity(6)))


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
        assert gamma(sub, j, j) == cls.basepoint
    for i in range(sub.size):
        for j in range(sub.size):
            g = gamma(sub, i, j)
            assert g.cycle_type() == cls.cycle_type()
            assert in_centralizer(cls, g)


def test_canonical_subrack_matches_reference_element_list():
    # the nine commuting conjugates of the basepoint for five 2-blocks
    cls = UnmixedClass(2, 5)
    sub = canonical_subrack(cls)
    def a(j):
        return A(cls, j)

    def b(i):
        return B(cls, i)
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
    orders = set(map(permutation_order, sub.elements))
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
        diagram = dynkin_diagram(subrack_plan(sub), spec.character())
        columns = dense_columns(sub, rho)
        space = vertex_space(diagram)
        assert space.size == sub.size * spec.degree()
        for (j, s) in space.vertices:
            basis, _ = columns[j]
            vec = basis[s]
            for i in range(sub.size):
                image = rho.evaluate(cls.normal_form(gamma(sub, i, j)))
                val = root_value(space.q((i, 0), (j, s)))
                assert image.apply(vec) == tuple(val * x for x in vec)


def test_character_path_table_matches_dense_oracle():
    # same eigenvalues in the same order as simultaneous diagonalization of
    # the oracle's matrices, on every tried subrack of every cataloged
    # rep, plus the full canonical and power subracks that `diagram` can
    # draw
    started = time.monotonic()
    compared = 0
    for k, n in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (4, 1), (4, 2),
                 (4, 3), (6, 2), (8, 2)):
        cls = UnmixedClass(k, n)
        subracks = tried_subracks(cls)
        if k == 2 and n >= 4:
            subracks.append(canonical_subrack(cls))
        if n == 1:
            subracks.append(powers_subrack(cls))
        for spec in enumerate_irreps(k, n):
            if not cataloged(spec):
                continue
            rho = resolve(spec)
            for sub in subracks:
                diagram = dynkin_diagram(subrack_plan(sub), spec.character())
                columns = dense_columns(sub, rho)
                space = vertex_space(diagram)
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
    diagram = dynkin_diagram(subrack_plan(triple_subrack(cls, 1)), chi)
    assert q_matches_up_to_permutation(_q_strings(diagram), REFERENCE_Q_SIX_CYCLE)
    assert len(diagram.components()) == 1
    assert all(str(label_root(diagram, diagram.q(x, x))) == "-1"
               for x in range(len(diagram.nodes)))
    # every vertex a node of its own
    vertices = rectangle(diagram, range(3), range(2))
    assert len(vertex_space(vertices).vertices) == 6
    assert vertices.components() == (tuple(range(6)),)
    assert len(vertices.edges) == 6
    assert all(str(label_root(vertices, w)) == "-1"
               for _, _, w in vertices.edges)


def test_rotation_braiding_matches_reference_edgeless():
    cls = UnmixedClass(4, 2)
    chi = parse_rep_spec(4, 2, "chi=(1,1);mu=trivial").character()
    diagram = dynkin_diagram(subrack_plan(rotation_subrack(cls)), chi)
    assert _q_strings(diagram) == REFERENCE_Q_ROTATION_EDGELESS
    assert diagram.edges == ()


def test_negative_case_braiding_is_symmetric_with_unit_products():
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(1,1,1);mu=trivial").character()
    diagram = dynkin_diagram(subrack_plan(triple_subrack(cls, 1)), chi)
    space = vertex_space(diagram)
    for a in space.vertices:
        assert space.q(a, a) == ROOT_MINUS_ONE
        for b in space.vertices:
            assert space.q(a, b) * space.q(b, a) == ROOT_ONE


def test_restrict_vectors_keeps_column_structure():
    # the rectangle of one eigenvector index in every column
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(1,1,1);mu=standard").character()
    diagram = dynkin_diagram(subrack_plan(triple_subrack(cls, 1)), chi)
    small = rectangle(diagram, range(3), (0,))
    assert small.nodes == tuple((j, range(0, 1)) for j in range(3))
    part, whole = vertex_space(small), vertex_space(diagram)
    for a in part.vertices:
        for b in part.vertices:
            assert part.q(a, b) == whole.q(a, b)


def test_dynkin_diagram_edges_only_where_product_differs_from_one():
    cls = UnmixedClass(2, 4)
    chi = parse_rep_spec(2, 4, "chi=k:1;mu=standard").character()
    diagram = dynkin_diagram(subrack_plan(triple_subrack(cls, 2)), chi)
    space = vertex_space(diagram)
    verts = space.vertices
    listed = {(a, b) for a, b, _ in rectangle(
        diagram, range(3), range(chi.degree)).edges}
    for x in range(len(verts)):
        for y in range(x + 1, len(verts)):
            w = space.q(verts[x], verts[y]) * space.q(verts[y], verts[x])
            assert ((x, y) in listed) == (w != ROOT_ONE)
            label = edge_label(diagram, verts[x], verts[y])
            assert label_root(diagram, label) == (w if w != ROOT_ONE
                                                  else None)


def test_dynkin_diagram_dot_shape():
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(1,1,1);mu=standard").character()
    dot = "\n".join(
        dynkin_diagram(subrack_plan(triple_subrack(cls, 1)), chi).dot_lines())
    assert dot.startswith("graph diagram {")
    assert dot.endswith("}")
    assert dot.count("--") == 6


def test_the_table_matches_the_entry_by_entry_reference():
    # every subrack the decision tries on the golden classes, and the
    # canonical subrack at (2,4) and (2,6), on every set of 1 to 4 of its
    # columns: the same places of the entries, in order of first
    # appearance (row i, then column j), and the same distinct entries as
    # gamma reads them one at a time
    subracks = [plan.subrack for k, n in DIGESTS
                for plan in class_plan(k, n).plans()]
    assert {s.kind for s in subracks} == {
        "canonical-triple", "quadruple-rotation", "quadruple-swap"}
    subracks += [canonical_subrack(UnmixedClass(2, n)) for n in (4, 6)]
    compared = 0
    for subrack in subracks:
        size = subrack.size
        entries = {(i, j): gamma(subrack, i, j)
                   for i in range(size) for j in range(size)}
        for r in range(1, 5):
            for cols in itertools.combinations(range(size), r):
                rows = [[entries[i, j] for j in cols] for i in cols]
                distinct = list(dict.fromkeys(itertools.chain(*rows)))
                places = tuple(tuple(map(distinct.index, row)) for row in rows)
                assert subrack.table(cols) == (places, tuple(distinct)), (
                    subrack, cols)
                compared += 1
    # 647 sets of the 49 tried subracks, and 255 and 20,853 of canonical
    assert compared == 647 + 255 + 20853
    # the plan's table is the table on every column
    plan = subrack_plan(subracks[-1])
    assert (plan.table, plan.distinct) == subracks[-1].table(range(27))


def test_non_commuting_table_is_rejected(monkeypatch):
    # a maximal abelian subrack of the (4,2) class whose table entries do
    # not commute, as a witness could supply it: no joint spectrum exists.
    # The table, the plan and the witness check refuse it alike; the check
    # reads it as the member of a family made for this test, so that it
    # reaches the table
    cls = UnmixedClass(4, 2)
    elements = ((2, 3, 4, 1, 6, 7, 8, 5), (4, 1, 2, 3, 8, 5, 6, 7),
                (6, 7, 8, 5, 2, 3, 4, 1), (8, 5, 6, 7, 4, 1, 2, 3))
    transporters = ((1, 2, 3, 4, 5, 6, 7, 8), (1, 4, 3, 2, 5, 8, 7, 6),
                    (1, 6, 3, 8, 2, 7, 4, 5), (1, 8, 3, 6, 2, 5, 4, 7))
    sub = AbelianSubrack(cls, map(Permutation, elements),
                         map(Permutation, transporters))
    distinct = {gamma(sub, i, j) for i in range(4) for j in range(4)}
    assert any(not a.commutes_with(b)
               for a, b in itertools.combinations(distinct, 2))
    message = "^conjugation table entries do not commute$"
    with pytest.raises(ValueError, match=message):
        sub.table(range(4))
    with pytest.raises(ValueError, match=message):
        subrack_plan(sub)
    witness = {"element_images": [list(t) for t in elements],
               "transporter_images": [list(g) for g in transporters],
               "subrack": sub.describe(), "vertices": [[0, 0], [2, 0]],
               "q_matrix": [["-1", "1"], ["1", "-1"]], "firing": [0, 1],
               "cartan_matrix": [[2, 0], [0, 2]]}
    verdict = Verdict(INFINITE, "cartan-infinite", witness)
    monkeypatch.setitem(FAMILIES, "custom", lambda cls: sub)
    _witness_subrack.cache_clear()
    try:
        with pytest.raises(ValueError, match=message):
            verify_witness(4, 2, "chi=(1,1);mu=trivial", verdict)
    finally:
        _witness_subrack.cache_clear()


def test_dynkin_adjacency_map_matches_edge_scan():
    # one vertex per column over Z/12, with random labels of every order
    # dividing 12: the adjacency of each node against a scan of the
    # products q_ab q_ba, and the components cover every node once
    rng = random.Random(4711)
    for _ in range(200):
        size = rng.randint(1, 12)
        labels = tuple(tuple((rng.randrange(12),) for _ in range(size))
                       for _ in range(size))
        diagram = GeneralizedDynkinDiagram(12, range(size), ((0, 1),), labels)
        scanned = {}
        for a, b in itertools.combinations(range(size), 2):
            w = (labels[a][b][0] + labels[b][a][0]) % 12
            if w:
                scanned[a, b] = w
        assert [(a, b) for a, b, _ in diagram.edges] == sorted(scanned)
        for v in range(size):
            assert diagram.adjacent(v) == {
                w: lbl for (x, y), lbl in scanned.items()
                for w in (x, y) if v in (x, y) and w != v}
            for w in range(size):
                want = scanned.get((min(v, w), max(v, w)))
                assert edge_label(diagram, (v, 0), (w, 0)) == want
        assert sorted(len(diagram.adjacent(v)) for v in range(size)) == list(
            degree_sequence(diagram))
        covered = sorted(v for comp in diagram.components() for v in comp)
        assert covered == list(range(size))


# the integer path of planned_spectrum against the exact field

# classes whose centralizers are small enough to list
SMALL_CLASSES = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                 (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 1), (6, 2),
                 (8, 1), (8, 2))


@st.composite
def commuting_generators(draw):
    """(class, spec, generators): a random irrep and two commuting
    centralizer elements whose orders divide k, as every conjugation table
    entry's does (it is a conjugate of a class element), so that every
    label is a power of zeta_k."""
    k, n = draw(st.sampled_from(SMALL_CLASSES))
    cls = UnmixedClass(k, n)
    specs = enumerate_irreps(k, n)
    spec = specs[draw(st.integers(0, len(specs) - 1))]
    pool = [g for g in centralizer_elements(cls)
            if k % permutation_order(g) == 0]
    g = pool[draw(st.integers(0, len(pool) - 1))]
    partners = [h for h in pool if h.commutes_with(g)]
    h = partners[draw(st.integers(0, len(partners) - 1))]
    return cls, spec, (g, h)


def _group_words(generators):
    # every element of <generators> with one exponent word, by search
    identity = Permutation.identity(generators[0].degree)
    words = {identity: (0,) * len(generators)}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for t, g in enumerate(generators):
            y = x * g
            if y not in words:
                words[y] = tuple(w + (i == t) for i, w in enumerate(words[x]))
                frontier.append(y)
    return words


@settings(max_examples=80, deadline=None)
@given(commuting_generators())
def test_joint_spectrum_multiplicities_match_the_field(case):
    # each multiplicity is (1/|H|) sum_h chi(h) psi(h)^-1, summed in the
    # field over an independently listed H
    cls, spec, generators = case
    character = spec.character()
    spectrum = planned_spectrum(spectrum_plan(cls, generators), character)
    assert sum(count for _, count in spectrum) == spec.degree()
    assert [exps for exps, _ in spectrum] == sorted({exps for exps, _ in spectrum})
    words = _group_words(generators)
    values = {h: character_value(character, cls.normal_form(h)) for h in words}
    for exps, count in spectrum:
        total = ZERO
        for h, word in words.items():
            phase = sum(w * e for w, e in zip(word, exps))
            total = total + values[h] * zeta(cls.k, -phase)
        assert total == rational(count * len(words)), (spec.label(), exps)


class _Perturbed:
    """A character with one value changed at a single class label: still a
    class function, but not a character."""

    def __init__(self, character, at, index: int) -> None:
        self.k = character.k
        self.degree = character.degree
        self._character = character
        self._at = at
        self._index = index

    def coefficients(self, label):
        value = dict(self._character.coefficients(label))
        if label == self._at:
            value[self._index] = value.get(self._index, 0) + 1
        return tuple(sorted((a, c) for a, c in value.items() if c))


@settings(max_examples=80, deadline=None)
@given(commuting_generators(), st.integers(0, 7), st.integers(0, 63))
def test_joint_spectrum_rejects_a_non_character(case, index, pick):
    # the sum reads chi at pi and at the coset representatives of <pi>
    # only.  Adding zeta_k^index at the class of pi moves chi(pi) off
    # degree zeta_k^q.  Adding it at the class of a representative
    # h0 != 1, so at c of the m representatives, 0 < c < m (the identity
    # is alone in its class), moves the multiplicity of each psi of the
    # q-th block by zeta_k^index S / m, S the sum of psi(r)^-1 over those
    # c: over the block, whose psi differ by the characters of H/<pi>, the
    # |S|^2 add up to c m, so some S is nonzero, and |S| / m <= c / m < 1,
    # so that multiplicity is no integer
    cls, spec, generators = case
    plan = spectrum_plan(cls, generators)
    read = plan.representatives[1:] + (plan.basepoint,)
    fake = _Perturbed(spec.character(), read[pick % len(read)],
                      index % cls.k)
    with pytest.raises(ArithmeticError):
        planned_spectrum(plan, fake)


def test_joint_spectrum_rejects_an_irrational_inner_product():
    # at (4,2), H = <pi, t> for t = pi B_12, t^2 = pi^2, has two cosets of
    # <pi>; on chi(pi) = 1 every psi that occurs has psi(t) = +-1, so
    # adding zeta_4 at the class of t moves each inner product by
    # +-zeta_4 / 2, which has trace 0: only the rationality test sees it,
    # not the divisibility of the trace
    cls = UnmixedClass(4, 2)
    t = cls.basepoint * cls.block_swap(1, 2)
    character = parse_rep_spec(4, 2, "chi=(0,0);mu=trivial").character()
    plan = spectrum_plan(cls, (t,))
    assert len(plan.representatives) == 2
    assert planned_spectrum(plan, character) == [((0,), 1)]
    fake = _Perturbed(character, cls.normal_form(t).class_label(4), 1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        planned_spectrum(plan, fake)


def test_joint_spectrum_needs_a_multiple_of_k():
    # every label is a power of zeta_k, and k must be a multiple of every
    # generator's order: at k = 4 the generator pi^2, of order 2, is read
    # as the exponent 2 of zeta_4, and at (2,3) a 3-cycle of the blocks,
    # which centralizes pi, is refused
    cls = UnmixedClass(4, 1)
    pi = cls.basepoint
    character = parse_rep_spec(4, 1, "chi=(3)").character()
    plan = spectrum_plan(cls, (pi * pi,))
    assert plan.k == 4
    assert planned_spectrum(plan, character) == [((2,), 1)]
    cls = UnmixedClass(2, 3)
    cycle = cls.block_swap(1, 2) * cls.block_swap(2, 3)
    assert permutation_order(cycle) == 3
    with pytest.raises(ArithmeticError, match="exponent dividing k"):
        spectrum_plan(cls, (cycle,))


def test_spectrum_plan_refuses_a_square_root_of_pi():
    # at (4,2), g = (d = (0, 1), b = (2, 1)) swaps the two blocks with g^2
    # = pi: relative order 2 over <pi> and order 8.  Only the psi with an
    # odd psi(pi) = zeta_4^q fail to extend to it, so a check made only on
    # the block q = 2, which every row past the scalar gate reads, would
    # let it through; the plan refuses it whatever psi(pi), as the
    # reference listing of every character does
    cls = UnmixedClass(4, 2)
    root = cls.assemble(NormalForm((0, 1), (2, 1)))
    assert root * root == cls.basepoint and permutation_order(root) == 8
    with pytest.raises(ArithmeticError, match="exponent dividing k"):
        spectrum_plan(cls, (root,))
    with pytest.raises(ArithmeticError, match="exponent dividing k"):
        permutation_spectrum_plan(cls, (root,))


class _Induced:
    """The character of H induced from psi(pi) = zeta_k^q on <pi>, read at
    the labels that planned_spectrum reads: m = |H| / k at the identity,
    m zeta_k^q at pi, and 0 at the other coset representatives, which lie
    off <pi>.  It holds once each psi with psi(pi) = zeta_k^q."""

    def __init__(self, plan, q: int) -> None:
        self.k = plan.k
        self.degree = len(plan.representatives)
        self._at = {plan.representatives[0]: 0, plan.basepoint: q}

    def coefficients(self, label):
        if label in self._at:
            return ((self._at[label], self.degree),)
        return ()


def test_spectrum_plan_puts_the_basepoint_first():
    # pi is layer 1, of order k, even when the generators leave it out:
    # the elements are pi^0 .. pi^3, one coset of <pi>, so the plan has no
    # layer after pi and one representative, the identity, and keeps the
    # labels of the identity and of pi only.  The generator pi^2 is placed
    # (2, 0), pi^2 times the identity, so the character with
    # psi(pi) = zeta_4^q, the only one that planned_spectrum lists for q,
    # has the exponent 2q on it, as in the reference, which lists the
    # characters by their value at pi
    cls = UnmixedClass(4, 2)
    pi = cls.basepoint
    plan = spectrum_plan(cls, (pi * pi,))
    powers = [Permutation.identity(cls.degree), pi, pi * pi, pi * pi * pi]
    labels = tuple(cls.normal_form(h).class_label(4) for h in powers)
    assert (plan.representatives, plan.basepoint) == (labels[:1], labels[1])
    assert (plan.layers, plan.generators) == ((), ((2, 0),))
    reference = permutation_spectrum_plan(cls, (pi * pi,))
    assert (reference.plan(), reference.labels) == (plan, labels)
    assert reference.characters == tuple(
        (tuple(e * q % 4 for e in range(4)), (2 * q % 4,)) for q in range(4))
    for q in range(4):
        assert planned_spectrum(plan, _Induced(plan, q)) == [
            ((2 * q % 4,), 1)]


# (class, subrack, irrep) triples whose planned H has more than one coset
# of <pi>
COSET_CASES = ((2, 3, triple_subrack, (1,), "chi=(1,1,1);mu=standard"),
               (4, 2, rotation_subrack, (), "chi=(2,0);mu=trivial"),
               (4, 3, quadruple_subrack, (1, 2), "chi=(2,2,0);mu=trivial"),
               (6, 2, rotation_subrack, (), "chi=(3,0);mu=trivial"))


@pytest.mark.parametrize("k, n, family, param, text", COSET_CASES)
def test_spectrum_plan_lists_the_characters_by_their_value_at_pi(
        k, n, family, param, text):
    # the plan holds no character: the labels of the m = |H| / k coset
    # representatives of <pi>, every k-th element of the reference, the
    # identity's first, the layers after pi and the places of the
    # generators.  For each q, planned_spectrum lists from the layers the
    # characters with psi(pi) = zeta_k^q, and on the character induced
    # from zeta_k^q on <pi> it finds each of them once: the reference's
    # q-th block of m characters
    cls = UnmixedClass(k, n)
    plan = subrack_plan(family(cls, *param))
    spectrum = plan.spectrum
    at_pi = plan.table[0][0]
    m = len(spectrum.representatives)
    reference = permutation_spectrum_plan(cls, plan.distinct)
    assert m * k == len(reference.labels) == len(reference.characters)
    assert reference.plan() == spectrum and 1 < m
    for q in range(k):
        block = reference.characters[q * m:(q + 1) * m]
        assert all(exps[at_pi] == q for _, exps in block)
        assert planned_spectrum(spectrum, _Induced(spectrum, q)) == sorted(
            (exps, 1) for _, exps in block)


@pytest.mark.parametrize("k, n, family, param, text", COSET_CASES)
def test_joint_spectrum_rejects_a_change_off_the_representatives(
        k, n, family, param, text):
    # the sum reads chi at the coset representatives of <pi> and at pi, so
    # of the labels off the representatives it reads only pi's, and a
    # change there is refused.  A change at any other label off them does
    # not reach the sum, which rests on chi(pi^e h) = zeta_k^(q e) chi(h)
    # there: that identity of the character formula is held in
    # tests/test_reps.py, and the changed class function breaks it
    cls = UnmixedClass(k, n)
    plan = subrack_plan(family(cls, *param))
    spec = parse_rep_spec(k, n, text)
    character = spec.character()
    spectrum = planned_spectrum(plan.spectrum, character)
    assert spectrum
    labels = permutation_spectrum_plan(cls, plan.distinct).labels
    q = pi_scalar(spec)
    assert not rotation_defects(character, q, labels)
    kept = set(plan.spectrum.representatives)
    unseen = [label for label in dict.fromkeys(labels) if label not in kept]
    assert unseen[0] == plan.spectrum.basepoint and unseen[1:]
    for index in range(k):
        fake = _Perturbed(character, unseen[0], index)
        with pytest.raises(ArithmeticError, match="not act by a scalar"):
            planned_spectrum(plan.spectrum, fake)
        for label in unseen[1:]:
            fake = _Perturbed(character, label, index)
            assert planned_spectrum(plan.spectrum, fake) == spectrum
            assert rotation_defects(fake, q, labels)


@pytest.mark.parametrize("k, n, family, param, text", COSET_CASES)
def test_joint_spectrum_rejects_a_basepoint_that_is_not_a_scalar(
        k, n, family, param, text):
    # chi(pi) moved off degree zeta_k^q by any root of unity: pi no longer
    # acts by a scalar
    cls = UnmixedClass(k, n)
    plan = subrack_plan(family(cls, *param)).spectrum
    character = parse_rep_spec(k, n, text).character()
    at = cls.normal_form(cls.basepoint).class_label(k)
    assert plan.basepoint == at
    for index in range(k):
        with pytest.raises(ArithmeticError):
            planned_spectrum(plan, _Perturbed(character, at, index))


@pytest.mark.parametrize("k,n", sorted(DIGESTS))
def test_every_planned_block_matches_the_sum_over_all_of_h(k, n):
    # every irrep of the golden grid, scalar-gate rows included, on each
    # candidate subrack of its class: planned_spectrum lists and sums the
    # block psi(pi) = zeta_k^q of its row's q over the coset
    # representatives of <pi>, and gives the spectrum that the reference
    # sums over every element of H for every linear character.  The
    # decision reads only the block q = k/2 of the rows past the gate,
    # and `diagram --subrack` reads the others; the reference's sum
    # depends on the character only through its values on H, so each
    # restriction is summed once
    plan = class_plan(k, n)
    references = [(subrack.spectrum,
                   permutation_spectrum_plan(plan.cls, subrack.distinct))
                  for subrack in plan.plans()]
    summed = {}
    for spec in enumerate_irreps(k, n):
        character = spec.character()
        for place, (planned, reference) in enumerate(references):
            key = (place, tuple(map(character.coefficients,
                                    dict.fromkeys(reference.labels))))
            if key not in summed:
                summed[key] = reference.spectrum(character)
            assert planned_spectrum(planned, character) == summed[key], (
                spec.label())
