"""The component reading, the witness search and the 4-cycle rule of
nichols.verdict against the references in oracles: the same Cartan and
finite-type answer as the general Cartan-matrix reading on every component
(and a refusal where that reading sees a tree with a fork), the same
firing tuple and label as the enumerating search on every non-finite
Cartan component, the same alternating 4-cycle as the search on every
vertex, the same cycle on random graphs, and the same diagram on nodes as
the one built vertex pair by vertex pair.  Two tests check the proof that
no candidate subrack makes a tree with a fork (verdict.cartan_finite)."""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import nichols.verdict
from nichols.braidspace import (GeneralizedDynkinDiagram, dynkin_diagram,
                                planned_spectrum, rotation_subrack,
                                spectrum_diagram, subrack_plan)
from nichols.cli import _build_subrack
from nichols.permgroup import Permutation, UnmixedClass
from nichols.reps import enumerate_irreps, parse_rep_spec, pi_scalar
from nichols.verdict import (_candidates, _edge_cycle, _minimal_infinite_set,
                             _read_rules, _shortest_cycle, _slice_cycle,
                             _subspace_rules, _template, _twins,
                             cartan_finite, class_plan, cycle_rule, decide,
                             scalar_gate)
from nichols.witness import _cartan_infinite

import oracles
from test_golden import DIGESTS
from oracles import (CartanData, braiding_matrix, cartan_type, diagram_label,
                     dynkin_diagram_by_pairs, edge_label, finite_type,
                     finite_type_lookup, label_root, minimal_infinite_set,
                     node_of, rectangle, rectangle_witness, shortest_cycle,
                     tried_subracks, vertex_space)


def _count(diagram, nodes):
    # every member of each node
    return {x: len(diagram.nodes[x][1]) for x in nodes}


def _near(diagram, nodes):
    # the twin map that cycle_rule and _minimal_infinite_set read, over the
    # nodes labelled -1, as _read_rules builds it for a component that
    # cartan_finite does not call finite
    return _twins(diagram, [x for x in nodes
                            if 2 * diagram.q(x, x) == diagram.modulus])


def _node_components(diagram, space):
    """(nodes, vertex positions) for every component of the vertex graph:
    the members of each node component, save that an edgeless node gives
    one component per member."""
    position = {v: i for i, v in enumerate(space.vertices)}
    for nodes in diagram.components():
        comp = tuple(position[j, s] for x in nodes
                     for j, indices in (diagram.nodes[x],) for s in indices)
        if len(nodes) == 1 and not diagram.adjacent(nodes[0]):
            for v in comp:
                yield nodes, (v,)
        else:
            yield nodes, comp


def _forked(a) -> bool:
    # the graph of a connected simply-laced matrix is a tree with a vertex
    # of degree 3 or more
    degrees = [sum(1 for j, x in enumerate(row) if j != i and x)
               for i, row in enumerate(a)]
    return sum(degrees) // 2 == len(a) - 1 and max(degrees) > 2


# the reading of a component whose general Cartan-matrix reading is a tree
# with a fork: cartan_finite refuses it
FORK = "fork"


def _checked_reading(diagram, nodes, sub):
    """cartan_finite on the nodes, every vertex label -1, against the
    general Cartan-matrix reading of their vertices sub: the same answer,
    or FORK where that reading is a tree with a fork and the reader
    raises."""
    count = _count(diagram, nodes)
    data = cartan_type(braiding_matrix(sub))
    if isinstance(data, CartanData) and _forked(data.matrix):
        with pytest.raises(RuntimeError, match="fork"):
            cartan_finite(diagram, count)
        return FORK
    finite = cartan_finite(diagram, count)
    assert (finite is not None) == isinstance(data, CartanData)
    if finite is not None:
        assert finite == finite_type(data)
    return finite


def _read_components(diagram, space=None, pairs=None):
    """(space, restricted space, nodes, vertex component, reading) for
    every component, each reading checked (_checked_reading), and the
    components against those of the pairwise diagram pairs of space, the
    vertex space of the diagram, each built here when not given."""
    if space is None:
        space = vertex_space(diagram)
        pairs = dynkin_diagram_by_pairs(space)
    found = list(_node_components(diagram, space))
    assert sorted(comp for _, comp in found) == list(pairs.components())
    for nodes, comp in found:
        sub = space.restrict(space.vertices[x] for x in comp)
        yield space, sub, nodes, comp, _checked_reading(diagram, nodes, sub)


def _non_finite_components(diagram):
    for space, sub, nodes, comp, finite in _read_components(diagram):
        if finite is False:
            yield space, sub, nodes, comp


@pytest.fixture(scope="session")
def grid_spaces():
    """(k, n, spec, plan, diagram, vertex space, pairwise diagram) for every
    candidate subspace of GRID past the scalar gate, built once for the
    tests that read them all against the references."""
    out = []
    for k, n, spec, plan, diagram in _grid_diagrams(GRID):
        space = vertex_space(diagram)
        out.append((k, n, spec, plan, diagram, space,
                    dynkin_diagram_by_pairs(space)))
    return out


def test_witness_search_matches_the_reference_on_every_candidate_subrack(
        grid_spaces):
    # every component is read as the reference reads it, finite or not,
    # Cartan or not, and none is a tree with a fork; the non-finite ones
    # are shrunk as the reference does, and the label of each witness is
    # the reference's name of its firing set
    read = checked = labelled = 0
    for k, n, spec, plan, diagram, space, pairs in grid_spaces:
        for space, sub, nodes, comp, finite in _read_components(
                diagram, space, pairs):
            read += 1
            assert finite != FORK
            if finite is not False:
                continue
            want = minimal_infinite_set(space, sub, comp)
            got = _minimal_infinite_set(_near(diagram, nodes))
            assert got == tuple(space.vertices[x] for x in want), (
                k, n, spec.label(), plan.subrack.kind)
            checked += 1
        verdict = _subspace_rules(plan, spec.character(), {})
        if verdict is not None and verdict.rule == "cartan-infinite":
            w = verdict.witness
            firing = vertex_space(diagram).restrict(
                tuple(w["vertices"][x]) for x in w["firing"])
            assert w["label"] == diagram_label(
                cartan_type(braiding_matrix(firing)))
            labelled += 1
    assert checked == 284
    assert read == 780
    assert labelled > 0


# the classes whose tried subspaces past the scalar gate are walked
GRID = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3), (4, 4),
        (6, 3), (8, 2), (10, 2))


def _grid_diagrams(grid):
    for k, n in grid:
        cls = UnmixedClass(k, n)
        for spec in enumerate_irreps(k, n):
            if scalar_gate(pi_scalar(spec), k) is not None:
                continue
            character = spec.character()
            for subrack in tried_subracks(cls):
                plan = subrack_plan(subrack)
                yield k, n, spec, plan, dynkin_diagram(plan, character)


def _assert_same_cycle(diagram, space, pairs):
    # the 4-cycle rule on two members per node finds the cycle that the
    # search on every vertex finds first, on every component
    fired = 0
    for nodes, comp in _node_components(diagram, space):
        got = cycle_rule(_near(diagram, nodes), diagram.modulus)
        want = oracles.cycle_rule(pairs, comp)
        if want is None:
            assert got is None, comp
            continue
        assert got == {"cycle": tuple(space.vertices[x] for x in want["cycle"]),
                       "labels": want["labels"]}, comp
        fired += 1
    return fired


def _fired_alike(grid):
    fired = 0
    for k, n, spec, plan, diagram in _grid_diagrams(grid):
        space = vertex_space(diagram)
        fired += _assert_same_cycle(diagram, space,
                                    dynkin_diagram_by_pairs(space))
    return fired


def test_cycle_rule_matches_the_vertex_rule_on_every_candidate_subrack(
        grid_spaces):
    # the grid, and the golden classes (6,4), (4,5), (8,3) and (8,4), whose
    # vertex diagrams stay small; at k >= 6 the rule decides rows
    fired = sum(_assert_same_cycle(diagram, space, pairs)
                for _, _, _, _, diagram, space, pairs in grid_spaces)
    assert fired + _fired_alike(((6, 4), (4, 5), (8, 3), (8, 4))) == 1027


@pytest.mark.slow
def test_cycle_rule_matches_the_vertex_rule_on_larger_golden_classes():
    # about 55 s on a 2-vCPU VM, most of it in the pairwise reference;
    # from (2,8) and (4,7) on, its vertex diagrams are out of reach
    assert _fired_alike(((2, 7), (4, 6), (6, 5))) == 1158


def _reading_or_raise(diagram, count):
    try:
        return cartan_finite(diagram, count)
    except RuntimeError as exc:
        return str(exc)


def _expanded(diagram):
    # the same diagram with every vertex a node of its own
    indices = sorted({s for _, run in diagram.nodes for s in run})
    return rectangle(diagram, diagram.columns, indices)


def _assert_same_diagram(diagram, space, want=None):
    # the diagram on nodes reads exactly as the one built pair by pair on
    # the vertices of space, which are the vertices of the diagram (want,
    # built here when not given)
    if want is None:
        want = dynkin_diagram_by_pairs(space)
    assert [(j, s) for j, run in diagram.nodes for s in run] == list(
        space.vertices)
    nodes = [node_of(diagram, v) for v in space.vertices]
    assert [label_root(diagram, diagram.q(x, x))
            for x in nodes] == list(want.vertex_labels)
    assert "\n".join(diagram.dot_lines()) == want.to_dot()
    for a, u in enumerate(space.vertices):
        assert ([label_root(diagram, diagram.q(nodes[a], y)) for y in nodes]
                == [space.q(u, v) for v in space.vertices])
        assert ([label_root(diagram, edge_label(diagram, u, v))
                 for v in space.vertices]
                == [want.edge_label(a, b) if a != b else None
                    for b in range(space.size)])
    found = list(_node_components(diagram, space))
    assert sorted(comp for _, comp in found) == list(want.components())
    # each reading on nodes is the reading of the vertex expansion
    expanded = _expanded(diagram)
    for nodes, comp in found:
        assert (_reading_or_raise(diagram, _count(diagram, nodes))
                == _reading_or_raise(expanded, dict.fromkeys(comp, 1)))
    return diagram


@st.composite
def node_diagrams(draw):
    # 1 to 4 columns and 1 to 3 runs of 1 to 3 members, over Z/4 with any
    # label on the diagonal: twins may be adjacent and labels need not be -1
    columns = draw(st.integers(1, 4))
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    count = columns * columns * len(mults)
    exps = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    labels = tuple(
        tuple(tuple(exps[(i * columns + j) * len(mults) + r]
                    for r in range(len(mults)))
              for j in range(columns))
        for i in range(columns))
    return GeneralizedDynkinDiagram(
        4, range(columns),
        tuple(zip(itertools.accumulate(mults, initial=0), mults)), labels)


@settings(max_examples=400, deadline=None)
@given(node_diagrams())
def test_block_diagram_reads_as_its_vertex_expansion(diagram):
    # random nodes with random labels between and within them, against the
    # same graph built vertex pair by vertex pair; a component whose vertex
    # labels are all -1 is read as the general reference reads it
    space = vertex_space(diagram)
    _assert_same_diagram(diagram, space)
    for nodes, comp in _node_components(diagram, space):
        if all(2 * diagram.q(x, x) == diagram.modulus for x in nodes):
            _checked_reading(diagram, nodes,
                             space.restrict(space.vertices[x] for x in comp))


def test_twin_blocks_read_as_the_pairwise_diagram(grid_spaces):
    # every candidate subspace of the grid, and a random rectangle of each
    rng = random.Random(2003)
    merged = 0
    for k, n, spec, plan, diagram, space, pairs in grid_spaces:
        _assert_same_diagram(diagram, space, pairs)
        merged += any(len(run) > 1 for _, run in diagram.nodes)
        columns = sorted(rng.sample(diagram.columns,
                                    rng.randint(1, len(diagram.columns))))
        degree = space.size // len(diagram.columns)
        indices = sorted(rng.sample(range(degree), rng.randint(1, degree)))
        _assert_same_diagram(rectangle(diagram, columns, indices),
                             space.restrict((j, s) for j in columns
                                            for s in indices))
    assert merged > 0


@pytest.mark.parametrize("k,n,selector", [
    (2, 4, "canonical"), (2, 4, "triple:1"), (2, 5, "triple:2"),
    (4, 3, "rotation"), (4, 3, "quadruple:1,2"), (6, 2, "rotation"),
    (6, 1, "powers")])
def test_twin_blocks_before_the_scalar_gate(k, n, selector):
    # each `diagram --subrack` selector on the rep of largest degree that
    # the scalar gate decides, where vertex labels need not be -1 and twins
    # may be adjacent
    cls = UnmixedClass(k, n)
    specs = [spec for spec in enumerate_irreps(k, n)
             if scalar_gate(pi_scalar(spec), k) is not None]
    spec = max(specs, key=lambda spec: spec.degree())
    plan = subrack_plan(_build_subrack(cls, selector))
    diagram = dynkin_diagram(plan, spec.character())
    _assert_same_diagram(diagram, vertex_space(diagram))


def test_adjacent_twins_form_one_component():
    # at (4,3) with chi=(1,1,1);mu=standard every vertex label is z(4,3):
    # the two twins of each column are adjacent, and so is every other pair
    cls = UnmixedClass(4, 3)
    diagram = dynkin_diagram(subrack_plan(rotation_subrack(cls)),
                             parse_rep_spec(4, 3, "chi=(1,1,1);mu=standard")
                             .character())
    _assert_same_diagram(diagram, vertex_space(diagram))
    assert diagram.nodes == tuple((j, range(2)) for j in range(4))
    assert all(x in diagram.adjacent(x) for x in range(4))
    assert diagram.components() == ((0, 1, 2, 3),)
    assert len(_expanded(diagram).edges) == 28
    assert all(edge_label(diagram, v, v) is None
               for v in vertex_space(diagram).vertices)


@st.composite
def labeled_spaces(draw, moduli):
    # 3 or 4 columns over a random table of signs (or of powers of i) with
    # -1 on the diagonal, as past the scalar gate, for 1 to 4 characters of
    # multiplicity 1 to 4: the labels are constant on a run, so each column
    # holds nodes of up to 4 twins.  Triangles of every expansion, and
    # cycles through twins
    modulus = draw(st.sampled_from(moduli))
    columns = draw(st.integers(3, 4))
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    count = columns * columns * len(mults)
    exps = draw(st.lists(st.integers(0, modulus - 1), min_size=count,
                         max_size=count))
    labels = tuple(
        tuple(tuple(modulus // 2 if i == j
                    else exps[(i * columns + j) * len(mults) + r]
                    for r in range(len(mults)))
              for j in range(columns))
        for i in range(columns))
    return GeneralizedDynkinDiagram(
        modulus, range(columns),
        tuple(zip(itertools.accumulate(mults, initial=0), mults)), labels)


@settings(max_examples=300, deadline=None)
@given(labeled_spaces((2,)))
def test_witness_search_matches_the_reference_on_random_sign_tables(diagram):
    # every component is read as the reference reads it (in
    # _read_components); the non-finite ones are shrunk alike
    for space, sub, nodes, comp in _non_finite_components(diagram):
        want = minimal_infinite_set(space, sub, comp)
        assert (_minimal_infinite_set(_near(diagram, nodes))
                == tuple(space.vertices[x] for x in want))


@st.composite
def wide_sign_tables(draw):
    # 5 to 7 columns over a random table of signs with -1 on the diagonal,
    # for 1 or 2 characters of multiplicity 1 or 2: 1 to 4 eigenvector
    # indices, so slices of 5 vertices or more are common.  When the
    # columns are split in two sides, only columns on different sides are
    # joined, so no component has a triangle, and its slices are read by
    # 4-cycles or by the full search
    columns = draw(st.integers(5, 7))
    mults = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    side = draw(st.one_of(st.none(), st.lists(
        st.booleans(), min_size=columns, max_size=columns)))
    labels = tuple(tuple(tuple(
        1 if i == j else 0 if side and side[i] == side[j]
        else draw(st.integers(0, 1)) for _ in mults)
        for j in range(columns)) for i in range(columns))
    return GeneralizedDynkinDiagram(
        2, range(columns),
        tuple(zip(itertools.accumulate(mults, initial=0), mults)), labels)


@settings(max_examples=200, deadline=None)
@given(wide_sign_tables())
def test_witness_search_matches_the_reference_on_wide_sign_tables(diagram):
    # the least 4-cycle of each slice, read off common neighbors, is
    # confirmed by the searches of its edges, or the full search runs, and
    # the witness is still the reference's
    for space, sub, nodes, comp in _non_finite_components(diagram):
        want = minimal_infinite_set(space, sub, comp)
        assert (_minimal_infinite_set(_near(diagram, nodes))
                == tuple(space.vertices[x] for x in want))


def _triangle_free_graphs(size):
    # every triangle-free graph on the vertices 0 .. size - 1, as the map
    # of each vertex to its neighbors in increasing order, each with a
    # label; an edge set is a bit mask over the pairs
    pairs = list(itertools.combinations(range(size), 2))
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    triangles = [bit[a, b] | bit[a, c] | bit[b, c]
                 for a, b, c in itertools.combinations(range(size), 3)]
    for mask in range(1 << len(pairs)):
        if any(mask & t == t for t in triangles):
            continue
        near = {v: {} for v in range(size)}
        for a, b in pairs:
            if mask & bit[a, b]:
                near[a][b] = near[b][a] = 2
        yield {v: dict(sorted(around.items())) for v, around in near.items()}


def _least_square(near):
    # the least 4-cycle by sorted tuple, from every 4 vertices that each
    # have two neighbors among them, or None
    return min((square for square in itertools.combinations(near, 4)
                if all(len(near[v].keys() & set(square)) == 2
                       for v in square)), default=None)


def test_the_slice_reading_is_the_full_search_on_small_graphs():
    # every triangle-free labelled graph of at most 6 vertices: the full
    # search returns the least 4-cycle wherever there is one, and the
    # slice reading returns the vertex set of the full search's cycle
    graphs = squares = 0
    for size in range(1, 7):
        for near in _triangle_free_graphs(size):
            graphs += 1
            cycle = _shortest_cycle(near)
            square = _least_square(near)
            if square is not None:
                squares += 1
                assert tuple(sorted(cycle)) == square, near
            assert _slice_cycle(near, list(near)) == (
                None if cycle is None else tuple(sorted(cycle))), near
    assert (graphs, squares) == (6228, 2453)


def test_the_slice_reading_falls_back_to_the_full_search(monkeypatch):
    # a triangle-free graph on 10 vertices whose least 4-cycle is
    # {0, 2, 4, 5}, but whose full search returns {0, 3, 4, 8}, as do none
    # of the four edges of {0, 2, 4, 5}: the slice reading runs the full
    # search and returns its cycle
    edges = ((0, 3), (0, 4), (0, 5), (1, 2), (1, 7), (1, 9), (2, 4), (2, 5),
             (3, 6), (3, 8), (4, 8), (4, 9), (5, 6), (5, 7))
    near = {v: dict.fromkeys(sorted(w for p in edges if v in p
                                    for w in p if w != v), 2)
            for v in range(10)}
    searched = []

    def full(graph):
        searched.append(graph)
        return _shortest_cycle(graph)

    monkeypatch.setattr(nichols.verdict, "_shortest_cycle", full)
    assert _least_square(near) == (0, 2, 4, 5)
    assert {tuple(sorted(_edge_cycle(near, a, b)))
            for a, b in ((0, 4), (0, 5), (2, 4), (2, 5))} == {
        (0, 3, 4, 8), (0, 3, 5, 6), (1, 2, 4, 9), (1, 2, 5, 7)}
    assert _slice_cycle(near, list(near)) == (0, 3, 4, 8)
    assert len(searched) == 1


@settings(max_examples=300, deadline=None)
@given(labeled_spaces((2, 4)))
def test_cycle_rule_matches_the_vertex_rule_on_random_tables(diagram):
    space = vertex_space(diagram)
    _assert_same_cycle(diagram, space, dynkin_diagram_by_pairs(space))


def test_cycle_search_sees_at_most_two_twins_per_block(monkeypatch):
    # at (4,4) the cycle search reads 948 slices, on components whose
    # nodes hold up to 12 twins, and is given only the first two of each
    # node.  The 92 slices of 5 vertices or more each hold a 4-cycle that
    # the search of its first edge confirms, so 92 edge searches run and
    # the full search none.  (At (2,6) every non-finite component has a
    # triangle, so no slice is read)
    given = []
    searches = {"_edge_cycle": 0, "_shortest_cycle": 0}

    def spy(near, subset):
        given.append(subset)
        return _slice_cycle(near, subset)

    def counted(name, search):
        def run(*args):
            searches[name] += 1
            return search(*args)
        return run

    monkeypatch.setattr(nichols.verdict, "_slice_cycle", spy)
    for name, search in (("_edge_cycle", _edge_cycle),
                         ("_shortest_cycle", _shortest_cycle)):
        monkeypatch.setattr(nichols.verdict, name, counted(name, search))
    largest = 0
    plans = class_plan(4, 4)
    for spec in enumerate_irreps(4, 4):
        if scalar_gate(pi_scalar(spec), 4) is not None:
            continue
        for plan in plans.plans():
            diagram = dynkin_diagram(plan, spec.character())
            for space, sub, nodes, comp in _non_finite_components(diagram):
                read = len(given)
                _minimal_infinite_set(_near(diagram, nodes))
                largest = max(largest, max(_count(diagram, nodes).values()))
                assert all(v[1] in diagram.nodes[node_of(diagram, v)][1][:2]
                           for vertices in given[read:] for v in vertices)
    assert (largest, len(given), sum(len(v) > 4 for v in given)) == (
        12, 948, 92)
    assert searches == {"_edge_cycle": 92, "_shortest_cycle": 0}


def test_witness_search_needs_minus_one_vertex_labels():
    # a vertex label 1 breaks "twins are never adjacent", on which the
    # pruning of the witness search rests: the reading raises rather than
    # guess
    labels = (((0, 1), (0, 1), (1, 0)), ((1, 0), (1, 1), (0, 1)),
              ((0, 1), (1, 0), (1, 1)))
    diagram = GeneralizedDynkinDiagram(2, range(3), ((0, 1), (1, 1)), labels)
    comp = max(diagram.components(), key=len)
    with pytest.raises(RuntimeError, match="not -1"):
        cartan_finite(diagram, _count(diagram, comp))
    with pytest.raises(RuntimeError, match="not -1"):
        _read_rules(diagram)
    # the path 0 - 1 - 2 with every edge label -1 and the middle label
    # z(4,1): read as a graph alone it would be the finite tree A3, so the
    # guard covers finite components too
    labels = (((2,), (2,), (0,)), ((0,), (1,), (2,)), ((0,), (0,), (2,)))
    diagram = GeneralizedDynkinDiagram(4, range(3), ((0, 1),), labels)
    assert diagram.components() == ((0, 1, 2),)
    assert {w for _, _, w in diagram.edges} == {2}
    with pytest.raises(RuntimeError, match="not -1"):
        cartan_finite(diagram, {0: 1, 1: 1, 2: 1})
    with pytest.raises(RuntimeError, match="not -1"):
        _read_rules(diagram)


def _graph(size, pairs, label=2):
    # over Z/4, one vertex (j, 0) per column j, every vertex label -1, and
    # an edge with the given label, an exponent of zeta_4, on each pair
    edges = {tuple(sorted(p)) for p in pairs}
    labels = tuple(tuple((2 if a == b else label if (a, b) in edges else 0,)
                         for b in range(size)) for a in range(size))
    return GeneralizedDynkinDiagram(4, range(size), ((0, 1),), labels)


def _ones(nodes):
    return dict.fromkeys(nodes, 1)


def test_a_forked_tree_is_refused_by_the_decision():
    # no candidate subrack makes a tree with a fork (cartan_finite), so the
    # decision refuses one rather than read it: the affine tree E6(1)
    # (three arms of two edges) on the first seven columns, two isolated
    # vertices beside it
    diagram = _graph(9, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    with pytest.raises(RuntimeError, match="fork"):
        _read_rules(diagram)
    # the cartan-infinite rule of the witness check fires on its values;
    # without a leaf the tree is E6, of finite type
    tree = range(7)
    q = [[diagram.labels[a][b][0] for b in tree] for a in tree]
    assert _cartan_infinite(q, diagram.modulus) == _matrix(diagram, tree)
    for leaf in (2, 4, 6):
        kept = [x for x in tree if x != leaf]
        assert _cartan_infinite([[q[a][b] for b in kept] for a in kept],
                                diagram.modulus) is None


def _matrix(diagram, comp):
    return [[2 if a == b else -1 if b in diagram.adjacent(a) else 0
             for b in comp] for a in comp]


@st.composite
def simply_laced_graphs(draw):
    # a random forest on up to 8 vertices (each vertex hangs off an earlier
    # one or starts a new tree), with or without extra edges closing cycles
    size = draw(st.integers(1, 8))
    pairs = []
    for v in range(1, size):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            pairs.append((parent, v))
    if size > 2 and draw(st.booleans()):
        extra = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        pairs += [(a, b) for a, b in draw(st.lists(extra, max_size=3)) if a != b]
    return _graph(size, pairs)


@settings(max_examples=400, deadline=None)
@given(simply_laced_graphs())
def test_dynkin_shape_agrees_with_the_catalog_lookup(diagram):
    # a tree with a fork is refused; every other component reads as the
    # lookup reads it, and so does the whole graph when none is refused
    finite = []
    for comp in diagram.components():
        a = _matrix(diagram, comp)
        if _forked(a):
            with pytest.raises(RuntimeError, match="fork"):
                cartan_finite(diagram, _ones(comp))
            finite.append(FORK)
            continue
        finite.append(cartan_finite(diagram, _ones(comp)))
        assert finite[-1] == finite_type_lookup(a), comp
    if FORK not in finite:
        everyone = range(len(diagram.nodes))
        assert all(finite) == finite_type_lookup(_matrix(diagram, everyone))


def _path(size, start=0):
    return [(v, v + 1) for v in range(start, start + size - 1)]


def test_dynkin_shape_fixed_cases():
    # the A9 chain is beyond the rank-8 lookup, and finite
    assert cartan_finite(_graph(9, _path(9)), _ones(range(9))) is True
    assert cartan_finite(_graph(1, []), _ones((0,))) is True
    # trees with a fork, finite or not, are refused
    forked = {"D5": (5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
              "E8": (8, [(0, 1), (0, 2), (2, 3), (0, 4)] + _path(4, 4)),
              "K1,4": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
              "D5(1)": (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]),
              "E6(1)": (7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])}
    for name, (size, pairs) in forked.items():
        with pytest.raises(RuntimeError, match="fork"):
            cartan_finite(_graph(size, pairs), _ones(range(size)))
    cycle = _graph(6, _path(6) + [(5, 0)])
    assert cartan_finite(cycle, _ones(range(6))) is False
    chorded = _graph(4, _path(4) + [(3, 0), (0, 2)])
    assert cartan_finite(chorded, _ones(range(4))) is False
    # an edge label other than -1 is no Cartan entry: not a shape at all
    assert cartan_finite(_graph(2, [(0, 1)], 1),
                         _ones((0, 1))) is None


def test_dynkin_shape_counts_twins():
    # in two columns, a node of one member (node 2) adjacent to a node of
    # one (node 0) and to a node of four twins (node 1): read with some of
    # the twins it is a star or a path; and a node of twins without edges
    # is one A1 per member
    diagram = GeneralizedDynkinDiagram(4, range(2), ((0, 1), (1, 4)),
                                       (((2, 2), (2, 0)), ((0, 0), (2, 2))))
    assert diagram.edges == ((0, 2, 2), (1, 2, 2))
    assert cartan_finite(diagram, {2: 1, 1: 2}) is True
    for count in ({2: 1, 1: 3}, {2: 1, 1: 4}, {0: 1, 2: 1, 1: 2},
                  _count(diagram, range(4))):
        with pytest.raises(RuntimeError, match="fork"):
            cartan_finite(diagram, count)
    twins = GeneralizedDynkinDiagram(2, range(1), ((0, 5),), (((1,),),))
    assert twins.edges == () and twins.components() == ((0,),)
    assert cartan_finite(twins, {0: 5}) is True
    # three columns of two twins, column 0 adjacent to columns 1 and 2:
    # two twins of column 0 close a 4-cycle, two of column 1 make a fork
    fan = GeneralizedDynkinDiagram(4, range(3), ((0, 2),),
                                   (((2,), (2,), (2,)), ((0,), (2,), (0,)),
                                    ((0,), (0,), (2,))))
    assert fan.edges == ((0, 1, 2), (0, 2, 2))
    assert cartan_finite(fan, {0: 2, 1: 1, 2: 1}) is False
    assert cartan_finite(fan, _count(fan, range(3))) is False
    with pytest.raises(RuntimeError, match="fork"):
        cartan_finite(fan, {0: 1, 1: 2, 2: 1})


# the proof in cartan_finite's docstring, checked: the shapes of the
# conjugation tables of the candidate subracks, and every diagram that the
# triple can make on at most four characters

def _proof_classes():
    # k = 2 with n = 2..10, and even k = 4..16 with n = 2..6
    yield from ((2, n) for n in range(2, 11))
    yield from ((k, n) for k in range(4, 17, 2) for n in range(2, 7))


def test_candidate_subracks_have_the_table_shapes_of_the_proof():
    kinds = []
    for k, n in _proof_classes():
        cls = UnmixedClass(k, n)
        pi = cls.basepoint
        for subrack in _candidates(cls):
            kinds.append(subrack.kind)
            g = tuple(tuple(oracles.gamma(subrack, i, j)
                            for j in range(subrack.size))
                      for i in range(subrack.size))
            if subrack.kind == "canonical-triple":
                x, y = g[0][1], g[0][2]
                assert g == ((pi, x, y), (x, pi, x), (y, y, pi)), (k, n)
                assert x * x == y * y == Permutation.identity(cls.degree)
                continue
            assert subrack.kind in ("quadruple-rotation", "quadruple-swap")
            f = g[0]
            assert all(g[i][j] == f[i ^ j] for i in range(4) for j in range(4))
            assert (f[0], f[1], f[3]) == (pi, pi.inverse(), f[2].inverse()), (
                k, n, subrack.kind)
    assert len(kinds) == 79
    assert kinds.count("canonical-triple") == 9


# the signs (psi(x), psi(y)) of the four characters of the triple, as
# exponents mod 2; psi(pi) = -1 for each
SIGNS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _triple_diagram(mults):
    # the diagram of the triple's table for the characters of SIGNS with
    # the given multiplicities
    used = [(signs, m) for signs, m in zip(SIGNS, mults) if m]
    values = [(1,) + signs for signs, _ in used]   # at pi, x and y
    place = ((0, 1, 2), (1, 0, 1), (2, 2, 0))      # of gamma_ij among them
    labels = tuple(tuple(tuple(v[place[i][j]] for v in values)
                         for j in range(3)) for i in range(3))
    mults = [m for _, m in used]
    return GeneralizedDynkinDiagram(
        2, range(3), tuple(zip(itertools.accumulate(mults, initial=0), mults)),
        labels)


def test_the_triple_makes_no_tree_with_a_fork():
    # every multiset of the four characters of total multiplicity at most
    # 4: a fork and its three neighbors use no more, so a fork anywhere
    # would show on one of these; each is read as the reference reads it
    multisets = [m for m in itertools.product(range(5), repeat=4)
                 if 0 < sum(m) <= 4]
    assert len(multisets) == 69
    components = 0
    for mults in multisets:
        diagram = _triple_diagram(mults)
        readings = [finite for *_, finite in _read_components(diagram)]
        assert FORK not in readings, mults
        components += len(diagram.components())
    assert components == 123


def _minus_one_characters(plan):
    # the exponents of the linear characters psi of H with psi(pi) = -1,
    # in order: the characters a row past the scalar gate can hold, from
    # the reference's listing of every character of H
    at_pi = plan.table[0][0]
    reference = oracles.permutation_spectrum_plan(plan.subrack.cls,
                                                  plan.distinct)
    return sorted(exps for _, exps in reference.characters
                  if exps[at_pi] == reference.k // 2)


def _moved(vertices, capped, full):
    # vertices (j, s) of the capped diagram at the full one's indices: run
    # t keeps its place, its first index moves to the full offset
    moved = []
    for j, s in vertices:
        t = node_of(capped, (j, s)) % len(capped.offsets)
        moved.append((j, full.offsets[t] + s - capped.offsets[t]))
    return tuple(moved)


def _alone(length, place, mults=range(1, 6)):
    # the patterns of one psi, at the given place, alone
    return [tuple(m if t == place else 0 for t in range(length))
            for m in mults]


def test_the_rules_read_a_capped_pattern_as_the_full_spectrum():
    # every pattern of multiplicities 0 to 5 over the characters that pass
    # the scalar gate, on the triple (k = 2) and both quadruples at k = 4
    # and k = 6: the rules on the diagram capped at three members per node
    # fire the rule of the full diagram, on its firing set and cycle under
    # the offset map, with the same fields, and draw the same witness
    counts = {}
    undecided = {}
    for k, n in ((2, 4), (4, 3), (6, 2)):
        for subrack in _candidates(UnmixedClass(k, n)):
            plan = subrack_plan(subrack)
            psis = _minus_one_characters(plan)
            for mults in itertools.product(range(6), repeat=len(psis)):
                spectrum = [(exps, m) for exps, m in zip(psis, mults) if m]
                if not spectrum:
                    continue
                full = spectrum_diagram(plan, spectrum)
                capped = spectrum_diagram(
                    plan, [(exps, min(m, 3)) for exps, m in spectrum])
                want = _read_rules(full)
                got = _read_rules(capped)
                key = (k, subrack.kind, want and want[0])
                counts[key] = counts.get(key, 0) + 1
                if want is None:
                    assert got is None, (k, subrack.kind, mults)
                    undecided.setdefault(key[:2], []).append(mults)
                    continue
                rule, firing, detail, order = got
                assert (rule, _moved(firing, capped, full), detail,
                        _moved(order, capped, full)) == want, (
                    k, subrack.kind, mults)
                assert (_template(plan, capped, *got).verdict(spectrum)
                        == rectangle_witness(plan, spectrum, full, *want))
    # 6^4 - 1 patterns on the triple, 6^2 - 1 on a quadruple with two such
    # characters and 6^3 - 1 on the k = 6 rotation quadruple, which has
    # three; the undecided ones go on to the negativity check
    assert counts == {
        (2, "canonical-triple", "cartan-infinite"): 1279,
        (2, "canonical-triple", None): 16,
        (4, "quadruple-rotation", "cartan-infinite"): 25,
        (4, "quadruple-rotation", None): 10,
        (4, "quadruple-swap", "cartan-infinite"): 25,
        (4, "quadruple-swap", None): 10,
        (6, "quadruple-rotation", "alternating-cycle"): 210,
        (6, "quadruple-rotation", None): 5,
        (6, "quadruple-swap", "cartan-infinite"): 25,
        (6, "quadruple-swap", None): 10}
    # on the triple, the first or the last psi alone at any multiplicity,
    # the second or the third alone once, and four pairs once each; on a
    # quadruple with two such characters, either alone; on the k = 6
    # rotation quadruple, the second alone
    either = sorted(_alone(2, 0) + _alone(2, 1))
    assert undecided == {
        (2, "canonical-triple"): sorted(
            _alone(4, 0) + _alone(4, 3) + _alone(4, 1, (1,))
            + _alone(4, 2, (1,))
            + [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]),
        (4, "quadruple-rotation"): either,
        (4, "quadruple-swap"): either,
        (6, "quadruple-rotation"): _alone(3, 1),
        (6, "quadruple-swap"): either}


def test_the_template_is_read_as_the_rectangle_diagram_reads(grid_spaces):
    # every capped pattern that a subspace of the grid meets and the rules
    # fire on: the template read off the rectangle's label table in one
    # pass is the one read off the rectangle's own diagram, field by field
    # and in its DOT text (oracles.template)
    seen = set()
    fired = 0
    for k, n, spec, plan, diagram, space, pairs in grid_spaces:
        pattern = tuple((exps, min(mult, 3)) for exps, mult in
                        planned_spectrum(plan.spectrum, spec.character()))
        if (plan.subrack, pattern) in seen:
            continue
        seen.add((plan.subrack, pattern))
        capped = spectrum_diagram(plan, pattern)
        reading = _read_rules(capped)
        if reading is None:
            continue
        got = _template(plan, capped, *reading)
        want = oracles.template(plan, capped, *reading)
        assert list(got.fields) == list(want.fields)
        for key, value in want.fields.items():
            assert got.fields[key] == value, (k, n, pattern, key)
        assert got.rule == want.rule and got.columns == want.columns
        assert got.runs == want.runs
        assert got.dot == want.dot, (k, n, pattern)
        fired += 1
    # 149 capped patterns over the grid's subracks, 122 of them fired
    assert (len(seen), fired) == (149, 122)


def test_every_pattern_a_golden_row_meets_is_decided_or_of_degree_one():
    # the tier-1 golden grid: on the last candidate subrack, which sends a
    # row that it does not decide on to the negativity check, every
    # capped pattern met fires a rule or has total multiplicity 1 (a
    # degree-1 row).  The rotation quadruple, tried first at even k >= 4,
    # leaves a few patterns of one psi undecided, which the swap
    # quadruple then decides.  Every witness that the rules give shares
    # all of its fields with the template of its pattern, save its
    # vertices and its DOT text
    passed = {}
    rows = varied = 0
    for k, n in sorted(DIGESTS):
        witnesses = [decide(k, n, spec).witness
                     for spec in enumerate_irreps(k, n)]
        plans = class_plan(k, n)
        last = [plan.subrack for plan in plans.plans()][-1:]
        templates = {}
        for (subrack, pattern), template in plans._patterns.items():
            if template is not None:
                templates[id(template.fields["q_matrix"])] = template
            elif sum(m for _, m in pattern) > 1:
                assert [subrack] != last, (k, n, pattern)
                passed.setdefault(subrack.kind, set()).add(pattern)
        drawn = {}
        for witness in witnesses:
            if "q_matrix" not in witness:
                continue
            rows += 1
            template = templates[id(witness["q_matrix"])]
            assert witness.keys() == template.fields.keys() | {
                "vertices", "diagram_dot"}
            assert all(witness[key] is value
                       for key, value in template.fields.items())
            drawn.setdefault(id(template), set()).add(witness["diagram_dot"])
        varied += sum(len(dots) > 1 for dots in drawn.values())
    # one psi of multiplicity 2 or more at k = 4, 6, 8 and 10
    assert passed == {"quadruple-rotation": {
        (((2, 2, 0, 0), 3),), (((2, 2, 2, 2), 2),), (((2, 2, 2, 2), 3),),
        (((3, 3, 3, 3), 2),), (((3, 3, 3, 3), 3),), (((4, 4, 0, 0), 3),),
        (((4, 4, 4, 4), 2),), (((4, 4, 4, 4), 3),), (((5, 5, 5, 5), 2),),
        (((5, 5, 5, 5), 3),)}}
    # witnesses drawn from a template, and templates drawn more than one way
    assert (rows, varied) == (4893, 68)


@st.composite
def small_graphs(draw):
    size = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(size), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return _graph(size, chosen)


@st.composite
def cycle_unions(draw):
    # a few cycles on shared vertices: sparse, with several shortest cycles
    # of length above 3, where the tie-break decides
    size = draw(st.integers(3, 12))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        cycle = draw(st.lists(st.integers(0, size - 1), min_size=3,
                              max_size=min(size, 7), unique=True))
        pairs += zip(cycle, cycle[1:] + cycle[:1])
    return _graph(size, pairs)


def _shortest_cycles(diagram):
    # the package's cycle over every vertex (j, 0), as columns, and the
    # reference cycle of the pairwise diagram
    cycle = _shortest_cycle(_twins(diagram, range(len(diagram.nodes))))
    want = shortest_cycle(dynkin_diagram_by_pairs(vertex_space(diagram)))
    return (None if cycle is None else tuple(j for j, _ in cycle)), want


def test_shortest_cycle_ties_go_to_the_least_sorted_tuple():
    # two 5-cycles through 0; the edge (0, 3) comes first, but the other
    # cycle sorts lower
    diagram = _graph(9, [(0, 3), (3, 7), (7, 8), (8, 4), (4, 0),
                         (0, 5), (5, 1), (1, 2), (2, 6), (6, 0)])
    cycle, want = _shortest_cycles(diagram)
    assert sorted(cycle) == [0, 1, 2, 5, 6]
    assert cycle == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), cycle_unions()))
def test_shortest_cycle_is_a_girth_cycle_and_the_reference_cycle(diagram):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(diagram.nodes)))
    graph.add_edges_from((a, b) for a, b, _ in diagram.edges)
    cycle, want = _shortest_cycles(diagram)
    assert cycle == want
    if cycle is None:
        assert nx.girth(graph) == math.inf
        return
    assert len(cycle) == nx.girth(graph)
    assert len(set(cycle)) == len(cycle)
    assert all(graph.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))
