"""The component reading and the witness search of nichols.verdict against
the references in oracles: the same Cartan and finite-type answer and label
as the general Cartan-matrix reading on every component, the same firing
tuple as the enumerating search on every non-finite Cartan component, the
same cycle on random graphs, and the same diagram on twin blocks as the one
built vertex pair by vertex pair."""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import nichols.verdict
from nichols.braidspace import (DiagonalSubspace, GeneralizedDynkinDiagram,
                                canonical_subrack, diagonal_subspace,
                                dynkin_diagram, rotation_subrack, subrack_plan)
from nichols.cli import _build_subrack
from nichols.exactfield import ROOT_MINUS_ONE, ROOT_ONE, RootOfUnity
from nichols.permgroup import UnmixedClass
from nichols.reps import enumerate_irreps, parse_rep_spec, pi_scalar
from nichols.verdict import (INFINITE, _cartan_infinite, _minimal_infinite_set,
                             _shortest_cycle, _subspace_rules, class_plan,
                             dynkin_shape, scalar_gate, verify_witness)

from oracles import (CartanData, braiding_matrix, cartan_type, diagram_label,
                     dynkin_diagram_by_pairs, finite_type, finite_type_lookup,
                     minimal_infinite_set, shortest_cycle, tried_subracks)


def _read_components(space):
    """(diagram, restricted space, component, reading) for every component,
    each reading checked against the general Cartan-matrix reference."""
    diagram = dynkin_diagram(space)
    for comp in diagram.components():
        sub = space.restrict(space.vertices[x] for x in comp)
        data = cartan_type(braiding_matrix(sub))
        shape = dynkin_shape(diagram, comp)
        assert (shape is not None) == isinstance(data, CartanData), comp
        if shape is not None:
            assert shape.finite == finite_type(data), comp
            assert shape.label == diagram_label(data), comp
        yield diagram, sub, comp, shape


def _non_finite_components(space):
    for diagram, sub, comp, shape in _read_components(space):
        if shape is not None and not shape.finite:
            yield diagram, sub, comp


def test_witness_search_matches_the_reference_on_every_candidate_subrack():
    # every component is read as the reference reads it, finite or not,
    # Cartan or not; the non-finite ones are shrunk as the reference does
    read = checked = 0
    for k, n, spec, subrack, space in _grid_spaces():
        for diagram, sub, comp, shape in _read_components(space):
            read += 1
            if shape is None or shape.finite:
                continue
            want = minimal_infinite_set(space, sub, comp)
            got = _minimal_infinite_set(space, diagram, comp)
            assert got == want, (k, n, spec.label(), subrack.kind)
            checked += 1
    assert checked == 284
    assert read == 780


# the classes whose tried subspaces past the scalar gate are walked
GRID = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3), (4, 4),
        (6, 3), (8, 2), (10, 2))


def _grid_spaces():
    for k, n in GRID:
        cls = UnmixedClass(k, n)
        for spec in enumerate_irreps(k, n):
            if scalar_gate(pi_scalar(spec), k) is not None:
                continue
            character = spec.character()
            for subrack in tried_subracks(cls):
                space = diagonal_subspace(subrack_plan(subrack), character)
                yield k, n, spec, subrack, space


def _shape_or_raise(diagram, comp):
    try:
        return dynkin_shape(diagram, comp)
    except RuntimeError as exc:
        return str(exc)


def _assert_same_diagram(space):
    # the diagram on twin blocks reads exactly as the one built pair by pair
    got = dynkin_diagram(space)
    _assert_same_graph(got, dynkin_diagram_by_pairs(space))
    return got


def _assert_same_graph(got, want):
    assert got.vertex_labels == want.vertex_labels
    assert got.names == want.names
    assert got.edges == want.edges
    everyone = range(want.size)
    for a in everyone:
        assert got.neighbors(a) == want.neighbors(a)
        assert got.neighbor_set(a) == want.neighbor_set(a)
        assert ([got.edge_label(a, b) for b in everyone]
                == [want.edge_label(a, b) for b in everyone])
    assert got.components() == want.components()
    for comp in want.components():
        assert _shape_or_raise(got, comp) == _shape_or_raise(want, comp)


def test_block_diagram_reads_as_its_vertex_expansion():
    # random blocks, not necessarily runs, with random edges between and
    # within them, against the same graph given vertex by vertex
    rng = random.Random(1978)
    other = RootOfUnity(4, 1)
    for _ in range(400):
        size = rng.randint(1, 10)
        order = rng.sample(range(size), size)
        blocks = []
        while order:
            cut = rng.randint(1, 3)
            blocks.append(sorted(order[:cut]))
            order = order[cut:]
        labels = [ROOT_MINUS_ONE] * size
        for members in blocks:
            if rng.random() < 0.1:
                for v in members:
                    labels[v] = other
        block_edges = [(x, y, ROOT_MINUS_ONE if rng.random() < 0.9 else other)
                       for x in range(len(blocks))
                       for y in range(x, len(blocks)) if rng.random() < 0.3]
        vertex_edges = [(min(a, b), max(a, b), w) for x, y, w in block_edges
                        for a in blocks[x] for b in blocks[y]
                        if a < b or (x != y and a != b)]
        got = GeneralizedDynkinDiagram(labels, block_edges, blocks=blocks)
        want = GeneralizedDynkinDiagram(labels, vertex_edges)
        _assert_same_graph(got, want)


def test_twin_blocks_read_as_the_pairwise_diagram():
    # every candidate subspace of the grid, and a random restriction of
    # each, in random order (blocks split) and in subspace order
    rng = random.Random(2003)
    merged = 0
    for k, n, spec, subrack, space in _grid_spaces():
        diagram = _assert_same_diagram(space)
        merged += len(diagram.blocks) < diagram.size
        chosen = rng.sample(space.vertices, rng.randint(1, space.size))
        _assert_same_diagram(space.restrict(chosen))
        _assert_same_diagram(space.restrict(sorted(chosen)))
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
    space = diagonal_subspace(plan, spec.character())
    _assert_same_diagram(space)


def test_adjacent_twins_form_one_component():
    # at (4,3) with chi=(1,1,1);mu=standard every vertex label is z(4,3):
    # the two twins of each column are adjacent, and so is every other pair
    cls = UnmixedClass(4, 3)
    space = diagonal_subspace(subrack_plan(rotation_subrack(cls)),
                              parse_rep_spec(4, 3, "chi=(1,1,1);mu=standard")
                              .character())
    diagram = _assert_same_diagram(space)
    assert diagram.blocks == ((0, 1), (2, 3), (4, 5), (6, 7))
    assert all(x in diagram.block_adjacent(x) for x in range(4))
    assert diagram.components() == (tuple(range(8)),)
    assert len(diagram.edges) == 28
    assert all(v not in diagram.neighbor_set(v) for v in range(8))


@st.composite
def labeled_spaces(draw):
    # 3 or 4 columns over a random sign table with -1 on the diagonal, as
    # past the scalar gate, for 1 to 4 characters of multiplicity 1 to 4:
    # the labels are constant on a run, so each column holds blocks of up
    # to 4 twins.  Triangles of every expansion, and cycles through twins
    columns = draw(st.integers(3, 4))
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    runs = tuple(r for r, mult in enumerate(mults) for _ in range(mult))
    count = columns * columns * len(mults)
    bits = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    labels = tuple(
        tuple(tuple(1 if i == j else bits[(i * columns + j) * len(mults) + r]
                    for r in runs)
              for j in range(columns))
        for i in range(columns))
    vertices = [(j, s) for j in range(columns) for s in range(len(runs))]
    return DiagonalSubspace(None, 2, labels, vertices, runs)


@settings(max_examples=300, deadline=None)
@given(labeled_spaces())
def test_witness_search_matches_the_reference_on_random_sign_tables(space):
    # every component is read as the reference reads it (in
    # _read_components); the non-finite ones are shrunk alike
    for diagram, sub, comp in _non_finite_components(space):
        assert (_minimal_infinite_set(space, diagram, comp)
                == minimal_infinite_set(space, sub, comp))


def test_cycle_search_sees_at_most_two_twins_per_block(monkeypatch):
    # at (4,4) the cycle search runs 948 times, on components whose blocks
    # hold up to 12 twins, and is given only the first two of each block.
    # (At (2,6) every non-finite component has a triangle, so it never runs)
    given = []

    def spy(diagram, vertices):
        given.append((diagram, vertices))
        return _shortest_cycle(diagram, vertices)

    monkeypatch.setattr(nichols.verdict, "_shortest_cycle", spy)
    largest = 0
    plans = class_plan(4, 4)
    for spec in enumerate_irreps(4, 4):
        if scalar_gate(pi_scalar(spec), 4) is not None:
            continue
        for subrack in plans.subracks:
            space = diagonal_subspace(plans.subrack_plan(subrack),
                                      spec.character())
            for diagram, sub, comp in _non_finite_components(space):
                _minimal_infinite_set(space, diagram, comp)
                largest = max(largest, max(
                    len(diagram.blocks[diagram.block_of[v]]) for v in comp))
    assert largest == 12 and len(given) == 948
    for diagram, vertices in given:
        assert all(v in diagram.blocks[diagram.block_of[v]][:2]
                   for v in vertices)


def _decide_on(monkeypatch, space):
    # the rules of one subrack, run on a given diagonal subspace
    monkeypatch.setattr(nichols.verdict, "diagonal_subspace",
                        lambda plan, character: space)
    return _subspace_rules(None, None)


def test_witness_search_needs_minus_one_vertex_labels(monkeypatch):
    # a vertex label 1 breaks "twins are never adjacent", on which the
    # pruning of the witness search rests: the reading raises rather than
    # guess
    labels = (((0, 1), (0, 1), (1, 0)), ((1, 0), (1, 1), (0, 1)),
              ((0, 1), (1, 0), (1, 1)))
    space = DiagonalSubspace(None, 2, labels,
                             [(j, s) for j in range(3) for s in range(2)],
                             (0, 1))
    diagram = dynkin_diagram(space)
    comp = max(diagram.components(), key=len)
    with pytest.raises(RuntimeError, match="not -1"):
        dynkin_shape(diagram, comp)
    with pytest.raises(RuntimeError, match="not -1"):
        _decide_on(monkeypatch, space)
    # the path 0 - 1 - 2 with every edge label -1 and the middle label
    # z(4,1): read as a graph alone it would be the finite tree A3, so the
    # guard covers finite components too
    labels = (((2,), (2,), (0,)), ((0,), (1,), (2,)), ((0,), (0,), (2,)))
    space = DiagonalSubspace(None, 4, labels, [(j, 0) for j in range(3)],
                             (0,))
    diagram = dynkin_diagram(space)
    assert diagram.components() == ((0, 1, 2),)
    assert {w for _, _, w in diagram.edges} == {ROOT_MINUS_ONE}
    with pytest.raises(RuntimeError, match="not -1"):
        dynkin_shape(diagram, (0, 1, 2))
    with pytest.raises(RuntimeError, match="not -1"):
        _decide_on(monkeypatch, space)


def _one_vector_space(subrack, size, pairs):
    # one eigenvector per column, every vertex label -1, and an edge
    # labelled -1 on each given pair
    bits = [[int(i == j) for j in range(size)] for i in range(size)]
    for i, j in pairs:
        bits[min(i, j)][max(i, j)] = 1
    labels = tuple(tuple((b,) for b in row) for row in bits)
    return DiagonalSubspace(subrack, 2, labels, [(j, 0) for j in range(size)],
                            (0,))


def test_a_non_finite_tree_is_its_own_witness(monkeypatch):
    # no row has a non-finite tree component, so the whole-component
    # branch of the witness search runs on a synthetic diagram: the affine
    # tree E6(1) (three arms of two edges) on the first seven columns of
    # the (2,4) canonical subrack, two isolated vertices beside it
    subrack = canonical_subrack(UnmixedClass(2, 4))
    assert subrack.size == 9
    space = _one_vector_space(subrack, 9, [(0, 1), (1, 2), (0, 3), (3, 4),
                                           (0, 5), (5, 6)])
    verdict = _decide_on(monkeypatch, space)
    assert verdict.outcome == INFINITE and verdict.rule == "cartan-infinite"
    firing = verdict.witness["firing"]
    assert firing == list(range(7))
    assert verdict.witness["label"] is None
    assert len(verdict.witness["cartan_matrix"]) == 7
    # the rule fires on the recorded values; without a leaf the tree is E6,
    # of finite type
    values = {"1": ROOT_ONE, "-1": ROOT_MINUS_ONE}
    q = [[values[x] for x in row] for row in verdict.witness["q_matrix"]]
    assert _cartan_infinite([[q[a][b] for b in firing] for a in firing]) \
        == verdict.witness["cartan_matrix"]
    for leaf in (2, 4, 6):
        kept = [x for x in firing if x != leaf]
        assert _cartan_infinite([[q[a][b] for b in kept] for a in kept]) is None
    # but they are not a braiding of chi=(1,1,1,1);mu=trivial, whose every
    # entry on those columns is 1, so the witness check refuses them
    assert not verify_witness(2, 4, "chi=(1,1,1,1);mu=trivial", verdict)


def _graph(size, pairs, label=ROOT_MINUS_ONE):
    edges = {tuple(sorted(p)) for p in pairs}
    return GeneralizedDynkinDiagram(
        [ROOT_MINUS_ONE] * size, [(a, b, label) for a, b in edges])


def _matrix(diagram, comp):
    return [[2 if a == b else -1 if diagram.edge_label(a, b) else 0
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
    finite = []
    for comp in diagram.components():
        shape = dynkin_shape(diagram, comp)
        a = _matrix(diagram, comp)
        assert shape.finite == finite_type_lookup(a), comp
        assert shape.label == diagram_label(CartanData(a, (2,) * len(a)))
        finite.append(shape.finite)
    assert all(finite) == finite_type_lookup(_matrix(diagram, range(diagram.size)))


def _path(size, start=0):
    return [(v, v + 1) for v in range(start, start + size - 1)]


def test_dynkin_shape_fixed_cases():
    # the A9 chain is beyond the rank-8 lookup, and finite
    assert dynkin_shape(_graph(9, _path(9)), range(9)) == (True, "A9")
    assert dynkin_shape(_graph(1, []), (0,)) == (True, "A1")
    named = {"D5": [(0, 1), (0, 2), (0, 3), (3, 4)],
             "E8": [(0, 1), (0, 2), (2, 3), (0, 4)] + _path(4, 4)}
    for name, pairs in named.items():
        size = max(max(p) for p in pairs) + 1
        assert dynkin_shape(_graph(size, pairs), range(size)) == (True, name)
    affine = {"K1,4": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
              "D5(1)": (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]),
              "E6(1)": (7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])}
    for name, (size, pairs) in affine.items():
        shape = dynkin_shape(_graph(size, pairs), range(size))
        assert shape == (False, None), name
    cycle = _graph(6, _path(6) + [(5, 0)])
    assert dynkin_shape(cycle, range(6)) == (False, "A5(1)")
    chorded = _graph(4, _path(4) + [(3, 0), (0, 2)])
    assert dynkin_shape(chorded, range(4)) == (False, None)
    # an edge label other than -1 is no Cartan entry: not a shape at all
    assert dynkin_shape(_graph(2, [(0, 1)], RootOfUnity(4, 1)),
                        (0, 1)) is None


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


def test_shortest_cycle_ties_go_to_the_least_sorted_tuple():
    # two 5-cycles through 0; the edge (0, 3) comes first, but the other
    # cycle sorts lower
    diagram = _graph(9, [(0, 3), (3, 7), (7, 8), (8, 4), (4, 0),
                         (0, 5), (5, 1), (1, 2), (2, 6), (6, 0)])
    cycle = _shortest_cycle(diagram, range(diagram.size))
    assert sorted(cycle) == [0, 1, 2, 5, 6]
    assert cycle == shortest_cycle(diagram)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), cycle_unions()))
def test_shortest_cycle_is_a_girth_cycle_and_the_reference_cycle(diagram):
    graph = nx.Graph()
    graph.add_nodes_from(range(diagram.size))
    graph.add_edges_from((a, b) for a, b, _ in diagram.edges)
    cycle = _shortest_cycle(diagram, range(diagram.size))
    assert cycle == shortest_cycle(diagram)
    if cycle is None:
        assert nx.girth(graph) == math.inf
        return
    assert len(cycle) == nx.girth(graph)
    assert len(set(cycle)) == len(cycle)
    assert all(graph.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))
