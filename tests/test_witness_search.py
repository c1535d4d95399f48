"""The witness search of nichols.verdict against the enumerating reference
in oracles: the same firing tuple on every non-finite Cartan component, and
the same cycle on random graphs."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from nichols.braidspace import (DiagonalSubspace, GeneralizedDynkinDiagram,
                                diagonal_subspace, dynkin_diagram)
from nichols.exactfield import ROOT_MINUS_ONE
from nichols.permgroup import UnmixedClass
from nichols.reps import enumerate_irreps, pi_scalar
from nichols.verdict import (CartanData, _minimal_infinite_set,
                             _shortest_cycle, candidate_subracks, cartan_type,
                             finite_type, scalar_gate)

from oracles import minimal_infinite_set, shortest_cycle


def _non_finite_components(space):
    diagram = dynkin_diagram(space)
    for comp in diagram.components():
        sub = space.restrict(space.vertices[x] for x in comp)
        data = cartan_type(sub.braiding_matrix())
        if isinstance(data, CartanData) and not finite_type(data):
            yield diagram, sub, comp


def test_witness_search_matches_the_reference_on_every_candidate_subrack():
    checked = 0
    for k, n in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3),
                 (4, 4), (6, 3), (8, 2), (10, 2)):
        cls = UnmixedClass(k, n)
        for spec in enumerate_irreps(k, n):
            if scalar_gate(pi_scalar(spec), k) is not None:
                continue
            character = spec.character()
            for subrack in candidate_subracks(cls):
                space = diagonal_subspace(subrack, character)
                for diagram, sub, comp in _non_finite_components(space):
                    want = minimal_infinite_set(space, sub, comp)
                    got = _minimal_infinite_set(space, diagram, comp)
                    assert got == want, (k, n, spec.label(), subrack.kind)
                    checked += 1
    assert checked == 284


@st.composite
def labeled_spaces(draw):
    # 3 or 4 columns over a random sign table with -1 on the diagonal,
    # as past the scalar gate: triangles of every tier, and cycles
    columns = draw(st.integers(3, 4))
    degree = draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(0, 1), min_size=columns * columns * degree,
                         max_size=columns * columns * degree))
    labels = tuple(
        tuple(tuple(1 if i == j else bits[(i * columns + j) * degree + s]
                    for s in range(degree))
              for j in range(columns))
        for i in range(columns))
    vertices = [(j, s) for j in range(columns) for s in range(degree)]
    return DiagonalSubspace(None, 2, labels, vertices)


@settings(max_examples=300, deadline=None)
@given(labeled_spaces())
def test_witness_search_matches_the_reference_on_random_sign_tables(space):
    for diagram, sub, comp in _non_finite_components(space):
        assert (_minimal_infinite_set(space, diagram, comp)
                == minimal_infinite_set(space, sub, comp))


def test_witness_search_needs_minus_one_vertex_labels():
    # a vertex label 1 breaks "one column holds no edge", on which the
    # triangle tiers rest: the search raises rather than guess
    labels = (((0, 1), (0, 1), (1, 0)), ((1, 0), (1, 1), (0, 1)),
              ((0, 1), (1, 0), (1, 1)))
    space = DiagonalSubspace(None, 2, labels,
                             [(j, s) for j in range(3) for s in range(2)])
    diagram = dynkin_diagram(space)
    comp = max(diagram.components(), key=len)
    with pytest.raises(RuntimeError, match="not -1"):
        _minimal_infinite_set(space, diagram, comp)


def _graph(size, pairs):
    edges = {tuple(sorted(p)) for p in pairs}
    return GeneralizedDynkinDiagram(
        [ROOT_MINUS_ONE] * size, [(a, b, ROOT_MINUS_ONE) for a, b in edges])


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
    assert sorted(_shortest_cycle(diagram)) == [0, 1, 2, 5, 6]
    assert _shortest_cycle(diagram) == shortest_cycle(diagram)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), cycle_unions()))
def test_shortest_cycle_is_a_girth_cycle_and_the_reference_cycle(diagram):
    graph = nx.Graph()
    graph.add_nodes_from(range(diagram.size))
    graph.add_edges_from((a, b) for a, b, _ in diagram.edges)
    cycle = _shortest_cycle(diagram)
    assert cycle == shortest_cycle(diagram)
    if cycle is None:
        assert nx.girth(graph) == math.inf
        return
    assert len(cycle) == nx.girth(graph)
    assert len(set(cycle)) == len(cycle)
    assert all(graph.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))
    # a bound below the girth finds nothing, a bound at it the same cycle
    assert _shortest_cycle(diagram, limit=len(cycle) - 1) is None
    assert _shortest_cycle(diagram, limit=len(cycle)) == cycle
