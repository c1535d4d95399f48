"""Decision engine for conjugacy-class braidings of unmixed classes.

The pipeline: a scalar gate on the basepoint value, diagonal subspaces over
structured abelian subracks, a reading of each component of their
generalized Dynkin diagrams, a labeled 4-cycle rule, a negativity check over
the centralizer classes of commuting partners.  A closed-form verdict over
the same inputs serves as an independent cross-check oracle.

Past the scalar gate every vertex label is -1, so a component is Cartan
exactly when every edge label is -1, and its matrix is then simply laced:
of finite type exactly when its graph is an A, D or E tree.  On the
candidate subracks every tree is a path, so the decision reads a Cartan
component off the nodes of the diagram by counting its edges
(cartan_finite), and searches its witnesses on at most two members of
each node.

Everything runs on the character of the representation: braidings are
roots of unity with integer exponents, and a negative pair is read off
the product of two character values.  What does not depend on the
representation (the plans of the candidate subracks, each carrying its
subrack, and the partner classes) is built once per class, by the first
row that needs it, and kept in the class plan, and so is the answer of
the subspace rules, which depends on the representation only through its
character on the group of the subrack's table entries, and what the rules
read off each pattern of its multiplicities capped at 3.  A row reads all
of it from the one class plan that decide looks up, the negativity check
included.

Outcomes: "InfiniteDim" always carries a machine-checkable witness, and
"NegativeBraiding" carries the verified pair inventory.  For an unmixed
class every braiding is one or the other, so an input that no rule decides
is a defect of the engine and raises.  Each InfiniteDim witness is
re-checked on its own by nichols.witness (verify_witness, imported here).
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple, Optional

from . import braidspace
from .braidspace import (DOT_EDGE, DOT_VERTEX, GeneralizedDynkinDiagram,
                         SubrackPlan, quadruple_subrack, rotation_subrack,
                         spectrum_diagram, subrack_plan, triple_subrack)
from .exactfield import integer_value, root_name
from .permgroup import PartnerClass, UnmixedClass
from .reps import InducedCharacter, pi_scalar, resolve_spec
from .witness import INFINITE, verify_witness

NEGATIVE = "NegativeBraiding"


class Verdict(NamedTuple):
    """An outcome, the rule that decided it and its witness.  Rows of one
    class whose characters restrict alike to the group of a subrack that
    fires share one verdict, witness included (ClassPlan.subspace_rules),
    and rows of one capped pattern share every witness field but the
    vertices and the DOT text (_Template), so a caller must treat the
    witness as read-only.  No decision sets flags: a JSON row prints them
    as [], and the text format prints none."""

    outcome: str
    rule: str
    witness: dict
    flags: tuple = ()


@cache
def scalar_gate(q: int, ord_pi: int) -> Optional[Verdict]:
    """Infinite unless the basepoint has even order and acts by -1: its
    scalar is zeta_ord_pi^q, q < ord_pi, which is -1 exactly when
    2q = ord_pi.

    Returns the infinite verdict, or None to pass: one per (q, ord_pi) for
    the life of the process, shared by every row it decides."""
    if ord_pi % 2:
        reason = "basepoint has odd order"
    elif 2 * q != ord_pi:
        reason = "basepoint scalar is not -1"
    else:
        return None
    return Verdict(INFINITE, "scalar-gate",
                   {"q_scalar": root_name(ord_pi, q), "element_order": ord_pi,
                    "reason": reason})


def cartan_finite(diagram: GeneralizedDynkinDiagram,
                  count: dict) -> Optional[bool]:
    """Read the subdiagram on a connected vertex set as a Cartan diagram;
    count maps each node of the set to the number of its members in it.
    Returns None when the set is not Cartan, False when it holds a cycle
    (as many edges as vertices or more), and True otherwise.

    Every vertex label must be -1, or RuntimeError: past the scalar gate
    every character psi of H that occurs has psi(pi) = -1, and gamma_jj =
    pi.  Then q_ab q_ba = q_aa^a_ab has a solution a_ab in {0, -1} exactly
    when the edge label is 1 (no edge) or -1, so the set is Cartan exactly
    when every edge label is -1.  The matrix is then simply laced, and of
    finite type exactly when its graph is an A, D or E tree (Kac,
    Infinite-dimensional Lie algebras, 4.8).  A cycle is not a tree, and a
    path A_m is of finite type.  A tree with a fork, a vertex of degree 3
    or more, raises RuntimeError, as no candidate subrack makes one:
    - the quadruples (even k >= 4, quadruple-rotation and quadruple-swap)
      have gamma_ij = f(i XOR j) with f(0) = pi, f(1) = pi^-1 and
      f(3) = f(2)^-1.  So (i, psi) and (i XOR 1, psi) have the same
      neighbors, with inverse edge labels, and are never adjacent: their
      label is psi(pi^-1)^2 = 1.  Every edge (i, psi) - (j, phi) then lies
      in the chordless 4-cycle through (i XOR 1, psi) and (j XOR 1, phi),
      and an acyclic component is a single vertex;
    - the triple (k = 2, canonical-triple) has the table ((pi, x, y),
      (x, pi, x), (y, y, pi)) with x and y involutions, so a character is
      fixed by its signs (psi(x), psi(y)): there are at most four.  A fork
      is a vertex and three of its neighbors, whose eigenvectors carry at
      most four characters counted with multiplicity; the diagram on those
      eigenvectors, in every column, is an induced subgraph, in which the
      fork's component is still a tree.  Of the 69 multisets of the four
      characters of total multiplicity at most 4, none has a tree
      component with a fork (the test suite builds every one).

    Labels and degrees are read per node, as twins have one label and one
    degree, each label as its exponent e of zeta_modulus: -1 exactly when
    2e = modulus."""
    if any(2 * diagram.q(x, x) != diagram.modulus for x in count):
        raise RuntimeError("a vertex label is not -1 past the scalar gate, "
                           "so one column may hold adjacent vertices")
    ends = fork = 0
    for x, c in count.items():
        degree = 0
        for y, w in diagram.adjacent(x).items():
            near = count.get(y, 0) - (y == x)
            if near:
                if 2 * w != diagram.modulus:
                    return None
                degree += near
        ends += degree * c
        fork = fork or degree > 2
    if ends // 2 >= sum(count.values()):
        return False
    if fork:
        raise RuntimeError("a tree component has a fork, which no candidate "
                           "subrack makes")
    return True


def _twins(diagram: GeneralizedDynkinDiagram, nodes) -> dict:
    """The first two members (j, s) of each node, in vertex order, each
    mapped to its neighbors among those members, in increasing order, and
    each neighbor to its edge label.  Every node must be labelled -1, so
    that no two of its members are adjacent: twins share one map."""
    members = {x: [(diagram.nodes[x][0], s) for s in diagram.nodes[x][1][:2]]
               for x in sorted(nodes)}
    near = {}
    for x, group in members.items():
        around = {w: label for y, label in diagram.adjacent(x).items()
                  for w in members.get(y, ())}
        near.update(dict.fromkeys(group, around))
    return near


def cycle_rule(near: dict, modulus: int) -> Optional[dict]:
    """Detect a chordless 4-cycle whose edge labels, exponents of
    zeta_modulus, alternate nu, 1/nu around the cycle (opposite edges
    equal), in the twin map near (_twins) of a component whose nodes are
    all labelled -1 (cartan_finite raises otherwise).

    Such a labeled cycle certifies an infinite braiding.  Returns the cycle
    as vertices (j, s) and its labels, or None.

    The search reads adjacency and labels off the twin map, on the first
    two members of each node, and finds the cycle that the same search on
    every vertex finds first:
    - members of a node labelled -1 are never adjacent (their product is
      q_aa^2 = 1) and share one neighbor set;
    - so a chordless 4-cycle a - b - c - d holds two members of one node
      only as an opposite pair, (a, c) or (b, d);
    - moving each vertex to the first or second member of its node keeps
      every label and every non-edge, and moves no vertex later;
    - so the first hit, in the order a < c, then b, d among the common
      neighbors, holds only first and second members.
    The same argument shrinks the witness search (_minimal_infinite_set)."""
    for a in near:
        for c in near:
            if c <= a or c in near[a]:
                continue
            commons = [x for x in near[a] if c in near[x]]
            for b, d in itertools.permutations(commons, 2):
                if d in near[b]:
                    continue
                ab, bc, cd, da = near[a][b], near[b][c], near[c][d], near[d][a]
                if (ab + bc) % modulus or ab != cd or bc != da:
                    continue
                return {"cycle": (a, b, c, d),
                        "labels": tuple(root_name(modulus, w)
                                        for w in (ab, bc, cd, da))}
    return None


class NegativityReport(NamedTuple):
    negative: bool
    pairs_checked: int
    reduced: bool
    failure: Optional[dict]
    partners: tuple
    partner_count: int = 0


class ClassPlan:
    """What the decision needs of one class that no representation
    changes: the plans of the candidate subracks, each carrying its
    subrack (plans), and the partner classes with their labels and dual
    labels (partners), each built on first use: a scalar-gate row builds
    none of them.  One plan per (k, n) is kept for the life of the process
    (class_plan).

    It also keeps the answer of the subspace rules of each subrack plan
    for each restriction chi|H met so far (subspace_rules), where H is the
    group of the subrack's table entries.  The braiding labels of the
    subspace are psi(gamma_ij) for the psi that occur in chi|H, so the
    multiplicities, the diagram, its reading and the witness depend on rho
    only through chi|H (Andruskiewitsch-Grana, 2003, section 3).  The
    basepoint pi lies in H and acts by the scalar zeta_k^q, q = pi_scalar,
    so chi(pi^e h) = zeta_k^(q e) chi(h) and chi|H is fixed by q and chi
    at the coset representatives of <pi> in H (braidspace.SpectrumPlan).
    The key is the subrack, q and the terms of chi at the distinct
    class labels of those representatives, the identity's among them,
    whose value is the degree: |H| / k reads, not |H|.  Every check of the
    spectrum (chi(pi) against degree zeta_k^q, rationality, integrality,
    the degree sum) and every rule is a function of the key, run in full
    by the first row with that key.  An answer of None, no
    rule fires, is kept as well.

    A row that misses it reads its joint spectrum, and a second memo keeps
    what the rules read off each capped pattern: the subrack and the
    multiplicity of each psi that occurs, capped at 3 (_subspace_rules,
    which says why the cap is exact).  The rules run once per pattern, on
    a diagram of at most three members per node, and the memo keeps the
    witness template of their reading (_template): every witness field
    but the vertices and the DOT text, as objects that all rows of the
    pattern share, the subrack's image lists among them, which its plan
    builds once, and the DOT text with one slot per eigenvector index.  A
    row that misses the first memo fills in only its own indices; no row
    builds its full diagram, or draws one.  Rows of many restrictions
    share few patterns: 5 of the 13 restrictions at (2,6) and of the 102
    at (2,10)."""

    __slots__ = ("cls", "_plans", "_unplanned", "_partners", "_rules",
                 "_patterns")

    def __init__(self, k: int, n: int) -> None:
        self.cls = UnmixedClass(k, n)
        self._plans = []
        self._unplanned = _candidates(self.cls)
        self._partners = None
        self._rules = {}
        self._patterns = {}

    def plans(self):
        """The plans of the candidate subracks, in order, each built by the
        first row that reaches it: a row that the first subrack decides
        builds no other."""
        yield from self._plans
        for subrack in self._unplanned:
            self._plans.append(subrack_plan(subrack))
            yield self._plans[-1]

    def subspace_rules(self, plan: SubrackPlan,
                       character: InducedCharacter) -> Optional[Verdict]:
        """The verdict of the subspace rules on the subrack plan, or None,
        kept per restriction of the character to H, and read per capped
        pattern (see above)."""
        key = (plan.subrack, pi_scalar(character.spec), tuple(map(
            character.coefficients,
            dict.fromkeys(plan.spectrum.representatives))))
        if key not in self._rules:
            self._rules[key] = _subspace_rules(plan, character,
                                               self._patterns)
        return self._rules[key]

    def partners(self) -> tuple:
        if self._partners is None:
            self._partners = tuple(self.cls.partner_classes())
        return self._partners


@cache
def class_plan(k: int, n: int) -> ClassPlan:
    return ClassPlan(k, n)


def negativity_check(plan: ClassPlan,
                     character: InducedCharacter) -> NegativityReport:
    """Check that every commuting pair of class elements braids negatively:
    diagonal values -1 and opposite values multiplying to 1.

    Every commuting pair conjugates onto (basepoint, t) with t a partner of
    the basepoint, and conjugating by the centralizer moves t within its
    centralizer class without changing the braiding values, so one pair per
    partner class is checked.  pairs_checked counts those classes, partners
    lists their representatives, and partner_count sums their sizes.
    The pair braids negatively when t and the basepoint pulled back along a
    transporter g of t act by scalars whose product is 1.  A character
    value has |chi(x)| <= degree, with equality exactly when x acts by a
    scalar, so that holds exactly when chi(t) chi(g^-1 pi g) = degree^2:
    one product of terms by terms over Z/k, read on a basis of Q(zeta_k)
    (nichols.exactfield.integer_value).
    chi(t) is read at the label of t's partner class and chi(g^-1 pi g) at
    its dual label (nichols.permgroup.dual_label), so no transporter is
    built.  The partners come from the given class plan.
    """
    k = character.k
    q = pi_scalar(character.spec)
    if 2 * q != k:
        return NegativityReport(False, 0, True,
                                {"reason": "basepoint scalar is not -1",
                                 "q_scalar": root_name(k, q)}, ())
    checked = 0
    count = 0
    kept = []
    for partner in plan.partners():
        checked += 1
        dual = character.coefficients(partner.dual)
        if integer_value(k, [((a + b) % k, c * e) for a, c
                             in character.coefficients(partner.label)
                             for b, e in dual]) != character.degree ** 2:
            return NegativityReport(
                False, checked, True,
                {"pair": _pair(plan.cls, partner),
                 "reason": "chi(t) chi(g^-1 pi g) is not degree^2"},
                tuple(kept), count)
        kept.append(str(partner.representative))
        count += partner.size
    return NegativityReport(True, checked, True, None, tuple(kept), count)


def _pair(cls: UnmixedClass, partner: PartnerClass) -> tuple:
    # the printed pair (basepoint, t) of a partner class
    return str(cls.basepoint), str(cls.assemble(partner.representative))


def _candidates(cls: UnmixedClass):
    # there is none for n = 1: a row reaches them only when the basepoint
    # acts by -1, and then every table entry of the power subrack is an odd
    # power of the basepoint, so every label is -1 and its diagram has no
    # edges.  For k = 2 one triple is enough: the block permutation that
    # swaps the pairs of blocks at l and l' centralizes the basepoint and
    # conjugates the triple at l, transporters included, onto the one at l',
    # so their conjugation tables agree class by class and give the same
    # braiding labels
    if cls.k == 2:
        if cls.n >= 2:
            yield triple_subrack(cls, cls.n // 2)
        return
    if cls.k % 2 == 0 and cls.n >= 2:
        yield rotation_subrack(cls)
        yield quadruple_subrack(cls, 1, 2)


def _shortest_cycle(near: dict) -> Optional[tuple]:
    """A minimum-length cycle of the graph that maps each vertex to its
    neighbors in increasing order, chordless by minimality, as a vertex
    tuple in cycle order; None when it has no cycle.

    The tie-break, on which the printed witness depends: for each edge
    (a, b) with a < b, in increasing order, the search of the edge
    (_edge_cycle) gives a cycle through it.  The answer is the first of
    these cycles that is least by (length, sorted vertex tuple)."""
    cycles = [path for a in sorted(near) for b in near[a] if b > a
              for path in (_edge_cycle(near, a, b),) if path is not None]
    return min(cycles, key=lambda p: (len(p), sorted(p)), default=None)


def _edge_cycle(near: dict, a, b) -> Optional[tuple]:
    """The cycle that _shortest_cycle reads off the edge (a, b), a < b: a
    breadth-first search from a with that edge removed, neighbors taken in
    increasing order and the first discoverer made the parent, reaches b
    along the lexicographically least shortest path, and the cycle is
    (b, ..., a) along it; None when b is not reached."""
    parent = {a: None}
    queue = [a]
    for v in queue:
        for w in near[v]:
            if w not in parent and (v, w) != (a, b):
                parent[w] = v
                queue.append(w)
        if b in parent:
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            return tuple(path)


class _Template(NamedTuple):
    """The witness of a capped pattern, made once per pattern (_template):
    its rule, every field but the vertices and the DOT text, which all rows
    of the pattern share (fields), the columns of its vertices, the run of
    each of its eigenvector indices with the index's rank in the run
    (runs), and the DOT text with one slot per index (dot)."""

    rule: str
    fields: dict
    columns: tuple
    runs: tuple
    dot: str

    def verdict(self, spectrum: list) -> Verdict:
        """The verdict of a row whose spectrum has this pattern: the index
        of rank r in run t is the row's offset of run t plus r, and these
        indices name its vertices and fill the slots of the DOT text."""
        offsets = list(itertools.accumulate(
            (mult for _, mult in spectrum), initial=0))
        indices = [offsets[t] + rank for t, rank in self.runs]
        witness = dict(self.fields)
        witness["vertices"] = [[j, s] for j in self.columns for s in indices]
        witness["diagram_dot"] = self.dot.format(*indices)
        return Verdict(INFINITE, self.rule, witness)


def _template(plan: SubrackPlan, diagram: GeneralizedDynkinDiagram,
              rule: str, firing: tuple, detail: dict,
              cycle_order: tuple) -> _Template:
    """The witness template of the rule that fired on a capped pattern's
    diagram, read off its rectangle (the firing set's columns) x (its
    eigenvector indices), the smallest vertex set that makes the witness
    self-contained, in one pass over the rectangle's label table: the
    exponent q[x][y] of each pair of its positions x, y (column by
    column, then by index), read off the node labels, gives the values,
    and each pair x < y whose q[x][y] + q[y][x] is nonzero mod the
    modulus gives an edge, the join of two components and a line of DOT
    text, in the line formats of every drawing (braidspace.DOT_VERTEX,
    DOT_EDGE).  Each component is named by its least position, so they
    come out ordered by it.  The labels are read per run, so every row
    of the pattern has these values, edges and components; only the
    names of the indices differ from row to row, and the DOT text holds
    a str.format slot for each (_Template.verdict)."""
    cols = sorted({j for j, _ in firing})
    vecs = sorted({s for _, s in firing})
    modulus = diagram.modulus
    run_of = [next(t for t, (_, run) in enumerate(diagram.nodes) if s in run)
              for s in vecs]
    cells = [(a, t) for a in map(diagram.columns.index, cols) for t in run_of]
    q = [[diagram.labels[a][b][t] for b, t in cells] for a, _ in cells]
    spelled = {e: root_name(modulus, e) for e in set().union(*q)}
    names = ["t%d.v{%d}" % (j, i) for j in cols for i in range(len(vecs))]
    lines = ["graph diagram {{"]
    lines += [DOT_VERTEX % (v, spelled[q[x][x]]) for x, v in enumerate(names)]
    group = list(range(len(cells)))
    for x, y in itertools.combinations(group, 2):
        w = (q[x][y] + q[y][x]) % modulus
        if w:
            lines.append(DOT_EDGE % (names[x], names[y],
                                     root_name(modulus, w)))
            low, high = sorted((group[x], group[y]))
            group = [low if g == high else g for g in group]
    lines.append("}}")
    position = {v: x for x, v in enumerate(itertools.product(cols, vecs))}
    fields = {
        "subrack": plan.description,
        "element_images": plan.element_images,
        "transporter_images": plan.transporter_images,
        "q_matrix": [[spelled[e] for e in row] for row in q],
        "components": [[x for x, g in enumerate(group) if g == least]
                       for least in sorted(set(group))],
        "firing": sorted(map(position.get, firing)),
        **detail,
    }
    if cycle_order:
        fields["cycle"] = list(map(position.get, cycle_order))
    runs = [(t, s - diagram.offsets[t]) for t, s in zip(run_of, vecs)]
    return _Template(rule, fields, tuple(cols), tuple(runs), "\n".join(lines))


def _subspace_rules(plan: SubrackPlan, character: InducedCharacter,
                    patterns: dict) -> Optional[Verdict]:
    """The verdict of the subspace rules on the subrack plan for rho, or
    None, with the rules run once per capped pattern of the joint
    spectrum: the pattern of a spectrum is its (exps, min(mult, 3)) pairs,
    and patterns maps (subrack, pattern) to the witness template of what
    the rules read off the diagram of the pattern (_read_rules,
    _template), or None.

    Each row moves that reading onto its own spectrum: within run t the
    pattern's index s is the row's offset_t + s - (the pattern's
    offset_t), and these names fill in the template's vertices and DOT
    text (_Template.verdict).  The outcome is the one the rules give on
    the full diagram:
    - the pattern's diagram has the nodes and labels of the full one, on
      the first min(mult, 3) members of each node, so a node joins its own
      members in both or in neither (it has two of them in both, or one);
    - so cartan_finite sees the same labels, and every cycle and fork
      survives the cap: a set holds a cycle exactly when it holds a
      chordless one, which meets a node in at most two members (see
      _minimal_infinite_set), and a vertex of degree 3 or more keeps that
      degree, a node of three members giving 3 on its own;
    - cycle_rule and _minimal_infinite_set read only the first two
      members of each node, and the index map is increasing, within runs
      and across them, so it keeps the order of every tie-break;
    - the witness's rectangle reads labels per run, so its values, edges
      and components are the same, and its positions keep their order
      under the map."""
    spectrum = braidspace.planned_spectrum(plan.spectrum, character)
    key = (plan.subrack,
           tuple((exps, min(mult, 3)) for exps, mult in spectrum))
    if key not in patterns:
        diagram = spectrum_diagram(plan, key[1])
        reading = _read_rules(diagram)
        patterns[key] = (None if reading is None
                         else _template(plan, diagram, *reading))
    template = patterns[key]
    return None if template is None else template.verdict(spectrum)


def _read_rules(diagram: GeneralizedDynkinDiagram) -> Optional[tuple]:
    """The subspace rules on a diagram: (rule, firing vertices, witness
    fields, cycle order) of the rule that fires, or None.  The node
    neighbors are read off the labels once (the diagram's adjacent), and
    every step reads them: the components, cartan_finite on each, with the
    node multiplicities, and one twin map (_twins) for each component that
    is not finite, which is all that cycle_rule, _minimal_infinite_set and
    the witness's Cartan matrix read; a node with no edge and labelled -1
    is finite, an A1 per member, and is passed over unread.  Every
    component that fires gives one hit (rank, expansion, firing, cycle
    order, fields): a non-finite Cartan component fires cartan-infinite,
    rank 0, on its least witness (_minimal_infinite_set); a component that
    is not Cartan fires alternating-cycle, rank 1 (cycle_rule).  The least
    hit by (rank, expansion, sorted firing tuple) wins, so every Cartan hit
    beats every cycle hit."""
    hits = []
    for comp in diagram.components():
        if (len(comp) == 1 and not diagram.adjacent(comp[0])
                and 2 * diagram.q(comp[0], comp[0]) == diagram.modulus):
            continue    # an edgeless node labelled -1: an A1 per member
        finite = cartan_finite(diagram, {x: len(diagram.nodes[x][1])
                                         for x in comp})
        if finite:
            continue
        near = _twins(diagram, comp)
        if finite is None:
            hit = cycle_rule(near, diagram.modulus)
            if hit is not None:
                firing = tuple(sorted(hit["cycle"]))
                hits.append((1, _expansion_size(firing), firing, hit["cycle"],
                             {"cycle_labels": list(hit["labels"])}))
        else:
            # the firing set is a triangle or a chordless cycle
            firing = _minimal_infinite_set(near)
            hits.append((0, _expansion_size(firing), firing, (), {
                "cartan_matrix": [[2 if a == b else -1 if b in near[a] else 0
                                   for b in firing] for a in firing],
                "label": "A%d(1)" % (len(firing) - 1)}))
    if not hits:
        return None
    rank, _, firing, order, fields = min(hits, key=lambda hit: hit[:3])
    return ("cartan-infinite", "alternating-cycle")[rank], firing, fields, order


def _expansion_size(firing: tuple) -> int:
    return len({j for j, _ in firing}) * len({s for _, s in firing})


def _minimal_infinite_set(near: dict) -> tuple:
    """Shrink a non-finite Cartan component, given by its twin map near
    (_twins), to a small witness: the triangle least by (expansion, sorted
    tuple) when one exists; else, of the shortest cycles of each one- and
    two-index slice and of the whole component (the cycle _shortest_cycle
    returns on it), the least by (expansion, length, sorted tuple).  A
    non-finite component holds a cycle
    (cartan_finite), a shortest one is chordless, and any cycle subdiagram
    is again non-finite Cartan.

    The search reads the twin map, on the first two members of each node,
    with the answer of the search on every vertex:
    - twins share one neighbor set and, every vertex label being -1
      (cartan_finite raises otherwise), are never adjacent;
    - so a triangle holds at most one member of each node, and moving
      each to the first member of its node keeps it a triangle with no
      larger expansion and no larger tuple;
    - a chordless cycle through twins x1 and x2 is x1 - p - x2 - q, as both
      cycle neighbors of x1 neighbor x2; so it holds at most two members
      of any node, and moving them to the first two members of their
      node keeps the length, the expansion at most and the tuple at most;
    - the eigenvector indices of one run can be swapped without changing
      the graph, so a slice over indices beyond the first two of a run
      repeats an earlier slice, with larger tuples, and with one or two
      indices in all the whole component is a slice.

    Without a triangle, each slice is read by common neighbors first
    (_slice_cycle), and _shortest_cycle runs only where that reading does
    not settle the answer."""
    triangles = [(a, b, c) for a, around in near.items() for b in around
                 if b > a for c in around.keys() & near[b] if c > b]
    if triangles:
        return min(triangles, key=lambda t: (_expansion_size(t), t))
    indices = sorted({s for _, s in near})
    cycles = filter(None, (_slice_cycle(near, [v for v in near if v[1] in c])
                           for r in sorted({1, 2, len(indices)})
                           for c in itertools.combinations(indices, r)))
    return min(cycles, key=lambda c: (_expansion_size(c), len(c), c))


def _slice_cycle(near: dict, subset: list) -> Optional[tuple]:
    """The vertex set, sorted, of the cycle that _shortest_cycle finds on
    the subgraph of near on subset (in vertex order), where near has no
    triangle; None when that subgraph has no cycle.

    Let S be the least 4-cycle of the subgraph by sorted tuple, read off
    common neighbors: its least vertex a is the first that lies on a
    4-cycle of vertices after it, and for each c after a, the two least
    common neighbors of a and c after a close the least such 4-cycle with
    a and c opposite.  Without triangles every cycle has length 4 or more,
    so fewer than 4 vertices hold none, and 4 vertices hold one exactly
    when each has two neighbors among them: then S is all four.  On more,
    every cycle that the full search reads off an edge is no smaller than
    S by (length, sorted tuple), so its answer is S as soon as one edge
    gives S; the searches of S's own four edges (_edge_cycle), which the
    full search runs as well, are tried first.  Only when none of them
    gives S, or there is no S, does _shortest_cycle run.  The full search
    does not always return S: on the triangle-free graph with edges 0-3,
    0-4, 0-5, 1-2, 1-7, 1-9, 2-4, 2-5, 3-6, 3-8, 4-8, 4-9, 5-6 and 5-7, S
    is {0, 2, 4, 5}, but its edges give {0, 3, 4, 8}, {0, 3, 5, 6},
    {1, 2, 4, 9} and {1, 2, 5, 7}, and the full search {0, 3, 4, 8}."""
    keep = set(subset)
    if len(subset) <= 4:
        return (tuple(subset) if len(subset) == 4 and all(
            len(near[v].keys() & keep) == 2 for v in subset) else None)
    induced = {v: [w for w in near[v] if w in keep] for v in subset}
    for i, a in enumerate(subset):
        # the 4-cycles of a and vertices after it: a and c opposite, with
        # their two least common neighbors after a
        later = [b for b in induced[a] if b > a]
        squares = [tuple(sorted((a, c, *middle[:2]))) for c in subset[i + 1:]
                   for middle in ([b for b in later if c in near[b]],)
                   if len(middle) > 1]
        if squares:
            break
    square = min(squares, default=None)
    if square is not None and any(
            tuple(sorted(_edge_cycle(induced, a, b))) == square
            for a, b in itertools.combinations(square, 2) if b in near[a]):
        return square
    cycle = _shortest_cycle(induced)
    return None if cycle is None else tuple(sorted(cycle))


def decide(k: int, n: int, rho_spec) -> Verdict:
    """Classify the braiding of the (k^n) class with the given centralizer
    representation: InfiniteDim with a machine-checkable witness, or
    NegativeBraiding with the verified pair inventory.  Raises RuntimeError
    when no rule decides, which the dichotomy for unmixed classes rules
    out.  A row that the scalar gate decides reads nothing of its class;
    past the gate, the subrack plans and the partners come from the class
    plan of (k, n), and each row reads its character at the labels of each
    H, and runs the subspace rules only on a restriction the plan has not
    met."""
    spec = resolve_spec(k, n, rho_spec)
    gate = scalar_gate(pi_scalar(spec), k)
    if gate is not None:
        return gate
    plans = class_plan(k, n)
    character = spec.character()
    for plan in plans.plans():
        verdict = plans.subspace_rules(plan, character)
        if verdict is not None:
            return verdict
    report = negativity_check(plans, character)
    if report.negative:
        return Verdict(NEGATIVE, "negative-exhaustive",
                       {"pairs_checked": report.pairs_checked,
                        "symmetry_reduced": True,
                        "partners": list(report.partners),
                        "partner_count": report.partner_count})
    raise RuntimeError("no rule decides %s at (%d,%d); negativity failed: %s"
                       % (spec.label(), k, n, report.failure))


def closed_form_verdict(k: int, n: int, rho_spec) -> Verdict:
    """Case-table verdict, independent of the subspace machinery: negative
    exactly for scalar representations with constant twist parameter c where
    the basepoint value is -1 and 2c vanishes mod k/2; infinite otherwise."""
    spec = resolve_spec(k, n, rho_spec)
    if k % 2:
        return Verdict(INFINITE, "closed-form", {"case": "odd-order"})
    r = k // 2
    if spec.degree() != 1:
        return Verdict(INFINITE, "closed-form", {"case": "degree"})
    c = spec.u[0]
    if (c * n) % k != r:
        return Verdict(INFINITE, "closed-form", {"case": "gate"})
    if (2 * c) % r:
        return Verdict(INFINITE, "closed-form", {"case": "parameter"})
    return Verdict(NEGATIVE, "closed-form", {"case": "scalar-negative", "c": c})
