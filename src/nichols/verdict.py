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
each node; verify_witness re-fires it by linear algebra on the witness's
braiding values instead.

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

verify_witness shares none of that with the decision: it plans no subrack
and runs none of its spectrum code.  A witness vertex (j, s) means the
vector g_j v_s, with v_s an eigenvector of the group H_w that the
witness's own table entries generate, and s only a name.  Since
t_i g_j v = g_j gamma_ij v, the recorded q_matrix is such a braiding
exactly when each psi_s read off it is a character of H_w that occurs in
chi|H_w as often as the witness uses it; the check builds H_w by closure
and tests just that, then re-fires the rule (see verify_witness).  It is
split as the decision is: what no representation changes is built once
per recorded subrack (the member of the family its kind names, or else the
subrack rebuilt from its images with its own checks, and no description),
once per set of its witness columns (H_w
as a table of Cayley edges, with the class label of each element) and
once per recorded q_matrix on those columns (its exponents, the psi_s
read off it, their phases carried along those edges and counted at each
distinct label, and the rule re-fired on each firing or cycle), and kept
for the life of the process; a row only checks its own fields and
vertices, and sums its character, read once at each distinct label as its
nonzero terms, against those counts, in integers.

Outcomes: "InfiniteDim" always carries a machine-checkable witness, and
"NegativeBraiding" carries the verified pair inventory.  For an unmixed
class every braiding is one or the other, so an input that no rule decides
is a defect of the engine and raises.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from functools import cache
from math import lcm
from typing import NamedTuple, Optional

from . import braidspace
from .braidspace import (FAMILIES, AbelianSubrack, GeneralizedDynkinDiagram,
                         SubrackPlan, quadruple_subrack, rotation_subrack,
                         spectrum_diagram, subrack_plan, triple_subrack)
from .exactfield import (ROOT_MINUS_ONE, ROOT_ONE, RootOfUnity, rational_trace,
                         totient)
from .permgroup import PartnerClass, Permutation, UnmixedClass
from .reps import InducedCharacter, RepSpec, parse_rep_spec, pi_scalar

INFINITE = "InfiniteDim"
NEGATIVE = "NegativeBraiding"


class Verdict(NamedTuple):
    """An outcome, the rule that decided it and its witness.  Rows of one
    class whose characters restrict alike to the group of a subrack that
    fires share one verdict, witness included (ClassPlan.subspace_rules),
    and rows of one capped pattern share the fields of its rule, so a
    caller must treat the witness as read-only."""

    outcome: str
    rule: str
    witness: dict
    flags: tuple = ()


@cache
def scalar_gate(q: RootOfUnity, ord_pi: int) -> Optional[Verdict]:
    """Infinite unless the basepoint has even order and acts by -1.

    Returns the infinite verdict, or None to pass: one per (q, ord_pi) for
    the life of the process, shared by every row it decides."""
    if ord_pi % 2:
        return Verdict(INFINITE, "scalar-gate",
                       {"q_scalar": str(q), "element_order": ord_pi,
                        "reason": "basepoint has odd order"})
    if q != ROOT_MINUS_ONE:
        return Verdict(INFINITE, "scalar-gate",
                       {"q_scalar": str(q), "element_order": ord_pi,
                        "reason": "basepoint scalar is not -1"})
    return None


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
    degree."""
    if any(diagram.q(x, x) != ROOT_MINUS_ONE for x in count):
        raise RuntimeError("a vertex label is not -1 past the scalar gate, "
                           "so one column may hold adjacent vertices")
    degree = {}
    for x in count:
        degree[x] = 0
        for y, w in diagram.adjacent(x).items():
            near = count.get(y, 0) - (y == x)
            if near:
                if w != ROOT_MINUS_ONE:
                    return None
                degree[x] += near
    if sum(degree[x] * c for x, c in count.items()) // 2 >= sum(count.values()):
        return False
    if any(d > 2 for d in degree.values()):
        raise RuntimeError("a tree component has a fork, which no candidate "
                           "subrack makes")
    return True


def _positive_definite(S) -> bool:
    """Sylvester's criterion for an integer symmetric matrix: every leading
    principal minor is positive.  Fraction-free (Bareiss) elimination makes
    each pivot the next leading minor and keeps every entry an integer."""
    work = [list(row) for row in S]
    m = len(work)
    previous = 1
    for p in range(m):
        pivot = work[p][p]
        if pivot <= 0:
            return False
        for i in range(p + 1, m):
            for j in range(p + 1, m):
                work[i][j] = (pivot * work[i][j]
                              - work[i][p] * work[p][j]) // previous
        previous = pivot
    return True


def _cartan_infinite(q, modulus: int) -> Optional[list]:
    """The cartan-infinite rule re-fired by linear algebra on a square table
    of braiding values, each given as its exponent of zeta_modulus: every
    diagonal entry is -1 (exponent modulus/2) and every product q_ab q_ba
    is 1 or -1 (exponent sum 0 or modulus/2), and the Cartan matrix 2I - A
    is not positive definite, A being 1 where the product is -1 and 0
    elsewhere.  Returns that Cartan matrix when the rule fires, else None."""
    half, odd = divmod(modulus, 2)
    if odd:
        return None
    m = len(q)
    cartan = [[2] * m for _ in range(m)]
    for a in range(m):
        if q[a][a] % modulus != half:
            return None
        for b in range(m):
            if a == b:
                continue
            product = (q[a][b] + q[b][a]) % modulus
            if product not in (0, half):
                return None
            cartan[a][b] = -1 if product else 0
    return None if _positive_definite(cartan) else cartan


def _members(diagram: GeneralizedDynkinDiagram, nodes) -> list:
    """The first two members (j, s) of each node, in vertex order."""
    members = []
    for x in sorted(nodes):
        j, indices = diagram.nodes[x]
        members += [(j, s) for s in indices[:2]]
    return members


def _near(diagram: GeneralizedDynkinDiagram, vertices) -> dict:
    """The neighbors of each vertex among vertices, in increasing order.
    Every node of the vertices must be labelled -1, so that no two of its
    members are adjacent: twins have one list."""
    by_node = {}
    for v in vertices:
        by_node.setdefault(diagram.node(v), []).append(v)
    near = {}
    for x, group in by_node.items():
        around = sorted(w for y in diagram.adjacent(x)
                        for w in by_node.get(y, ()))
        near.update(dict.fromkeys(group, around))
    return near


def cycle_rule(diagram: GeneralizedDynkinDiagram, comp) -> Optional[dict]:
    """Detect a chordless 4-cycle with every vertex label -1 whose edge
    labels alternate nu, 1/nu around the cycle (opposite edges equal), in
    the subdiagram on the vertices of the nodes comp.

    Such a labeled cycle certifies an infinite braiding.  Returns the cycle
    as vertices (j, s) and its labels, or None.

    The search runs on the first two members of each node, and finds the
    cycle that the same search on every vertex finds first:
    - members of a node labelled -1 are never adjacent (their product is
      q_aa^2 = 1) and share one neighbor set;
    - so a chordless 4-cycle a - b - c - d holds two members of one node
      only as an opposite pair, (a, c) or (b, d);
    - moving each vertex to the first or second member of its node keeps
      every label and every non-edge, and moves no vertex later;
    - so the first hit, in the order a < c, then b, d among the common
      neighbors, holds only first and second members.
    The same argument shrinks the witness search (_minimal_infinite_set)."""
    minus = _members(diagram, [x for x in comp
                               if diagram.q(x, x) == ROOT_MINUS_ONE])
    near = _near(diagram, minus)
    for a in minus:
        for c in minus:
            if c <= a or diagram.edge_label(a, c) is not None:
                continue
            commons = [x for x in near[a]
                       if diagram.edge_label(x, c) is not None]
            for b, d in itertools.permutations(commons, 2):
                if diagram.edge_label(b, d) is not None:
                    continue
                ab = diagram.edge_label(a, b)
                bc = diagram.edge_label(b, c)
                cd = diagram.edge_label(c, d)
                da = diagram.edge_label(d, a)
                if ab * bc != ROOT_ONE:
                    continue
                if ab != cd or bc != da:
                    continue
                return {"cycle": (a, b, c, d),
                        "labels": (str(ab), str(bc), str(cd), str(da))}
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
    only through chi|H (Andruskiewitsch-Grana, 2003, section 3).  The key
    is the subrack and the coefficients of chi at the distinct class
    labels of H, the identity's among them, whose value is the degree;
    every check of the spectrum (rationality, integrality, the degree sum)
    and every rule is a function of the key, run in full by the first row
    with that key.  An answer of None, no rule fires, is kept as well.

    A row that misses it reads its joint spectrum, and a second memo keeps
    what the rules read off each capped pattern: the subrack and the
    multiplicity of each psi that occurs, capped at 3 (_subspace_rules,
    which says why the cap is exact).  The rules run once per pattern, on
    a diagram of at most three members per node, and each row that misses
    the first memo draws its own witness from that reading; no row builds
    its full diagram.  Rows of many restrictions share few patterns: 5 of
    the 13 restrictions at (2,6) and of the 102 at (2,10)."""

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
        key = (plan.subrack, tuple(map(
            character.coefficients, dict.fromkeys(plan.spectrum.class_labels))))
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
    one product of coefficient vectors over Z/k, read by integer traces
    as phi(k) times itself (nichols.exactfield.rational_trace).
    chi(t) is read at the label of t's partner class and chi(g^-1 pi g) at
    its dual label (nichols.permgroup.dual_label), so no transporter is
    built.  The partners come from the given class plan.
    """
    q = pi_scalar(character.spec)
    if q != ROOT_MINUS_ONE:
        return NegativityReport(False, 0, True,
                                {"reason": "basepoint scalar is not -1",
                                 "q_scalar": str(q)}, ())
    k = character.k
    square = totient(k) * character.degree ** 2
    checked = 0
    count = 0
    kept = []
    for partner in plan.partners():
        checked += 1
        product = [0] * k
        dual = character.coefficients(partner.dual)
        for a, c in enumerate(character.coefficients(partner.label)):
            if c:
                for b, e in enumerate(dual):
                    product[(a + b) % k] += c * e
        if rational_trace(k, product) != square:
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
    (a, b) with a < b, in increasing order, a breadth-first search from a
    with that edge removed, neighbors taken in increasing order and the
    first discoverer made the parent, reaches b along the
    lexicographically least shortest path; the cycle is (b, ..., a) along
    it.  The answer is the first of these cycles that is least by (length,
    sorted vertex tuple)."""
    best = None
    for a in sorted(near):
        for b in near[a]:
            if b < a:
                continue
            parent = {a: None}
            queue = deque([a])
            while queue and b not in parent:
                v = queue.popleft()
                for w in near[v]:
                    if w not in parent and (v, w) != (a, b):
                        parent[w] = v
                        queue.append(w)
            if b not in parent:
                continue
            path = [b]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            key = (len(path), sorted(path))
            if best is None or key < best[0]:
                best = (key, tuple(path))
    return None if best is None else best[1]


def _witness(plan: SubrackPlan, spectrum: list,
             diagram: GeneralizedDynkinDiagram, rule: str, firing: tuple,
             detail: dict, cycle_order: tuple) -> Verdict:
    # expand the firing vertex set to (its columns) x (its eigenvector
    # indices): the smallest rectangle that makes the witness
    # self-contained.  The diagram may be capped, so the rectangle names
    # its indices by the runs of the row's spectrum
    cols = sorted({j for j, _ in firing})
    vecs = sorted({s for _, s in firing})
    position = {v: i for i, v in
                enumerate((j, s) for j in cols for s in vecs)}
    expanded = diagram.rectangle(cols, vecs, tuple(itertools.accumulate(
        (mult for _, mult in spectrum), initial=0)))
    size = len(position)
    witness = {
        "subrack": plan.description,
        "element_images": [list(t.img) for t in plan.subrack.elements],
        "transporter_images": [list(g.img) for g in plan.subrack.transporters],
        "vertices": [[j, s] for j in cols for s in expanded.offsets],
        "q_matrix": [[str(expanded.q(x, y)) for y in range(size)]
                     for x in range(size)],
        "diagram_dot": expanded.to_dot(),
        "components": [list(c) for c in expanded.components()],
        "firing": sorted(position[v] for v in firing),
    }
    if cycle_order:
        witness["cycle"] = [position[v] for v in cycle_order]
    witness.update(detail)
    return Verdict(INFINITE, rule, witness)


def _subspace_rules(plan: SubrackPlan, character: InducedCharacter,
                    patterns: dict) -> Optional[Verdict]:
    """The verdict of the subspace rules on the subrack plan for rho, or
    None, with the rules run once per capped pattern of the joint
    spectrum: the pattern of a spectrum is its (exps, min(mult, 3)) pairs,
    and patterns maps (subrack, pattern) to what the rules read off the
    diagram of the pattern (_read_rules), or None, with that diagram.

    Each row moves that reading onto its own spectrum: within run t the
    pattern's index s is the row's offset_t + s - (the pattern's
    offset_t), and the witness rectangle is drawn from the pattern's
    diagram under those names.  The outcome is the one the rules give on
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
    - a rectangle reads labels per run, so the witness's values are the
      same, and its positions keep their order under the map."""
    spectrum = braidspace.planned_spectrum(plan.spectrum, character)
    key = (plan.subrack,
           tuple((exps, min(mult, 3)) for exps, mult in spectrum))
    if key not in patterns:
        diagram = spectrum_diagram(plan, key[1])
        reading = _read_rules(diagram)
        patterns[key] = None if reading is None else (diagram,) + reading
    if patterns[key] is None:
        return None
    return _witness(plan, spectrum, *patterns[key])


def _read_rules(diagram: GeneralizedDynkinDiagram) -> Optional[tuple]:
    """The subspace rules on a diagram: (rule, firing vertices, witness
    fields, cycle order) of the rule that fires, or None.  A non-finite
    Cartan component fires cartan-infinite on its least witness
    (_minimal_infinite_set) and comes first; else a component that is not
    Cartan fires alternating-cycle (cycle_rule).  Either way the least
    firing set by (expansion, sorted tuple) wins."""
    cartan_hits = []
    cycle_hits = []
    for comp in diagram.components():
        finite = cartan_finite(diagram, {x: len(diagram.nodes[x][1])
                                         for x in comp})
        if finite is None:
            hit = cycle_rule(diagram, comp)
            if hit is not None:
                firing = tuple(sorted(hit["cycle"]))
                cycle_hits.append((_expansion_size(firing), firing,
                                   hit["cycle"], hit))
        elif not finite:
            firing = _minimal_infinite_set(diagram, comp)
            cartan_hits.append((_expansion_size(firing), firing))
    if cartan_hits:
        # the firing set is a triangle or a chordless cycle
        size, firing = min(cartan_hits)
        cartan = [[2 if a == b else 0 if diagram.edge_label(a, b) is None
                   else -1 for b in firing] for a in firing]
        return ("cartan-infinite", firing,
                {"cartan_matrix": cartan,
                 "label": "A%d(1)" % (len(firing) - 1)}, ())
    if cycle_hits:
        size, firing, order, hit = min(
            cycle_hits, key=lambda x: (x[0], x[1]))
        return ("alternating-cycle", firing,
                {"cycle_labels": list(hit["labels"])}, order)
    return None


def _expansion_size(firing: tuple) -> int:
    return len({j for j, _ in firing}) * len({s for _, s in firing})


def _minimal_infinite_set(diagram: GeneralizedDynkinDiagram,
                          comp: tuple) -> tuple:
    """Shrink a non-finite Cartan component of the diagram, given by its
    nodes, to a small witness: the triangle least by (expansion, sorted
    tuple) when one exists; else, of the shortest cycles of each one- and
    two-index slice and of the whole component, the least by (expansion,
    length, sorted tuple).  A non-finite component holds a cycle
    (cartan_finite), a shortest one is chordless, and any cycle subdiagram
    is again non-finite Cartan.

    The search runs on the first two members of each node of the
    component, with the answer of the search on every vertex:
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
      repeats an earlier slice, with larger tuples."""
    pruned = _members(diagram, comp)
    near = _near(diagram, pruned)
    sets = {v: set(ws) for v, ws in near.items()}
    triangles = [(a, b, c) for a in pruned for b in near[a] if b > a
                 for c in sets[a] & sets[b] if c > b]
    if triangles:
        return min(triangles, key=lambda t: (_expansion_size(t), t))
    indices = sorted({s for _, s in pruned})
    subsets = [[v for v in pruned if v[1] in chosen]
               for r in (1, 2) for chosen in itertools.combinations(indices, r)]
    subsets.append(pruned)
    best = None
    for subset in subsets:
        keep = set(subset)
        cyc = _shortest_cycle({v: [w for w in near[v] if w in keep]
                               for v in subset})
        if cyc is not None:
            firing = tuple(sorted(cyc))
            candidate = (_expansion_size(firing), len(cyc), firing)
            if best is None or candidate < best:
                best = candidate
    return best[2]


def _resolve_spec(k: int, n: int, rho_spec) -> RepSpec:
    if isinstance(rho_spec, RepSpec):
        if rho_spec.k != k or rho_spec.n != n:
            raise ValueError("representation spec is for different parameters")
        return rho_spec
    if not isinstance(rho_spec, str):
        raise ValueError("rho_spec must be a RepSpec or a str")
    return parse_rep_spec(k, n, rho_spec)


def decide(k: int, n: int, rho_spec) -> Verdict:
    """Classify the braiding of the (k^n) class with the given centralizer
    representation: InfiniteDim with a machine-checkable witness, or
    NegativeBraiding with the verified pair inventory.  Raises RuntimeError
    when no rule decides, which the dichotomy for unmixed classes rules
    out.  The subrack plans and the partners come from the class plan of
    (k, n); each row reads its character at the labels of each H, and runs
    the subspace rules only on a restriction the plan has not met."""
    plans = class_plan(k, n)
    spec = _resolve_spec(k, n, rho_spec)
    gate = scalar_gate(pi_scalar(spec), k)
    if gate is not None:
        return gate
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
    spec = _resolve_spec(k, n, rho_spec)
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


class _WitnessGroup(NamedTuple):
    """What the witness check needs of one subrack and a set of its
    columns, whatever the representation: the place of gamma_ij among the
    distinct table entries for i, j at places a, b of the columns
    (generator[a][b]), the roots of unity of order dividing modulus, by
    exponent as printed (names) and by printed form as exponent
    (exponent), and H_w: its elements h_0 = 1, h_1, ... in the order of a
    breadth-first closure from the identity, with h_x = g_t h_h for x =
    edges[h][t] and g_t the t-th distinct entry, and the class label of
    each."""

    generator: tuple
    modulus: int
    names: tuple
    exponent: dict
    edges: tuple
    labels: tuple


@cache
def _witness_subrack(k: int, n: int, elements: tuple, transporters: tuple,
                     kind, param: tuple) -> tuple:
    """The subrack of a witness and its description, built once: the
    member of the family that kind names (nichols.braidspace.FAMILIES) at
    param, with its description, when it has exactly this kind, param
    and image tuples (a family that fills in a default param records it);
    otherwise the subrack rebuilt from the image tuples with all of its
    own checks, which raise as they do for any subrack, and no
    description.  The caller checks that every image and param entry is
    of type int, so that 1.0 or True cannot reach the entry of 1."""
    cls = UnmixedClass(k, n)
    family = FAMILIES.get(kind)
    try:
        named = family(cls, *param) if family else None
    except (TypeError, ValueError):
        named = None
    if named is not None and (named.kind, named.param) == (kind, param) and (
            tuple(g.img for g in named.elements) == elements
            and tuple(g.img for g in named.transporters) == transporters):
        return named, named.describe()
    return AbelianSubrack(cls, map(Permutation, elements),
                          map(Permutation, transporters),
                          kind=kind, param=param), None


def _images(witness: dict, field: str) -> tuple:
    # the image tuples of a witness field, every entry of type int
    try:
        images = tuple(map(tuple, witness[field]))
    except TypeError:
        raise ValueError("the witness %s must be a list of image lists"
                         % field) from None
    if set(map(type, itertools.chain.from_iterable(images))) - {int}:
        raise ValueError("images are not a bijection of 1..N")
    return images


@cache
def _witness_group(subrack: AbelianSubrack, cols: tuple) -> _WitnessGroup:
    """H_w for the given columns of a subrack (see _WitnessGroup), closed
    on normal forms of n entries (nichols.permgroup.UnmixedClass.product):
    only the distinct table entries are taken to normal form, which raises
    ValueError on one that does not centralize the basepoint, and each
    element's class label is read off its form.  Entries that do not
    commute raise ValueError.  Each transporter of the columns is inverted
    once, the closure indexes each form by its plain (d, b images) tuple,
    and an edge whose end is already known by commutativity (see the
    closure) is read off a finished row instead of multiplied: on the
    subracks of the (4,4), (6,3) and (8,2) witnesses, 219 of 448."""
    cls = subrack.cls
    inverse = {j: subrack.transporters[j].inverse() for j in cols}
    position = {}
    generator = tuple(tuple(
        position.setdefault(subrack.elements[i].conjugated_by(inverse[j]),
                            len(position)) for j in cols) for i in cols)
    generators = tuple(position)
    forms = [cls.normal_form(g) for g in generators]
    if not all(a.commutes_with(b)
               for a, b in itertools.combinations(generators, 2)):
        raise ValueError("conjugation table entries do not commute")
    modulus = lcm(cls.k, *(g.order() for g in generators))
    names = tuple(str(RootOfUnity(modulus, e)) for e in range(modulus))
    product = cls.product
    identity = cls.identity_form()
    index = {(identity.d, identity.b.img): 0}
    queue = [identity]
    made = [None]
    edges = []
    # the queue grows while it is read.  The generators commute, so for
    # h = g_s h' made from an earlier h', g_t h = g_s (g_t h') is read off
    # the row of g_t h' once that row is done, and multiplied otherwise
    for h, form in enumerate(queue):
        row = []
        for t, g in enumerate(forms):
            y = edges[made[h][0]][t] if h else h
            if y < h:
                row.append(edges[y][made[h][1]])
                continue
            x = product(g, form)
            key = (x.d, x.b.img)
            if key not in index:
                index[key] = len(queue)
                queue.append(x)
                made.append((h, t))
            row.append(index[key])
        edges.append(tuple(row))
    return _WitnessGroup(generator, modulus, names,
                         {name: e for e, name in enumerate(names)},
                         tuple(edges),
                         tuple(h.class_label(cls.k) for h in queue))


class _WitnessReading(NamedTuple):
    """What the witness check reads off one recorded q_matrix on one
    subrack and set of its columns, whatever the representation: the
    entries as integer exponents of zeta_modulus (exponents); each psi
    used, as its exponents on the distinct table entries, with the number
    of vertex indices that name it (used); the distinct class labels of
    H_w (labels); for each psi used, one (label index, places, count)
    triple per class label and phase p of psi that occur together on the
    elements of H_w, with the number of those elements, and in places, for
    each a < k, the exponent of zeta_k^a zeta_modulus^-p as a power of
    zeta_modulus (phases); and what each rule re-fired on the exponents
    gives (_refire), by (rule, firing or cycle) (fired), filled in as rows
    meet it."""

    exponents: tuple
    used: tuple
    labels: tuple
    phases: tuple
    fired: dict


@cache
def _witness_reading(subrack: AbelianSubrack, cols: tuple, width: int,
                     q_matrix: tuple) -> Optional[_WitnessReading]:
    """The reading of a q_matrix of str entries, one row and one column
    per vertex (j, s) of the rectangle cols x (width indices), on H_w
    (_witness_group): None when an entry is no root of unity printed in
    lowest terms of order dividing the modulus, when a psi_s read off two
    row vertices (i, r) disagrees on a table entry, or when a psi used,
    carried from the identity along the Cayley edges of H_w, fails on an
    edge, so that it is no character of H_w."""
    group = _witness_group(subrack, cols)
    modulus = group.modulus
    exps = tuple(tuple(group.exponent.get(x) for x in row) for row in q_matrix)
    if any(None in row for row in exps):
        return None
    # psi_s on the generators, read off every row vertex (i, r)
    psis = []
    for b in range(width):
        psi = {}
        for a, row in enumerate(exps):
            for y, t in enumerate(group.generator[a // width]):
                e = row[y * width + b]
                if psi.setdefault(t, e) != e:
                    return None
        psis.append(tuple(psi[t] for t in range(len(psi))))
    used = tuple(sorted(set(psis)))
    k = subrack.cls.k
    # each psi used, carried from the identity along every Cayley edge, and
    # counted by (label, phase); a phase p is kept as the place of
    # zeta_k^a zeta_modulus^-p in the sum, for each a < k
    places = [tuple((a * modulus // k - p) % modulus for a in range(k))
              for p in range(modulus)]
    labels = tuple(dict.fromkeys(group.labels))
    index = {label: x for x, label in enumerate(labels)}
    phases = []
    for psi in used:
        at = [0] + [None] * (len(group.edges) - 1)
        for h, row in enumerate(group.edges):
            for t, x in enumerate(row):
                step = (at[h] + psi[t]) % modulus
                if at[x] is None:
                    at[x] = step
                elif at[x] != step:
                    return None
        phases.append(tuple((index[label], places[p], m) for (label, p), m
                            in Counter(zip(group.labels, at)).items()))
    return _WitnessReading(exps, tuple((psi, psis.count(psi)) for psi in used),
                           labels, tuple(phases), {})


def _character_sums(reading: _WitnessReading, character: InducedCharacter,
                    modulus: int):
    """phi(modulus) sum_h chi(h) psi(h)^-1 over H_w for each psi of
    reading.used, in order, each read by rational_trace off the integer
    coefficients of its powers of zeta_modulus (None when not rational):
    chi is read once at each distinct label of H_w, as its nonzero
    (index, coefficient) terms, and each term is added at its place,
    times the number of elements with that label and phase of psi."""
    terms = [[(a, c) for a, c in enumerate(character.coefficients(label)) if c]
             for label in reading.labels]
    for counts in reading.phases:
        acc = [0] * modulus
        for x, places, m in counts:
            for a, c in terms[x]:
                acc[places[a]] += c * m
        yield rational_trace(modulus, acc)


def _refire(rule: str, positions: tuple, exps: tuple,
            group: _WitnessGroup) -> Optional[list]:
    """The rule re-fired on the integer exponents of the q_matrix at the
    firing or cycle positions: the Cartan matrix of a cartan-infinite
    firing set, or the printed products around an alternating 4-cycle, or
    None when the rule does not fire there."""
    modulus = group.modulus
    if rule == "cartan-infinite":
        return _cartan_infinite([[exps[a][b] for b in positions]
                                 for a in positions], modulus)
    a, b, c, d = positions
    def product(x, y):
        return (exps[x][y] + exps[y][x]) % modulus
    ab, bc, cd, da = product(a, b), product(b, c), product(c, d), product(d, a)
    if (modulus % 2 or any(exps[v][v] != modulus // 2 for v in positions)
            or product(a, c) or product(b, d) or ab == 0
            or (ab + bc) % modulus or ab != cd or bc != da):
        return None
    return [group.names[x] for x in (ab, bc, cd, da)]


# the witness fields each rule reads (a rule that is not one of these reads
# the subrack fields, then is refused); the subrack field must hold the kind
# and param of its family
_SUBRACK_FIELDS = ("element_images", "transporter_images", "subrack",
                   "vertices", "q_matrix")
_WITNESS_FIELDS = {
    "scalar-gate": ("q_scalar", "element_order"),
    "cartan-infinite": _SUBRACK_FIELDS + ("firing", "cartan_matrix"),
    "alternating-cycle": _SUBRACK_FIELDS + ("cycle", "cycle_labels"),
}


def _require(record: dict, keys: tuple, what: str) -> None:
    if not isinstance(record, dict):
        raise ValueError("%s must be a dict" % what)
    missing = [key for key in keys if key not in record]
    if missing:
        raise ValueError("%s lacks the field %s" % (what, ", ".join(missing)))


def verify_witness(k: int, n: int, rho_spec, verdict: Verdict) -> bool:
    """Re-validate an infinite verdict from its recorded witness alone, on
    the witness's own group: no subrack plan, class plan or spectrum of the
    decision is read.

    The member of the family that its kind and param name must have
    exactly the recorded images; any other images are rebuilt, with the
    subrack's own checks, and refused.  A vertex (j, s) names the vector
    g_j v_s, for g_j the transporter of column j and v_s a joint
    eigenvector of rho on H_w, the group generated by the table entries
    gamma_ij = g_j^-1 t_i g_j with i, j in the witness columns; s is only
    a name.  Why that is sound:
    - t_i (g_j v) = g_j gamma_ij v, and gamma_ij centralizes the basepoint;
    - so if v_s is an eigenvector of H_w with linear character psi_s, the
      vectors g_j v_s span a braided subspace of diagonal type whose entry
      for (i, r), (j, s) is psi_s(gamma_ij), the recorded q_matrix;
    - vectors of one psi can be chosen independent exactly when psi occurs
      in chi|H_w at least as often as the witness uses it, and vectors of
      different psi are independent.
    So the check reads psi_s(gamma_ij) off the recorded q_matrix (the same
    for every row index r, and wherever two (i, j) give the same entry),
    builds H_w by plain closure from the identity and checks on every
    Cayley edge that psi_s extends to a character of H_w, and sums chi
    against each psi used, (1/|H_w|) sum_h chi(h) psi(h)^-1, by integer
    traces: phi(modulus) |H_w| times it is an integer, which must be
    divisible by phi(modulus) |H_w|.  Then the rule is re-fired on the
    recorded values, each as its integer exponent of zeta_modulus.
    cartan-infinite is re-fired by linear algebra on the firing set,
    sharing no code with the graph reading that decided it: every diagonal
    entry -1, every product q_ab q_ba equal to 1 or -1, and the Cartan
    matrix 2I - A (A = 1 where the product is -1) not positive definite.

    Only the representation changes from row to row.  The subrack and its
    description are built once per recorded (image tuples, kind, param)
    (_witness_subrack), each image and param entry checked to be of type
    int before the lookup; the generator of each
    gamma_ij, the normal form and commute checks, the modulus, H_w as a
    table of Cayley edges, closed on normal forms, and the class label of
    each of its elements once per subrack and set of witness columns
    (_witness_group); and once per subrack, set of witness columns, number
    of indices and q_matrix (_witness_reading), each entry checked to be a
    str before the lookup: the exponents of its entries, the psi_s read
    off it with how often each is used, their phases carried along the
    Cayley edges and counted at each distinct class label, or the lookup,
    psi_s or edge that fails, and the outcome of the rule re-fired on
    each (rule, firing or cycle) a row has met.  Each row compares the
    description, checks its vertices and indices and the shape of its
    q_matrix, reads chi once at each distinct label of H_w, as its nonzero
    terms, and sums it against each psi's phase counts (_character_sums),
    which is the sum over the elements of H_w, and compares its recorded
    cartan_matrix or cycle_labels with the re-fired outcome.  Checks run
    in that order, cached or not: a failing multiplicity returns False
    before a cycle that is not a 4-cycle raises.  A witness that raises is
    not cached.

    The recorded fields that follow from these values must match them: the
    cartan_matrix, the cycle_labels (the products around the cycle), the
    q_scalar and element_order of the scalar gate, and the subrack
    description (kind, param and the printed elements and transporters),
    which must describe the subrack rebuilt from the images; a kind that
    names no family, or a param that its family refuses, fails.  The
    cartan_matrix entries and the element_order must be of type int (3.0
    is not 3).  The label, the components and the diagram_dot are not
    read.  An entry that is not a root of unity printed in lowest terms,
    or a q_matrix that is not one list per vertex of one entry per vertex,
    fails.  A witness whose element_images or transporter_images are not
    a list of image lists, or hold an entry not of type int (1.0 or True
    is not 1), whose subrack param is not a list of int (a tuple, set or
    dict is not), whose vertices are not a list of two-element lists,
    whose firing or cycle is not a list, whose vertex coordinates or
    firing or cycle indices are not all of type int (a bool, float or str
    is not), whose vertices are not the
    rectangle (its columns) x (its indices) in order, from 0 and below the
    subrack size and the degree, whose firing or cycle indices repeat or
    leave its vertex list, whose table entries do not commute, or whose
    cycle is not a 4-cycle raises ValueError, and so does a witness, or
    its subrack field, that is not a dict or lacks a field its rule
    reads, a subrack kind that is not a str, a verdict rule that is not a
    str (a list or dict is not hashed), and a rho_spec that is neither a
    RepSpec nor a str (None, 5 or a list is not split)."""
    if verdict.outcome != INFINITE:
        raise ValueError("only infinite verdicts carry a rebuildable witness")
    spec = _resolve_spec(k, n, rho_spec)
    w = verdict.witness
    if not isinstance(verdict.rule, str):
        raise ValueError("the verdict rule must be a str")
    _require(w, _WITNESS_FIELDS.get(verdict.rule, _SUBRACK_FIELDS),
             "the %s witness" % verdict.rule)
    if verdict.rule == "scalar-gate":
        q = pi_scalar(spec)
        return ((k % 2 == 1 or q != ROOT_MINUS_ONE)
                and w["q_scalar"] == str(q)
                and type(w["element_order"]) is int and w["element_order"] == k)
    _require(w["subrack"], ("kind", "param"), "the witness subrack")
    if type(w["subrack"]["kind"]) is not str:
        raise ValueError("the witness subrack kind must be a str")
    elements = _images(w, "element_images")
    transporters = _images(w, "transporter_images")
    param = w["subrack"]["param"]
    if not isinstance(param, list) or set(map(type, param)) - {int}:
        raise ValueError("the witness subrack param must be a list of int")
    subrack, description = _witness_subrack(
        k, n, elements, transporters, w["subrack"]["kind"], tuple(param))
    if description is None or w["subrack"] != description:
        return False
    character = spec.character()
    indices = [w[key] for key in ("firing", "cycle") if key in w]
    if (not isinstance(w["vertices"], list)
            or any(not isinstance(v, list) or len(v) != 2
                   for v in w["vertices"])
            or any(not isinstance(positions, list) for positions in indices)):
        raise ValueError("witness vertices must be a list of pairs, and its "
                         "firing and cycle lists")
    vertices = [(j, s) for j, s in w["vertices"]]
    if set(map(type, itertools.chain(*vertices, *indices))) - {int}:
        raise ValueError("witness vertices and indices must be integers")
    cols = sorted({j for j, _ in vertices})
    vecs = sorted({s for _, s in vertices})
    if (not vertices or vertices != [(j, s) for j in cols for s in vecs]
            or cols[0] < 0 or cols[-1] >= subrack.size
            or vecs[0] < 0 or vecs[-1] >= character.degree):
        raise ValueError("witness vertices must be the rectangle of their "
                         "columns and indices, none repeated, below the "
                         "subrack size and the degree")
    size = len(vertices)
    for positions in indices:
        if len(set(positions) & set(range(size))) != len(positions):
            raise ValueError("witness indices must be distinct vertex positions")
    group = _witness_group(subrack, tuple(cols))
    q_matrix = w["q_matrix"]
    if (not isinstance(q_matrix, list) or len(q_matrix) != size
            or any(not isinstance(row, list) or len(row) != size
                   for row in q_matrix)
            or set(map(type, itertools.chain(*q_matrix))) - {str}):
        return False
    reading = _witness_reading(subrack, tuple(cols), len(vecs),
                               tuple(map(tuple, q_matrix)))
    if reading is None:
        return False
    # phi(modulus) |H_w| times each multiplicity
    order = totient(group.modulus) * len(group.edges)
    for (_, count), total in zip(reading.used, _character_sums(
            reading, character, group.modulus)):
        if total is None or total % order or total // order < count:
            return False
    if verdict.rule == "cartan-infinite":
        positions, recorded = w["firing"], w["cartan_matrix"]
    elif verdict.rule == "alternating-cycle":
        if len(w["cycle"]) != 4:
            raise ValueError("an alternating cycle has four vertices")
        positions, recorded = w["cycle"], w["cycle_labels"]
    else:
        raise ValueError("unknown rule %r" % verdict.rule)
    key = (verdict.rule, tuple(positions))
    if key not in reading.fired:
        reading.fired[key] = _refire(*key, reading.exponents, group)
    expected = reading.fired[key]
    # a cartan_matrix entry 2.0 or True equals 2 or 1, but is not it
    return (expected is not None and expected == recorded
            and (verdict.rule != "cartan-infinite"
                 or not set(map(type, itertools.chain(*recorded))) - {int}))
