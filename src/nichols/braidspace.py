"""Abelian subracks of an unmixed class and their diagonal braided subspaces.

An abelian subrack is a set of pairwise-commuting class elements t_0..t_{m-1}
together with transporters g_i conjugating the basepoint to t_i.  The
conjugation table gamma_ij = g_j^{-1} t_i g_j lands in the centralizer of the
basepoint.  Its entries must commute (they do for every structured family);
they generate an abelian group H, and rho restricted to H splits into
linear characters psi of H, each with multiplicity <chi_rho|_H, psi>.
That gives a braided subspace of diagonal type: one vertex per column j and
eigenvector, with braiding q((i, r), (j, psi)) = psi(gamma_ij)
(Andruskiewitsch-Grana, From racks to pointed Hopf algebras, 2003).  The
braiding depends only on the column and psi, so the subspace and its
generalized Dynkin diagram are held as one node per (column, psi) with the
multiplicity of psi: as many nodes as the subrack size times the number of
psi that occur, however large the degree.  Only the character of rho is
needed: the multiplicities are integers read on a basis of Q(zeta_k)
(nichols.exactfield.integer_value), and each braiding label is a root of
unity held as its integer exponent of zeta_k (each gamma_ij is a
conjugate of a class element, so its order divides k), each printed one
at a time through nichols.exactfield.root_name.  No field element is built.
The diagram is built from those labels alone: every edge is read off
them by one formula, and one generator of whole lines,
GeneralizedDynkinDiagram.dot_lines, draws a whole diagram's DOT text,
which `diagram` writes as it is drawn; a witness's text is drawn once
per capped pattern by nichols.verdict, in the same two line formats
(DOT_VERTEX, DOT_EDGE).

The work splits in two.  subrack_plan does what rho does not change, in a
plan that carries its subrack: the table, the commute check, and H closed
on the cosets of the basepoint pi, which is central in the centralizer:
the (L, s) class labels (nichols.permgroup) of pi and of the coset
representatives of <pi>, the layers of H after pi and the places of the
generators, from which a linear character's values follow; the plan
holds no character.
pi acts by a scalar zeta_k^q, so planned_spectrum(plan.spectrum,
character) then lists, once per rho, only the characters psi with
psi(pi) = zeta_k^q, and sums against them the character of rho, read at
those labels, over those representatives only; spectrum_diagram labels
the nodes of the spectrum, and dynkin_diagram(plan, character) does
both.

Construction families: the canonical involution subrack (k = 2), the swap and
rotation quadruples (k even, n >= 2) and the power subrack (n = 1; drawn by
`diagram --subrack powers`, never tried by the decision).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .exactfield import integer_value, root_name
from .permgroup import Permutation, UnmixedClass
from .reps import InducedCharacter


class AbelianSubrack:
    """Pairwise-commuting class elements with transporters from the basepoint."""

    __slots__ = ("cls", "elements", "transporters", "kind", "param")

    def __init__(self, cls: UnmixedClass, elements, transporters,
                 kind: str = "custom", param: tuple = ()) -> None:
        elements = tuple(elements)
        transporters = tuple(transporters)
        if len(elements) != len(transporters):
            raise ValueError("need one transporter per element")
        if len(set(elements)) != len(elements):
            raise ValueError("subrack elements must be distinct")
        want = cls.cycle_type()
        for t, g in zip(elements, transporters):
            if t.cycle_type() != want:
                raise ValueError("subrack element lies outside the class")
            if cls.basepoint.conjugated_by(g) != t:
                raise ValueError("transporter does not carry the basepoint to its element")
        for a, b in itertools.combinations(elements, 2):
            if not a.commutes_with(b):
                raise ValueError("subrack elements must commute pairwise")
        self.cls = cls
        self.elements = elements
        self.transporters = transporters
        self.kind = kind
        self.param = tuple(param)

    @property
    def size(self) -> int:
        return len(self.elements)

    def table(self, columns) -> tuple:
        """The conjugation table gamma_ij = g_j^{-1} t_i g_j on a sequence
        of columns, row i and column j both running over them: the place of
        each entry among the distinct entries, which are in order of first
        appearance (row i, then column j), and those entries.  Each entry
        centralizes the basepoint.  Each transporter is inverted once, and
        entries that do not commute pairwise raise ValueError."""
        inverses = [self.transporters[j].inverse() for j in columns]
        place = {}
        table = tuple(tuple(place.setdefault(self.elements[i].conjugated_by(g),
                                             len(place)) for g in inverses)
                      for i in columns)
        if not all(a.commutes_with(b)
                   for a, b in itertools.combinations(place, 2)):
            raise ValueError("conjugation table entries do not commute")
        return table, tuple(place)

    def describe(self) -> dict:
        """Kind, param, and the elements and transporters in cycle
        notation."""
        return {
            "kind": self.kind,
            "param": list(self.param),
            "elements": list(map(str, self.elements)),
            "transporters": list(map(str, self.transporters)),
        }

    def __repr__(self) -> str:
        return "AbelianSubrack(kind=%r, size=%d)" % (self.kind, self.size)


def canonical_subrack(cls: UnmixedClass) -> AbelianSubrack:
    """The involution subrack for k = 2: conjugates of the basepoint by
    products of the disjoint transpositions sigma_l^+/-, one pair per index
    l <= n//2.  Size 3^(n//2); the basepoint comes first, then singles by
    index with + before -, then larger support sets."""
    if cls.k != 2:
        raise ValueError("the canonical subrack is defined for k = 2")
    if cls.n < 2:
        raise ValueError("the canonical subrack needs n >= 2")
    span = cls.n // 2
    elements = [cls.basepoint]
    transporters = [Permutation.identity(cls.degree)]
    for size in range(1, span + 1):
        for support in itertools.combinations(range(1, span + 1), size):
            for signs in itertools.product((1, -1), repeat=size):
                g = Permutation.identity(cls.degree)
                for l, sign in zip(support, signs):
                    g = g * (cls.sigma_plus(l) if sign == 1 else cls.sigma_minus(l))
                elements.append(cls.basepoint.conjugated_by(g))
                transporters.append(g)
    return AbelianSubrack(cls, elements, transporters, kind="canonical")


def triple_subrack(cls: UnmixedClass, l: int) -> AbelianSubrack:
    """The involution triple (pi, sigma_l^+ pi sigma_l^+, sigma_l^- pi sigma_l^-)
    for k = 2: the basepoint and its conjugates under the two disjoint
    transposition pairs at index l."""
    plus = cls.sigma_plus(l)
    minus = cls.sigma_minus(l)
    pi = cls.basepoint
    return AbelianSubrack(
        cls,
        (pi, pi.conjugated_by(plus), pi.conjugated_by(minus)),
        (Permutation.identity(cls.degree), plus, minus),
        kind="canonical-triple", param=(l,))


def _quadruple(cls: UnmixedClass, t: Permutation, g3: Permutation,
               g4: Permutation, kind: str, param: tuple = ()) -> AbelianSubrack:
    # (pi, pi^-1, t, t^-1) transported by (1, sigma_reflect(), g3, g4)
    pi = cls.basepoint
    return AbelianSubrack(cls, (pi, pi.inverse(), t, t.inverse()),
                          (Permutation.identity(cls.degree), cls.sigma_reflect(),
                           g3, g4),
                          kind=kind, param=param)


def quadruple_subrack(cls: UnmixedClass, i: int = 1, j: int = 2) -> AbelianSubrack:
    """The swap quadruple (pi, pi^{-1}, pi B_ij, (pi B_ij)^{-1}) with its
    canonical involution transporters; needs k even and at least 4."""
    if cls.k < 4 or cls.k % 2:
        raise ValueError("the swap quadruple needs even k >= 4")
    if not 1 <= i < j <= cls.n:
        raise ValueError("need 1 <= i < j <= n")
    return _quadruple(cls, cls.basepoint * cls.block_swap(i, j),
                      cls.sigma_swap(i, j), cls.sigma_swapinv(i, j),
                      "quadruple-swap", (i, j))


def rotation_subrack(cls: UnmixedClass) -> AbelianSubrack:
    """The twist quadruple (pi, pi^{-1}, t, t^{-1}) with t rotating the first
    block backwards and the rest forwards; needs even k >= 4 (an odd k
    has no block reflection to transport with, and at k = 2, t is pi) and
    n >= 2."""
    if cls.k < 4 or cls.k % 2:
        raise ValueError("the rotation quadruple needs even k >= 4")
    if cls.n < 2:
        raise ValueError("the rotation quadruple needs n >= 2")
    return _quadruple(cls, cls.twist((cls.k - 1,) + (1,) * (cls.n - 1)),
                      cls.sigma_block(1), cls.sigma_block(*range(2, cls.n + 1)),
                      "quadruple-rotation")


def powers_subrack(cls: UnmixedClass) -> AbelianSubrack:
    """For a single k-cycle, the subrack of coprime powers of the basepoint."""
    if cls.n != 1:
        raise ValueError("the power subrack is defined for n = 1")
    k = cls.k
    elements = []
    transporters = []
    for j in range(1, k):
        if gcd(j, k) != 1:
            continue
        elements.append(cls.twist((j,)))
        transporters.append(Permutation((j * m) % k + 1 for m in range(k)))
    return AbelianSubrack(cls, elements, transporters, kind="powers")


# each family by the kind of its subracks; a subrack's param is the rest of
# the arguments of its family.  A witness's family and each --subrack
# selector of the CLI are read from here
FAMILIES = {"canonical": canonical_subrack, "canonical-triple": triple_subrack,
            "quadruple-swap": quadruple_subrack,
            "quadruple-rotation": rotation_subrack, "powers": powers_subrack}


class SpectrumPlan(NamedTuple):
    """The part of a joint spectrum that does not depend on rho, for
    H = <pi, generators>, pi the basepoint, of order k, held on the cosets
    of <pi>.  An element pi^e r, r the coset representative at index i,
    is placed as (e, i).  The plan keeps the (L, s) class labels, at which
    characters are read, of the representatives, the identity's first,
    and of pi; the layers after pi, each as its relative order r and the
    place of its generator's r-th power; and the place of each given
    generator.  It holds no character: planned_spectrum lists those it
    sums from the layers."""

    k: int
    representatives: tuple
    basepoint: tuple
    layers: tuple
    generators: tuple


def spectrum_plan(cls: UnmixedClass, generators) -> SpectrumPlan:
    """Close H = <pi, generators> on the cosets of <pi> for
    planned_spectrum, pi the basepoint.

    pi is H's first layer, of order k, whether the generators hold it or
    not, and the others are closed on the cosets of <pi>: a generator
    whose coset is not yet met joins with its relative order r, the least
    with g^r in the group so far, so every element is a unique word
    pi^e_1 g_2^e_2 ... g_l^e_l with 0 <= e_i < r_i, and the coset
    representatives are the words with e_1 = 0, listed layer by layer,
    each layer's g^e slowest: those of the group before a layer come
    first, so the place of its g^r stays valid.  pi adds 1 to every twist
    (it is central in the centralizer), so a coset is keyed by its
    element with d[0] = 0, and an element is pi^e r, r its coset's
    representative and e the difference of their d[0].  Products are made
    per coset, never per element of H.

    Every table entry is a conjugate of a class element, so its order
    divides k and every character value is a power of zeta_k.  A
    generator of order not dividing k (the lcm of L k / gcd(s, k) over
    the (L, s) pairs of its label) raises ArithmeticError, whatever the
    value of psi(pi): for commuting generators that is exactly when H is
    no group of exponent dividing k.  Every conjugation table holds pi
    (gamma_jj = pi), so H is the group of the table's entries.

    H closes on normal forms (d, b) of n entries (UnmixedClass.product),
    not on permutations of the k*n points: only the generators are taken
    to normal form, which raises ValueError on one that does not
    centralize the basepoint, and the class labels are read off the
    forms."""
    k = cls.k
    generators = [cls.normal_form(g) for g in generators]
    for g in generators:
        if k % lcm(*(length * k // gcd(s, k)
                     for length, s in g.class_label(k))):
            raise ArithmeticError("generators do not make an abelian "
                                  "group of exponent dividing k")
    product = cls.product
    identity = cls.identity_form()

    def coset(x):
        return tuple([(t - x.d[0]) % k for t in x.d]), x.b

    def place(x):
        rep, i = cosets[coset(x)]
        return (x.d[0] - rep.d[0]) % k, i

    cosets = {coset(identity): (identity, 0)}
    layers = []
    for g in generators:
        if coset(g) in cosets:
            continue
        r, power = 1, g
        while coset(power) not in cosets:
            power = product(power, g)
            r += 1
        layers.append((r,) + place(power))
        grown = {}
        step = identity
        for e in range(r):
            for h, _ in cosets.values():
                x = product(step, h)
                grown[coset(x)] = x, len(grown)
            step = product(step, g)
        cosets = grown
    return SpectrumPlan(
        k, tuple([h.class_label(k) for h, _ in cosets.values()]),
        cls.normal_form(cls.basepoint).class_label(k), tuple(layers),
        tuple(map(place, generators)))


def planned_spectrum(plan: SpectrumPlan, character: InducedCharacter) -> list:
    """The joint spectrum of rho on a planned H: one pair (exps, mult) per
    linear character psi that occurs, psi(generators[t]) = zeta_k^exps[t],
    in lexicographic order of exps.

    The basepoint pi is central in its centralizer, so rho(pi) is a scalar
    zeta_k^q (Schur's lemma; Andruskiewitsch-Grana 2003, section 3), read
    off chi(pi) = degree zeta_k^q, which is checked: chi(pi) less chi(1)
    with its exponents moved by q must be 0 (integer_value), or
    ArithmeticError.  Then chi(pi^e h) = zeta_k^(q e) chi(h) for every h
    in H (tests/test_reps.py holds that identity of the character
    formula), and a psi occurs only if psi(pi) = zeta_k^q, so only the
    |H| / k characters with that value are listed, each as its phases at
    the representatives (psi(r) = zeta_k^phase), layer by layer: psi at an
    element placed (e, i) is q e plus its phase at representative i, and
    a layer's psi(g) = zeta_k^x must have r x = psi(g^r), which has the r
    solutions psi(g^r) / r + t k / r (the plan refused every H of
    exponent not dividing k, so r divides psi(g^r)).  For such a psi,
    chi(h) psi(h)^-1 is constant on each coset of <pi>, so its
    multiplicity (1/|H|) sum_h chi(h) psi(h)^-1 is (k/|H|) times the sum
    over the coset representatives alone, and chi is read only at them
    and at pi.  Each sum is taken as terms over Z/k, the terms of chi(r)
    with their exponents moved by minus the phase of r, checked to be
    rational and read off as an integer (integer_value), then checked to
    be divisible by |H| / k, and the multiplicities to add up to the
    degree."""
    k = plan.k
    values = list(map(character.coefficients, plan.representatives))
    at_pi = character.coefficients(plan.basepoint)
    # the degree's place in chi(pi)
    q = max(at_pi, key=itemgetter(1), default=(0, 0))[0]
    if integer_value(k, at_pi + tuple([((a + q) % k, -c)
                                       for a, c in values[0]])) != 0:
        raise ArithmeticError("the basepoint does not act by a scalar")
    block = [[0]]
    for r, e, i in plan.layers:
        block = [[(p + t * x) % k for t in range(r) for p in phases]
                 for phases in block
                 for x in range((q * e + phases[i]) % k // r, k, k // r)]
    spectrum = []
    for phases in block:
        total = integer_value(k, [((a - phase) % k, c) for phase, terms
                                  in zip(phases, values) for a, c in terms])
        if total is None or total % len(values):
            raise ArithmeticError("character inner product is not an integer")
        mult = total // len(values)
        if mult:
            spectrum.append((tuple([(q * e + phases[i]) % k
                                    for e, i in plan.generators]), mult))
    if sum(mult for _, mult in spectrum) != character.degree:
        raise ArithmeticError("multiplicities do not add up to the degree")
    spectrum.sort()
    return spectrum


class SubrackPlan(NamedTuple):
    """The part of a diagonal subspace that does not depend on rho: the
    subrack, its description (AbelianSubrack.describe) and the image lists
    of its elements and of its transporters, which every witness on the
    subrack prints, its conjugation table as the place of each entry
    among the distinct entries, which are in order of first appearance
    (row i, then column j), and the plan of the group they make."""

    subrack: AbelianSubrack
    description: dict
    element_images: list
    transporter_images: list
    table: tuple
    distinct: tuple
    spectrum: SpectrumPlan


def subrack_plan(subrack: AbelianSubrack) -> SubrackPlan:
    """Plan the diagonal subspaces of a subrack, for every rho at once.

    The distinct table entries must commute pairwise (true for the
    structured subrack families, whose tables close inside the subrack):
    then one joint spectrum serves every column, so an eigenvector index
    means the same vector in each column.  A subrack rebuilt from outside
    data whose table does not commute raises ValueError."""
    table, distinct = subrack.table(range(subrack.size))
    return SubrackPlan(subrack, subrack.describe(),
                       [list(t.img) for t in subrack.elements],
                       [list(g.img) for g in subrack.transporters],
                       table, distinct, spectrum_plan(subrack.cls, distinct))


# the two line formats of every DOT drawing: a vertex with its label, and
# an edge with its label
DOT_VERTEX = '  %s [label="%s"];'
DOT_EDGE = '  %s -- %s [label="%s"];'


class GeneralizedDynkinDiagram:
    """The generalized Dynkin diagram of a diagonal subspace, on nodes.

    A vertex (j, s) is column j and joint eigenvector s.  Eigenvectors are
    ordered by the exponents of their linear character psi on the distinct
    table entries, and a psi of multiplicity m fills m consecutive indices,
    a run.  A node is a column and a run: nodes[x] = (j, indices), column
    by column, each column's runs in order, so the vertices in node order
    are in vertex order.  The braiding entry for row vertex (i, r) and
    column vertex (j, s) is psi_s(gamma_ij) = zeta_modulus^labels[a][b][t],
    a and b the places of i and j in columns and t the run of s; it does
    not depend on r (Andruskiewitsch-Grana, 2003, section 3).  So the
    members of a node are twins: they have one braiding with every vertex.

    The vertex label of a node is q_aa of its members, and the edge label
    of two nodes is q_ab q_ba of their members, an edge only where != 1,
    each held as its exponent of zeta_modulus (the sum of the two
    exponents for an edge, nonzero mod modulus); an edge of a node to
    itself joins its members pairwise, and no vertex is its own neighbor.
    Every edge is read off the labels by one formula (_scan), and no pair
    is looked at when the diagram is built.  The decision reads nodes
    only: its first read of neighbors (adjacent) reads every node's once
    and keeps them.  Vertices are drawn only by dot_lines, which reads
    each node's later neighbors straight off the labels and yields the DOT
    text as it goes, so drawing builds no neighbor map.  A witness reads
    the labels of the rectangle of its vertices straight off the node
    labels (nichols.verdict._template).  The diagram holds labels only,
    no subrack: a witness names the subrack of the plan that the diagram
    was built from."""

    __slots__ = ("modulus", "columns", "offsets", "labels", "nodes", "_adjacent")

    def __init__(self, modulus: int, columns, runs, labels) -> None:
        # runs: (first index, multiplicity) of each run, in order
        self.modulus = modulus
        self.columns = tuple(columns)
        self.offsets = tuple([offset for offset, _ in runs])
        self.labels = labels
        self.nodes = tuple([(j, range(offset, offset + mult))
                            for j in self.columns for offset, mult in runs])
        self._adjacent = None

    def _scan(self):
        """Every edge (x, y, label) with x <= y, by x and then y, read off
        the labels: for x = (a, r) and y = (b, t), a column place and a
        run, the label is labels[a][b][t] + labels[b][a][r] mod modulus,
        an edge where it is nonzero, and a node is adjacent to itself only
        when it has two members or more."""
        labels, modulus, width = self.labels, self.modulus, len(self.offsets)
        for x, (_, indices) in enumerate(self.nodes):
            a, r = divmod(x, width)
            for y in range(x if len(indices) > 1 else x + 1, len(self.nodes)):
                b, t = divmod(y, width)
                w = (labels[a][b][t] + labels[b][a][r]) % modulus
                if w:
                    yield x, y, w

    @property
    def edges(self) -> tuple:
        """Every edge (x, y, label) with x <= y, by x and then y."""
        return tuple(self._scan())

    def adjacent(self, x: int) -> dict:
        """The nodes adjacent to node x, itself included when its members
        are adjacent to each other, mapped to the edge label, in order.
        The first call reads every node's neighbors, and they are kept."""
        if self._adjacent is None:
            self._adjacent = tuple({} for _ in self.nodes)
            for u, y, w in self._scan():
                self._adjacent[u][y] = self._adjacent[y][u] = w
        return self._adjacent[x]

    def q(self, x: int, y: int) -> int:
        """The braiding entry of a member of node x with one of node y, as
        its exponent of zeta_modulus; for x = y, the vertex label of node
        x."""
        width = len(self.offsets)
        return self.labels[x // width][y // width][y % width]

    def components(self) -> tuple:
        """The connected components, each a sorted node tuple, ordered by
        least node.  The members of a node lie in one component, save that
        a node with no edge at all is one entry here and, when it has
        several members, stands for one component per member."""
        seen = set()
        out = []
        for start in range(len(self.nodes)):
            if start not in seen:
                seen.add(start)
                group = [start]
                for x in group:
                    for y in self.adjacent(x):
                        if y not in seen:
                            seen.add(y)
                            group.append(y)
                out.append(tuple(sorted(group)))
        return tuple(out)

    def dot_lines(self):
        """The DOT text of the diagram as whole lines: the head, one chunk
        of lines per node for its members, one per node for their edges to
        the later members of the node and of later nodes (a node with none
        yields no chunk), and the closing line.  The vertices are named
        t<j>.v<s>, in vertex order, and edges (u, v) have u before v,
        sorted."""
        names = [["t%d.v%d" % (j, s) for s in run] for j, run in self.nodes]
        yield "graph diagram {"
        for x, members in enumerate(names):
            label = root_name(self.modulus, self.q(x, x))
            yield "\n".join(DOT_VERTEX % (v, label) for v in members)
        for x, near in itertools.groupby(self._scan(), itemgetter(0)):
            later = [(y, root_name(self.modulus, w)) for _, y, w in near]
            members = names[x]
            yield "\n".join(DOT_EDGE % (u, v, w)
                            for t, u in enumerate(members) for y, w in later
                            for v in (members[t + 1:] if y == x else names[y]))
        yield "}"

    def __repr__(self) -> str:
        return "GeneralizedDynkinDiagram(nodes=%d, edges=%d)" % (
            len(self.nodes), len(self.edges))


def spectrum_diagram(plan: SubrackPlan, spectrum) -> GeneralizedDynkinDiagram:
    """The diagram of a joint spectrum over the planned subrack, given as
    its (exps, mult) pairs in order (planned_spectrum): in each column one
    node per linear character psi of H in it, labelled by psi at the table
    entries, with mult members.  The labels do not depend on the
    multiplicities, so a spectrum with smaller ones gives the same labels
    on fewer members."""
    # the exponents of every psi at each distinct entry
    column = tuple(zip(*[exps for exps, _ in spectrum]))
    mults = [mult for _, mult in spectrum]
    return GeneralizedDynkinDiagram(
        plan.spectrum.k, range(plan.subrack.size),
        tuple(zip(itertools.accumulate(mults, initial=0), mults)),
        tuple([tuple(map(column.__getitem__, row)) for row in plan.table]))


def dynkin_diagram(plan: SubrackPlan,
                   character: InducedCharacter) -> GeneralizedDynkinDiagram:
    """The diagram of the diagonal subspace of rho over the planned
    subrack: the diagram of its joint spectrum (spectrum_diagram)."""
    return spectrum_diagram(plan, planned_spectrum(plan.spectrum, character))
