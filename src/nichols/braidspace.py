"""Abelian subracks of an unmixed class and their diagonal braided subspaces.

An abelian subrack is a set of pairwise-commuting class elements t_0..t_{m-1}
together with transporters g_i conjugating the basepoint to t_i.  The
conjugation table gamma_ij = g_j^{-1} t_i g_j lands in the centralizer of the
basepoint.  Its entries must commute (they do for every structured family);
they generate an abelian group H, and rho restricted to H splits into
linear characters psi of H, each with multiplicity <chi_rho|_H, psi>.
That gives a braided subspace of diagonal type: one vertex per column j and
eigenvector, with braiding q((i, r), (j, psi)) = psi(gamma_ij)
(Andruskiewitsch-Grana, From racks to pointed Hopf algebras, 2003).  Only
the character of rho is needed: the multiplicities are integers read off
integer traces (nichols.exactfield.rational_value), and the braiding labels
are roots of unity held as integer exponents.  No field element is built.

The work splits in two.  subrack_plan does what rho does not change, in a
plan that carries its subrack: the table, the commute check, H with the
(L, s) class label of each element (nichols.permgroup), and the linear
characters of H.  diagonal_subspace(plan, character) then sums the
character of rho, read at those labels, over H, once per rho.

Construction families: the canonical involution subrack (k = 2), the swap and
rotation quadruples (k even, n >= 2) and the power subrack (n = 1; drawn by
`diagram --subrack powers`, never tried by the decision).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import NamedTuple

from .exactfield import RootOfUnity, rational_value
from .permgroup import Permutation, UnmixedClass, conjugate
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
            if conjugate(g, cls.basepoint) != t:
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

    def gamma(self, i: int, j: int) -> Permutation:
        """Conjugation table entry g_j^{-1} t_i g_j, an element centralizing
        the basepoint."""
        return self.elements[i].conjugated_by(self.transporters[j].inverse())

    def gamma_table(self) -> tuple:
        return tuple(tuple(self.gamma(i, j) for j in range(self.size))
                     for i in range(self.size))

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "param": list(self.param),
            "elements": [str(t) for t in self.elements],
            "transporters": [str(g) for g in self.transporters],
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
                elements.append(conjugate(g, cls.basepoint))
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
        (pi, conjugate(plus, pi), conjugate(minus, pi)),
        (Permutation.identity(cls.degree), plus, minus),
        kind="canonical-triple", param=(l,))


def quadruple_subrack(cls: UnmixedClass, i: int = 1, j: int = 2) -> AbelianSubrack:
    """The swap quadruple (pi, pi^{-1}, pi B_ij, (pi B_ij)^{-1}) with its
    canonical involution transporters; needs k even and at least 4."""
    if cls.k < 4 or cls.k % 2:
        raise ValueError("the swap quadruple needs even k >= 4")
    if not 1 <= i < j <= cls.n:
        raise ValueError("need 1 <= i < j <= n")
    pi = cls.basepoint
    mixed = pi * cls.block_swap(i, j)
    elements = (pi, pi.inverse(), mixed, mixed.inverse())
    transporters = (Permutation.identity(cls.degree), cls.sigma_reflect(),
                    cls.sigma_swap(i, j), cls.sigma_swapinv(i, j))
    return AbelianSubrack(cls, elements, transporters,
                          kind="quadruple-swap", param=(i, j))


def rotation_subrack(cls: UnmixedClass) -> AbelianSubrack:
    """The twist quadruple (pi, pi^{-1}, t, t^{-1}) with t rotating the first
    block backwards and the rest forwards; needs k >= 3 and n >= 2."""
    if cls.k < 3:
        raise ValueError("the rotation quadruple needs k >= 3")
    if cls.n < 2:
        raise ValueError("the rotation quadruple needs n >= 2")
    pi = cls.basepoint
    t = cls.twist((cls.k - 1,) + (1,) * (cls.n - 1))
    g3 = cls.sigma_block(1)
    g4 = Permutation.identity(cls.degree)
    for blk in range(2, cls.n + 1):
        g4 = g4 * cls.sigma_block(blk)
    elements = (pi, pi.inverse(), t, t.inverse())
    transporters = (Permutation.identity(cls.degree), cls.sigma_reflect(), g3, g4)
    return AbelianSubrack(cls, elements, transporters, kind="quadruple-rotation")


def powers_subrack(cls: UnmixedClass) -> AbelianSubrack:
    """For a single k-cycle, the subrack of coprime powers of the basepoint."""
    if cls.n != 1:
        raise ValueError("the power subrack is defined for n = 1")
    k = cls.k
    elements = []
    transporters = []
    pi = cls.basepoint
    for j in range(1, k):
        if gcd(j, k) != 1:
            continue
        elements.append(_power(pi, j))
        transporters.append(Permutation((j * m) % k + 1 for m in range(k)))
    return AbelianSubrack(cls, elements, transporters, kind="powers")


def _power(p: Permutation, e: int) -> Permutation:
    out = Permutation.identity(p.degree)
    for _ in range(e):
        out = out * p
    return out


class DiagonalSubspace:
    """A braided subspace of diagonal type over an abelian subrack.

    Vertices are pairs (j, s): subrack position j and joint eigenvector s of
    rho on the group generated by the conjugation table.  Eigenvectors are
    ordered by the tuple of their eigenvalue exponents on the distinct table
    entries, taken in order of first appearance (row i, then column j), and
    a linear character of multiplicity m fills m consecutive indices.  The
    braiding entry for row vertex (i, r) and column vertex (j, s) is the
    eigenvalue of rho(gamma_ij) on eigenvector s, zeta_modulus^labels[i][j][s];
    it does not depend on r.  runs[s] numbers the joint character of
    eigenvector s, so two vertices of one column whose eigenvectors share a
    character are twins: they have the same braiding with every vertex.
    """

    __slots__ = ("subrack", "modulus", "labels", "vertices", "runs", "_roots")

    def __init__(self, subrack: AbelianSubrack, modulus: int, labels,
                 vertices, runs) -> None:
        self.subrack = subrack
        self.modulus = modulus
        self.labels = labels
        self.vertices = tuple(vertices)
        self.runs = runs
        self._roots = tuple(RootOfUnity(modulus, e) for e in range(modulus))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def q(self, a, b) -> RootOfUnity:
        return self._roots[self.labels[a[0]][b[0]][b[1]]]

    def restrict(self, vertices) -> "DiagonalSubspace":
        vertices = tuple(vertices)
        known = set(self.vertices)
        for v in vertices:
            if v not in known:
                raise ValueError("vertex %r is repeated or not in the subspace"
                                 % (v,))
            known.remove(v)
        return DiagonalSubspace(self.subrack, self.modulus, self.labels,
                                vertices, self.runs)

    def blocks(self) -> list:
        """The vertex indices in blocks of twins: each block a maximal run of
        consecutive vertices in one column whose eigenvectors share a joint
        character."""
        runs = self.runs
        out = []
        previous = None
        for x, (j, s) in enumerate(self.vertices):
            key = (j, runs[s])
            if key == previous:
                out[-1].append(x)
            else:
                out.append([x])
                previous = key
        return out

    def vertex_names(self) -> tuple:
        return tuple("t%d.v%d" % (j, s) for j, s in self.vertices)

    def __repr__(self) -> str:
        return "DiagonalSubspace(size=%d over %r)" % (self.size, self.subrack)


class SpectrumPlan(NamedTuple):
    """The part of a joint spectrum that does not depend on rho: the
    elements of H = <generators> in layer order (e_1 fastest), each as its
    (L, s) class label in the centralizer, at which characters are read,
    and the |H| linear characters of H, each as its phase at every element
    (psi(h) = zeta_modulus^phase) and its exponents on the generators."""

    modulus: int
    scale: int
    class_labels: tuple
    characters: tuple


def spectrum_plan(cls: UnmixedClass, generators, modulus: int) -> SpectrumPlan:
    """Build H = <generators> and its linear characters for planned_spectrum.

    H is built layer by layer: a generator not yet in H joins with its
    relative order r, so every element is a unique word g_1^e_1 ... g_l^e_l
    with 0 <= e_i < r_i, and a linear character psi is fixed by exponents
    x_i with psi(g_i) = zeta_modulus^x_i, subject to r_i x_i = (exponent of
    psi at g_i^r_i, a word in earlier layers).  Each layer multiplies the
    characters by r_i, so exactly |H| of them are listed.  modulus must be a
    multiple of k and of every generator's order."""
    if modulus % cls.k:
        raise ValueError("modulus must be a multiple of k")
    identity = Permutation.identity(cls.degree)
    elements = [identity]
    words = {identity: ()}
    layers = []
    for g in generators:
        if g in words:
            continue
        r, power = 1, g
        while power not in words:
            power = power * g
            r += 1
        layers.append((r, words[power]))
        grown = []
        grown_words = {}
        step = identity
        for e in range(r):
            for h in elements:
                x = step * h
                grown.append(x)
                grown_words[x] = words[h] + (e,)
            step = step * g
        elements = grown
        words = grown_words
    characters = [()]
    for r, rel in layers:
        wider = []
        for x in characters:
            s = sum(c * xi for c, xi in zip(rel, x)) % modulus
            if s % r:
                raise ArithmeticError("generators do not commute")
            wider.extend(x + ((s // r + t * (modulus // r)) % modulus,)
                         for t in range(r))
        characters = wider
    planned = []
    for x in characters:
        phases = [0]
        for (r, _), xi in zip(layers, x):
            phases = [p + e * xi for e in range(r) for p in phases]
        exps = tuple(sum(w * xi for w, xi in zip(words[g], x)) % modulus
                     for g in generators)
        planned.append((tuple(phases), exps))
    return SpectrumPlan(modulus, modulus // cls.k,
                        tuple(cls.normal_form(h).class_label(cls.k)
                              for h in elements),
                        tuple(planned))


def planned_spectrum(plan: SpectrumPlan, character: InducedCharacter) -> list:
    """The joint spectrum of rho on a planned H: one pair (exps, mult) per
    linear character psi that occurs, psi(generators[t]) = zeta^exps[t] with
    zeta = zeta_modulus, in lexicographic order of exps.

    The multiplicity of psi is (1/|H|) sum_h chi(h) psi(h)^-1, with chi read
    at the class label of every element of H and summed as integer
    coefficients over Z/modulus; the sum is checked to be rational, and read
    off, by integer traces (rational_value), and the multiplicities to add
    up to the degree."""
    modulus = plan.modulus
    scale = plan.scale
    # chi(h) as terms (exponent mod modulus, integer)
    terms = [tuple((a * scale, c) for a, c in
                   enumerate(character.coefficients(label)) if c)
             for label in plan.class_labels]
    order = len(terms)
    spectrum = []
    for phases, exps in plan.characters:
        acc = [0] * modulus
        for phase, hterms in zip(phases, terms):
            for a, c in hterms:
                acc[(a - phase) % modulus] += c
        total = rational_value(modulus, acc)
        if total is None or total % order:
            raise ArithmeticError("character inner product is not an integer")
        mult = int(total) // order
        if mult:
            spectrum.append((exps, mult))
    if sum(mult for _, mult in spectrum) != character.degree:
        raise ArithmeticError("multiplicities do not add up to the degree")
    spectrum.sort()
    return spectrum


class SubrackPlan(NamedTuple):
    """The part of a diagonal subspace that does not depend on rho: the
    subrack, its conjugation table, the distinct entries in order of first
    appearance (row i, then column j), and the plan of the group they make."""

    subrack: AbelianSubrack
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
    table = subrack.gamma_table()
    modulus = lcm(*(p.order() for row in table for p in row))
    distinct = tuple(dict.fromkeys(p for row in table for p in row))
    if not all(a.commutes_with(b) for a, b in itertools.combinations(distinct, 2)):
        raise ValueError("conjugation table entries do not commute")
    return SubrackPlan(subrack, table, distinct,
                       spectrum_plan(subrack.cls, distinct, modulus))


def _braiding_labels(plan: SubrackPlan, character: InducedCharacter) -> tuple:
    """(modulus, labels, runs) with labels[i][j][s] the exponent of the
    eigenvalue of rho(gamma_ij) on eigenvector s, and runs[s] the index of
    the joint character of eigenvector s."""
    spectrum = planned_spectrum(plan.spectrum, character)
    column = {p: tuple(exps[t] for exps, mult in spectrum for _ in range(mult))
              for t, p in enumerate(plan.distinct)}
    labels = tuple(tuple(column[p] for p in row) for row in plan.table)
    runs = tuple(r for r, (_, mult) in enumerate(spectrum) for _ in range(mult))
    return plan.spectrum.modulus, labels, runs


def diagonal_subspace(plan: SubrackPlan,
                      character: InducedCharacter) -> DiagonalSubspace:
    """The diagonal subspace of rho over the planned subrack."""
    modulus, labels, runs = _braiding_labels(plan, character)
    vertices = tuple((j, s) for j in range(plan.subrack.size)
                     for s in range(character.degree))
    return DiagonalSubspace(plan.subrack, modulus, labels, vertices, runs)


class GeneralizedDynkinDiagram:
    """Vertex labels q_aa and edge labels q_ab q_ba (edges only where != 1).

    The vertices fall into blocks of twins, each block a tuple of vertices
    in increasing order whose members have one label towards every other
    vertex.  So the edges are given between blocks, (x, y, label) with
    x <= y; an edge (x, x) joins the members of block x pairwise, and no
    vertex is its own neighbor.  Without blocks every vertex is a block of
    its own, and the edges are between vertices.  The sorted neighbors of
    a block's members are built on first use, one set shared by twins, and
    the vertex edge list only when it is asked for."""

    __slots__ = ("vertex_labels", "names", "blocks", "block_of", "_adjacent",
                 "_neighbors", "_neighbor_sets", "_edges")

    def __init__(self, vertex_labels, edges, names=None, blocks=None) -> None:
        self.vertex_labels = tuple(vertex_labels)
        size = len(self.vertex_labels)
        if names is None:
            names = tuple("v%d" % i for i in range(size))
        self.names = tuple(names)
        if blocks is None:
            self.blocks = tuple((v,) for v in range(size))
            self.block_of = tuple(range(size))
        else:
            self.blocks = tuple(tuple(members) for members in blocks)
            block_of = [0] * size
            for x, members in enumerate(self.blocks):
                for v in members:
                    block_of[v] = x
            self.block_of = tuple(block_of)
        self._adjacent = tuple({} for _ in self.blocks)
        for x, y, w in edges:
            self._adjacent[x].setdefault(y, w)
            self._adjacent[y].setdefault(x, w)
        self._neighbors = [None] * size
        self._neighbor_sets = [None] * size
        self._edges = None

    @property
    def size(self) -> int:
        return len(self.vertex_labels)

    def block_adjacent(self, x: int) -> dict:
        """The blocks adjacent to block x, itself included when its twins are
        adjacent to each other, mapped to the edge label."""
        return self._adjacent[x]

    def edge_label(self, a: int, b: int):
        if a == b:
            return None
        return self._adjacent[self.block_of[a]].get(self.block_of[b])

    def _fill(self, a: int) -> None:
        x = self.block_of[a]
        members = self.blocks[x]
        adjacent = self._adjacent[x]
        around = sorted(v for y in adjacent if y != x for v in self.blocks[y])
        if x in adjacent:
            for b in members:
                near = tuple(sorted(around + [v for v in members if v != b]))
                self._neighbors[b] = near
                self._neighbor_sets[b] = frozenset(near)
        else:
            near = tuple(around)
            shared = frozenset(near)
            for b in members:
                self._neighbors[b] = near
                self._neighbor_sets[b] = shared

    def neighbors(self, a: int) -> tuple:
        if self._neighbors[a] is None:
            self._fill(a)
        return self._neighbors[a]

    def neighbor_set(self, a: int) -> frozenset:
        """The neighbors of a as a set: membership is a lookup, and & or -
        with another set gives a set."""
        if self._neighbor_sets[a] is None:
            self._fill(a)
        return self._neighbor_sets[a]

    @property
    def edges(self) -> tuple:
        """Every edge (a, b, label) with a < b, sorted by (a, b)."""
        if self._edges is None:
            self._edges = tuple((a, b, self.edge_label(a, b))
                                for a in range(self.size)
                                for b in self.neighbors(a) if b > a)
        return self._edges

    def components(self) -> tuple:
        """The connected components, each a sorted vertex tuple, ordered by
        least vertex.  Adjacent blocks lie in one component whole; a block
        adjacent to no other is one component when its twins are adjacent,
        else one per member."""
        seen = [False] * len(self.blocks)
        out = []
        for start in range(len(self.blocks)):
            if seen[start]:
                continue
            seen[start] = True
            group = [start]
            stack = [start]
            while stack:
                for y in self._adjacent[stack.pop()]:
                    if not seen[y]:
                        seen[y] = True
                        group.append(y)
                        stack.append(y)
            if len(group) == 1 and start not in self._adjacent[start]:
                out.extend((v,) for v in self.blocks[start])
            else:
                out.append(tuple(sorted(v for x in group for v in self.blocks[x])))
        return tuple(sorted(out))

    def to_dot(self) -> str:
        lines = ["graph diagram {"]
        for i, label in enumerate(self.vertex_labels):
            lines.append('  %s [label="%s"];' % (self.names[i], label))
        for a, b, w in self.edges:
            lines.append('  %s -- %s [label="%s"];' % (self.names[a], self.names[b], w))
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "GeneralizedDynkinDiagram(size=%d, edges=%d)" % (self.size, len(self.edges))


def dynkin_diagram(subspace: DiagonalSubspace) -> GeneralizedDynkinDiagram:
    """The diagram of a diagonal subspace on its blocks of twins: one label
    per pair of blocks, read off their first members.  Two twins a, b have
    q_ab q_ba = q_aa^2, an edge only before the scalar gate."""
    verts = subspace.vertices
    labels = subspace.labels
    modulus = subspace.modulus
    roots = subspace._roots
    blocks = subspace.blocks()
    heads = [verts[members[0]] for members in blocks]
    edges = []
    for x, (ia, sa) in enumerate(heads):
        row = labels[ia]
        for y in range(x if len(blocks[x]) > 1 else x + 1, len(heads)):
            ib, sb = heads[y]
            w = (row[ib][sb] + labels[ib][ia][sa]) % modulus
            if w:
                edges.append((x, y, roots[w]))
    return GeneralizedDynkinDiagram([roots[labels[j][j][s]] for j, s in verts],
                                    edges, subspace.vertex_names(), blocks)
