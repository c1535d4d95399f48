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

Construction families: the canonical involution subrack (k = 2), the swap and
rotation quadruples (k even, n >= 2) and the power subrack (n = 1; drawn by
`diagram --subrack powers`, never tried by the decision).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .exactfield import RootOfUnity, rational_value
from .permgroup import Permutation, UnmixedClass, conjugate
from .reps import InducedCharacter


def gamma(t: Permutation, g: Permutation) -> Permutation:
    """Pull t back along the transporter g: g^{-1} t g."""
    return t.conjugated_by(g.inverse())


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
        return gamma(self.elements[i], self.transporters[j])

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
    sigma, swap, swapinv = cls.canonical_involutions(i, j)
    pi = cls.basepoint
    mixed = pi * cls.block_swap(i, j)
    elements = (pi, pi.inverse(), mixed, mixed.inverse())
    transporters = (Permutation.identity(cls.degree), sigma, swap, swapinv)
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
    it does not depend on r.
    """

    __slots__ = ("subrack", "modulus", "labels", "vertices", "_roots")

    def __init__(self, subrack: AbelianSubrack, modulus: int, labels,
                 vertices) -> None:
        self.subrack = subrack
        self.modulus = modulus
        self.labels = labels
        self.vertices = tuple(vertices)
        self._roots = tuple(RootOfUnity(modulus, e) for e in range(modulus))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def q(self, a, b) -> RootOfUnity:
        return self._roots[self.labels[a[0]][b[0]][b[1]]]

    def braiding_matrix(self) -> tuple:
        return tuple(tuple(self.q(a, b) for b in self.vertices)
                     for a in self.vertices)

    def restrict(self, vertices) -> "DiagonalSubspace":
        vertices = tuple(vertices)
        known = set(self.vertices)
        for v in vertices:
            if v not in known:
                raise ValueError("vertex %r is not in the subspace" % (v,))
        return DiagonalSubspace(self.subrack, self.modulus, self.labels, vertices)

    def vertex_names(self) -> tuple:
        return tuple("t%d.v%d" % (j, s) for j, s in self.vertices)

    def __repr__(self) -> str:
        return "DiagonalSubspace(size=%d over %r)" % (self.size, self.subrack)


def joint_spectrum(cls: UnmixedClass, character: InducedCharacter,
                   generators, modulus: int) -> list:
    """Joint eigenvalues of rho on commuting centralizer elements.

    One tuple per eigenvector, its entries the exponents e with
    rho(generators[t]) acting by zeta_modulus^e_t; tuples in lexicographic
    order, each repeated by its multiplicity.  modulus must be a multiple
    of k and of every generator's order.

    H = <generators> is built layer by layer: a generator not yet in H
    joins with its relative order r, so every element is a unique word
    g_1^e_1 ... g_l^e_l with 0 <= e_i < r_i, and a linear character psi is
    fixed by exponents x_i with psi(g_i) = zeta_modulus^x_i, subject to
    r_i x_i = (exponent of psi at g_i^r_i, a word in earlier layers).  Each
    layer multiplies the characters by r_i, so exactly |H| of them are
    listed.  The multiplicity of psi is (1/|H|) sum_h chi(h) psi(h)^-1,
    summed as integer coefficients over Z/modulus; the sum is checked to be
    rational, and read off, by integer traces (rational_value).
    """
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
    # chi(h) as terms (exponent mod modulus, integer), elements in the
    # layer order: e_1 fastest
    scale = modulus // cls.k
    terms = []
    for h in elements:
        coefficients = character.coefficients(cls.normal_form(h))
        terms.append(tuple((a * scale, c) for a, c in enumerate(coefficients) if c))
    order = len(elements)
    spectrum = []
    for x in characters:
        phases = [0]
        for (r, _), xi in zip(layers, x):
            phases = [p + e * xi for e in range(r) for p in phases]
        acc = [0] * modulus
        for phase, hterms in zip(phases, terms):
            for a, c in hterms:
                acc[(a - phase) % modulus] += c
        total = rational_value(modulus, acc)
        if total is None or total % order:
            raise ArithmeticError("character inner product is not an integer")
        mult = int(total) // order
        if mult:
            exps = tuple(sum(w * xi for w, xi in zip(words[g], x)) % modulus
                         for g in generators)
            spectrum.append((exps, mult))
    if sum(mult for _, mult in spectrum) != character.degree:
        raise ArithmeticError("multiplicities do not add up to the degree")
    spectrum.sort()
    return [exps for exps, mult in spectrum for _ in range(mult)]


def _braiding_labels(subrack: AbelianSubrack, character: InducedCharacter) -> tuple:
    """(modulus, labels) with labels[i][j][s] the exponent of the eigenvalue
    of rho(gamma_ij) on eigenvector s.

    The distinct table entries must commute pairwise (true for the
    structured subrack families, whose tables close inside the subrack):
    then one joint spectrum serves every column, so an eigenvector index
    means the same vector in each column.  A subrack rebuilt from outside
    data whose table does not commute raises ValueError."""
    table = subrack.gamma_table()
    modulus = lcm(*(p.order() for row in table for p in row))
    distinct = list(dict.fromkeys(p for row in table for p in row))
    if not all(a.commutes_with(b) for a, b in itertools.combinations(distinct, 2)):
        raise ValueError("conjugation table entries do not commute")
    spectrum = joint_spectrum(subrack.cls, character, distinct, modulus)
    column = {p: tuple(eig[t] for eig in spectrum)
              for t, p in enumerate(distinct)}
    labels = tuple(tuple(column[p] for p in row) for row in table)
    return modulus, labels


def diagonal_subspace(subrack: AbelianSubrack,
                      character: InducedCharacter) -> DiagonalSubspace:
    modulus, labels = _braiding_labels(subrack, character)
    vertices = tuple((j, s) for j in range(subrack.size)
                     for s in range(character.degree))
    return DiagonalSubspace(subrack, modulus, labels, vertices)


class GeneralizedDynkinDiagram:
    """Vertex labels q_aa and edge labels q_ab q_ba (edges only where != 1).

    An adjacency map (vertex -> {neighbor: label}) is built once, so
    neighbors and edge labels are lookups rather than edge-list scans."""

    __slots__ = ("vertex_labels", "edges", "names", "_adjacent", "_neighbors")

    def __init__(self, vertex_labels, edges, names=None) -> None:
        self.vertex_labels = tuple(vertex_labels)
        self.edges = tuple(sorted(edges, key=lambda e: (e[0], e[1])))
        if names is None:
            names = tuple("v%d" % i for i in range(len(self.vertex_labels)))
        self.names = tuple(names)
        self._adjacent = tuple({} for _ in self.vertex_labels)
        for x, y, w in self.edges:
            self._adjacent[x].setdefault(y, w)
            self._adjacent[y].setdefault(x, w)
        self._neighbors = tuple(tuple(sorted(adj)) for adj in self._adjacent)

    @property
    def size(self) -> int:
        return len(self.vertex_labels)

    def edge_label(self, a: int, b: int):
        return self._adjacent[a].get(b)

    def neighbors(self, a: int) -> tuple:
        return self._neighbors[a]

    def neighbor_set(self, a: int):
        """The neighbors of a as a set view: membership is a lookup, and
        & or - with another set gives a set."""
        return self._adjacent[a].keys()

    def induced(self, vertices) -> "GeneralizedDynkinDiagram":
        """The subdiagram on the given vertices, renumbered in that order,
        with their labels and names and the edges among them."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = [(i, index[w], label) for v, i in index.items()
                 for w, label in self._adjacent[v].items()
                 if index.get(w, -1) > i]
        return GeneralizedDynkinDiagram(
            [self.vertex_labels[v] for v in index], edges,
            [self.names[v] for v in index])

    def components(self) -> tuple:
        seen = set()
        out = []
        for start in range(self.size):
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._neighbors[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return tuple(out)

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
    verts = subspace.vertices
    labels = subspace.labels
    modulus = subspace.modulus
    roots = subspace._roots
    edges = []
    for a, (ia, sa) in enumerate(verts):
        row = labels[ia]
        for b in range(a + 1, len(verts)):
            ib, sb = verts[b]
            w = (row[ib][sb] + labels[ib][ia][sa]) % modulus
            if w:
                edges.append((a, b, roots[w]))
    return GeneralizedDynkinDiagram([subspace.q(v, v) for v in verts], edges,
                                    subspace.vertex_names())
