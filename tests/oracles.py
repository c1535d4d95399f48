"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with different
algorithms than the package modules: finite-type detection comes from an
explicit rank-limited catalog plus networkx graph isomorphism, and from the
general reading of a braiding as a generalized Cartan matrix (a congruence
per pair, a symmetrizer and exact positive definiteness) where the package
reads simply-laced shapes off the diagram,
representations are explicit matrices over the exact cyclotomic field of
exactfield_oracle and exactla_oracle (a symmetric-group matrix catalog
induced up to the centralizer), diagonalized by exact linear algebra where
the package uses characters read on a basis only, negativity is checked
by walking commuting pairs, each pulled back along an explicit transporter,
instead of partner classes and their dual labels in closed form, and the
whole class and centralizer are listed element by element where the
package works with their conjugacy-class labels, a witness is shrunk by
listing every triangle and running one unbounded BFS per edge where the
package reads each slice's least 4-cycle off common neighbors, on at most
two twins per node, and searches edge by edge only to confirm it, the
Dynkin diagram is built one vertex pair at a time, and searched for
alternating 4-cycles vertex by vertex, where the package labels one pair
of nodes at a time and searches two members per node, a witness is drawn
row by row from the diagram on its own rectangle of vertices, where the
package fills in one template per capped pattern, and that template is
read off the rectangle's own diagram where the package reads the
rectangle's label table in one pass, and the group of a
subrack's table entries is closed on permutations of the k*n points, each
element taken to normal form for its label, with every linear character
and the joint spectrum summed over every element, where the package
closes it on the cosets of the basepoint, on the normal forms of its
generators, and sums one value of the characters at the basepoint over
the coset representatives.  The command line is read by
argparse, where the package reads it against its own table of options.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import re
from bisect import bisect_right
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import NamedTuple, Optional, Union

import networkx as nx

from nichols.braidspace import (GeneralizedDynkinDiagram, SpectrumPlan,
                                triple_subrack)
from nichols.cli import SELECTORS
from nichols.exactfield import root_name
from nichols.permgroup import NormalForm, Permutation, UnmixedClass
from nichols.reps import RepSpec, partitions_of, sn_character
from nichols.verdict import (INFINITE, NegativityReport, Verdict, _Template,
                             class_plan)

from exactfield_oracle import (MINUS_ONE, ONE, ROOT_MINUS_ONE, ROOT_ONE, ZERO,
                               Cyclotomic, RootOfUnity, zeta)
from exactla_oracle import Matrix, _normalize, kernel, kron


# whole groups and classes, listed element by element

def conjugacy_class(t: tuple, n: int) -> list:
    """Every permutation of S_n with cycle type t (its cycle lengths, fixed
    points included), each exactly once.

    Deterministic order: the cycle containing the smallest unused point is
    chosen first, its length runs over the available lengths in increasing
    order, and the remaining cycle entries run lexicographically.
    """
    if sum(t) != n:
        raise ValueError("cycle type does not fill 1..n")
    counts = Counter(t)

    def rec(unused: tuple):
        if not unused:
            yield ()
            return
        x = unused[0]
        rest = unused[1:]
        for length in sorted(j for j, m in counts.items() if m > 0):
            counts[length] -= 1
            for body in itertools.permutations(rest, length - 1):
                taken = set(body)
                remaining = tuple(y for y in rest if y not in taken)
                for tail in rec(remaining):
                    yield ((x,) + body,) + tail
            counts[length] += 1

    return [Permutation.from_cycles(n, cycles)
            for cycles in rec(tuple(range(1, n + 1)))]


def class_elements(cls) -> list:
    """Every element of the unmixed class, in conjugacy_class order."""
    return conjugacy_class(cls.cycle_type(), cls.degree)


def class_size(t: tuple) -> int:
    """The size of the class of cycle type t in the symmetric group on
    sum(t) points: N! over j^m m! for each length j of multiplicity m."""
    size = factorial(sum(t))
    for j, m in Counter(t).items():
        size //= j ** m * factorial(m)
    return size


def permutation_order(p: Permutation) -> int:
    # the lcm of the cycle lengths
    return lcm(*(len(c) for c in p.cycles(include_fixed=True)))


def sign(p: Permutation) -> int:
    """(-1)^(N - number of cycles)."""
    return -1 if (p.degree - len(p.cycles(include_fixed=True))) % 2 else 1


def is_identity(p: Permutation) -> bool:
    return all(y == i + 1 for i, y in enumerate(p.img))


def A(cls, j: int) -> Permutation:
    """The cycle rotation A_j: the basepoint's cycle on block j."""
    if not 1 <= j <= cls.n:
        raise ValueError("block index out of range")
    return Permutation.from_cycles(
        cls.degree, [tuple(cls.point(j, h) for h in range(1, cls.k + 1))])


def B(cls, i: int) -> Permutation:
    """The adjacent block swap B_i of blocks i and i + 1."""
    if not 1 <= i <= cls.n - 1:
        raise ValueError("adjacent swap index out of range")
    return cls.block_swap(i, i + 1)


def transporter(cls, t: Permutation) -> Permutation:
    """A deterministic g with g * basepoint * g^{-1} = t: the cycles of t
    are ordered by their least points, and block j goes onto the j-th of
    them, read from its least point."""
    if t.cycle_type() != cls.cycle_type():
        raise ValueError("target has the wrong cycle type")
    target_cycles = sorted(
        (c[c.index(min(c)):] + c[:c.index(min(c))] for c in t.cycles()),
        key=lambda c: c[0])
    img = [0] * cls.degree
    for j, cyc in enumerate(target_cycles, start=1):
        for h in range(1, cls.k + 1):
            img[cls.point(j, h) - 1] = cyc[h - 1]
    return Permutation(img)


def centralizer_generators(cls) -> list:
    """The cycle rotations A_1..A_n and the adjacent block swaps B_1..B_{n-1}."""
    return [A(cls, j) for j in range(1, cls.n + 1)] + \
           [B(cls, i) for i in range(1, cls.n)]


def centralizer_elements(cls):
    """All k^n * n! centralizer elements, identity first, deterministic order."""
    for b in itertools.permutations(range(1, cls.n + 1)):
        for d in itertools.product(range(cls.k), repeat=cls.n):
            yield cls.assemble(NormalForm(d, b))


def tried_subracks(cls) -> list:
    """The candidate subracks of the class plus, for k = 2, the triples at
    l < n // 2, in decreasing l: they give the same braiding labels as the
    candidate triple at n // 2 (see verdict._candidates), and the grid
    tests walk them all."""
    subracks = [plan.subrack for plan in class_plan(cls.k, cls.n).plans()]
    if cls.k == 2:
        subracks += [triple_subrack(cls, l)
                     for l in range(cls.n // 2 - 1, 0, -1)]
    return subracks


def conjugate(g: Permutation, h: Permutation) -> Permutation:
    """g acting on h by conjugation, g h g^-1, as a product of three
    permutations."""
    return g * h * g.inverse()


class GammaCharacter(NamedTuple):
    """Character of (Z/k)^n sending the j-th generator to zeta_k^{u_j}."""

    k: int
    u: tuple

    @property
    def n(self) -> int:
        return len(self.u)

    def __repr__(self) -> str:
        return "chi(%s mod %d)" % (",".join(str(x) for x in self.u), self.k)


class YoungSubgroup(NamedTuple):
    """Product of symmetric groups on the listed position blocks of 1..n."""

    blocks: tuple


def orbit_and_stabilizer(chi: GammaCharacter) -> tuple:
    """S_n-orbit of chi (descending lexicographic order), listed by running
    over every permutation of its entries, and its stabilizer."""
    vectors = sorted(set(itertools.permutations(chi.u)), reverse=True)
    orbit = [GammaCharacter(chi.k, u) for u in vectors]
    blocks = tuple(
        tuple(i for i, x in enumerate(chi.u, start=1) if x == v)
        for v in sorted(set(chi.u), reverse=True))
    return orbit, YoungSubgroup(blocks)


def in_centralizer(cls, g: Permutation) -> bool:
    try:
        cls.normal_form(g)
        return True
    except ValueError:
        return False


def degree_sequence(diagram) -> tuple:
    """Sorted node degrees, counted from the edge list of a diagram with no
    edge from a node to itself."""
    degrees = [0] * len(diagram.nodes)
    for a, b, _ in diagram.edges:
        degrees[a] += 1
        degrees[b] += 1
    return tuple(sorted(degrees))


def dense(k: int, terms) -> list:
    """The k integers c with sum_a c[a] zeta_k^a equal to the sum of the
    (a, c) terms."""
    out = [0] * k
    for a, c in terms:
        out[a % k] += c
    return out


def character_value(character, nf: NormalForm) -> Cyclotomic:
    """chi(d, b) as a field element, read at the class label of (d, b)."""
    return Cyclotomic(character.k, dense(
        character.k, character.coefficients(nf.class_label(character.k))))


def coefficients_by_placements(character, label: tuple) -> tuple:
    """chi at the class with the given (L, s) label, as its nonzero terms
    sorted by exponent, by handing the label's cycles to the levels of the
    character one at a time: every placement of every cycle, alike cycles
    included, adds its term (the package counts the placements of alike
    cycles by multinomials)."""
    k = character.k
    u = character.spec.u
    levels = [(v, u.count(v), part) for v, part in
              zip(sorted(set(u), reverse=True), character.spec.partitions)]
    out = [0] * k
    room = [count for _, count, _ in levels]
    lengths = [[] for _ in levels]

    def assign(c: int, phase: int) -> None:
        if c == len(label):
            factor = 1
            for (_, _, part), cycle_type in zip(levels, lengths):
                factor *= sn_character(part, tuple(cycle_type))
                if not factor:
                    return
            out[phase % k] += factor
            return
        length, s = label[c]
        for i, (v, _, _) in enumerate(levels):
            if room[i] >= length:
                room[i] -= length
                lengths[i].append(length)
                assign(c + 1, phase + v * s)
                lengths[i].pop()
                room[i] += length

    assign(0, 0)
    return tuple((a, c) for a, c in enumerate(out) if c)


def partition_degree(part: tuple) -> int:
    """Degree of the symmetric-group irrep labeled by the partition, by the
    hook-length formula: the reference for the degrees that nichols.reps
    reads off sn_character at the identity."""
    m = sum(part)
    hooks = 1
    for i, row in enumerate(part):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in part[i + 1:] if r > j)
            hooks *= arm + leg + 1
    return factorial(m) // hooks


# dense representation matrices: a symmetric-group catalog covering every
# partition for m <= 4 and, for m >= 5, the families (m), (1^m), (m-1,1),
# (2,1^(m-2)), induced up to the centralizer

class CatalogGapError(Exception):
    """The requested symmetric-group irrep is outside the built-in catalog."""


class SnIrrep:
    """An irrep of S_m given by matrices for the adjacent transpositions."""

    __slots__ = ("m", "partition", "gens", "degree", "_cache")

    def __init__(self, m: int, partition: tuple, gens: tuple) -> None:
        self.m = m
        self.partition = tuple(partition)
        self.gens = tuple(gens)
        self.degree = self.gens[0].nrows if self.gens else 1
        self._cache = {}

    def matrix(self, p: Permutation) -> Matrix:
        if p.degree != self.m:
            raise ValueError("permutation degree mismatch")
        hit = self._cache.get(p.img)
        if hit is not None:
            return hit
        arr = list(p.img)
        word = []
        changed = True
        while changed:
            changed = False
            for t in range(self.m - 1):
                if arr[t] > arr[t + 1]:
                    arr[t], arr[t + 1] = arr[t + 1], arr[t]
                    word.append(t)
                    changed = True
        out = Matrix.identity(self.degree)
        for t in reversed(word):
            out = out * self.gens[t]
        self._cache[p.img] = out
        return out

    def __repr__(self) -> str:
        return "SnIrrep(m=%d, partition=%s)" % (self.m, self.partition)


def _standard_gens(m: int) -> tuple:
    # basis u_i = e_1 - e_{i+1} of the sum-zero subspace, i = 1..m-1:
    # (1 2) negates u_1 and subtracts it from the rest, (j j+1) for j >= 2
    # swaps u_{j-1} and u_j
    gens = []
    dim = m - 1
    first = [[-ONE] * dim] + [
        [ONE if a == b else ZERO for b in range(dim)] for a in range(1, dim)]
    gens.append(Matrix(first))
    for j in range(1, dim):
        rows = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
        rows[j - 1][j - 1] = ZERO
        rows[j][j] = ZERO
        rows[j - 1][j] = ONE
        rows[j][j - 1] = ONE
        gens.append(Matrix(rows))
    return tuple(gens)


def catalog_covers(m: int, partition) -> bool:
    partition = tuple(partition)
    if m <= 4:
        return True
    return partition in ((m,), (1,) * m, (m - 1, 1), (2,) + (1,) * (m - 2))


@lru_cache(maxsize=None)
def _catalog_irrep(m: int, partition: tuple) -> SnIrrep:
    if partition not in partitions_of(m):
        raise ValueError("%r is not a partition of %d" % (partition, m))
    if partition == (m,):
        return SnIrrep(m, partition, tuple(Matrix([[1]]) for _ in range(m - 1)))
    if partition == (1,) * m:
        return SnIrrep(m, partition, tuple(Matrix([[-1]]) for _ in range(m - 1)))
    if partition == (m - 1, 1):
        return SnIrrep(m, partition, _standard_gens(m))
    if partition == (2,) + (1,) * (m - 2):
        return SnIrrep(m, partition, tuple(-g for g in _standard_gens(m)))
    if partition == (2, 2):
        # pull back the two-dimensional irrep through the quotient of S_4
        # by the normal Klein subgroup; the quotient maps s1, s3 to one
        # S_3 transposition and s2 to another
        std3 = _standard_gens(3)
        return SnIrrep(4, partition, (std3[1], std3[0], std3[1]))
    raise CatalogGapError("no catalog entry for partition %s of %d" % (partition, m))


def _label_to_partition(m: int, label: str) -> tuple:
    # the partition of m that each mu label names, kept apart from the
    # package's parser, which this module checks
    return {"trivial": (m,), "sign": (1,) * m, "standard": (m - 1, 1),
            "standard_sign": (2,) + (1,) * (m - 2)}[label]


def sn_irrep(m: int, label) -> SnIrrep:
    """Catalog lookup by name ("trivial", "sign", "standard", "standard_sign")
    or by partition tuple."""
    if isinstance(label, str):
        partition = _label_to_partition(m, label)
    else:
        partition = tuple(label)
    return _catalog_irrep(m, partition)


class YoungIrrep:
    """Outer tensor product of catalog irreps over the blocks of a Young subgroup."""

    __slots__ = ("young", "factors", "degree", "_cache")

    def __init__(self, young: YoungSubgroup, factors) -> None:
        factors = tuple(factors)
        if len(factors) != len(young.blocks):
            raise ValueError("need one factor per block")
        for block, factor in zip(young.blocks, factors):
            if factor.m != len(block):
                raise ValueError("factor degree does not match block size")
        self.young = young
        self.factors = factors
        degree = 1
        for factor in factors:
            degree *= factor.degree
        self.degree = degree
        self._cache = {}

    @property
    def partitions(self) -> tuple:
        return tuple(factor.partition for factor in self.factors)

    def matrix(self, b: Permutation) -> Matrix:
        hit = self._cache.get(b.img)
        if hit is not None:
            return hit
        if not all(all(b(x) in block for x in block) for block in self.young.blocks):
            raise ValueError("element is not in the Young subgroup")
        out = None
        for block, factor in zip(self.young.blocks, self.factors):
            rel = Permutation(block.index(b(x)) + 1 for x in block)
            mat = factor.matrix(rel)
            out = mat if out is None else kron(out, mat)
        self._cache[b.img] = out
        return out

    def __repr__(self) -> str:
        return "YoungIrrep(%s)" % ",".join(
            "+".join(str(x) for x in p) for p in self.partitions)


class InducedRep:
    """Representation induced from chi (x) mu up to the whole centralizer.

    Basis vectors are pairs (coset representative, mu-basis index); coset
    representatives are the minimal-length permutations carrying the base
    character to each orbit member, with the orbit in descending
    lexicographic order, so the first representative is the identity.
    """

    __slots__ = ("k", "n", "chi", "mu", "orbit", "coset_reps", "degree", "_index")

    def __init__(self, chi: GammaCharacter, mu: YoungIrrep) -> None:
        if any(chi.u[i] < chi.u[i + 1] for i in range(chi.n - 1)):
            raise ValueError("character must be a non-increasing orbit representative")
        orbit, stab = orbit_and_stabilizer(chi)
        if mu.young != stab:
            raise ValueError("mu is not a representation of the stabilizer of chi")
        self.k = chi.k
        self.n = chi.n
        self.chi = chi
        self.mu = mu
        self.orbit = tuple(orbit)
        self.coset_reps = tuple(_coset_rep(chi.u, member.u) for member in orbit)
        self.degree = len(orbit) * mu.degree
        self._index = {member.u: i for i, member in enumerate(orbit)}

    def evaluate(self, nf: NormalForm) -> Matrix:
        d = tuple(nf.d)
        if len(d) != self.n or len(nf.b) != self.n:
            raise ValueError("normal form size mismatch")
        b = Permutation(nf.b)
        dm = self.mu.degree
        size = self.degree
        entries = [[ZERO] * size for _ in range(size)]
        for i, wi in enumerate(self.coset_reps):
            # the orbit member permuted by b: target[b(t)] = u[t]
            target = [0] * self.n
            for t, x in enumerate(self.orbit[i].u, start=1):
                target[b(t) - 1] = x
            j = self._index[tuple(target)]
            h = self.coset_reps[j].inverse() * b * wi
            phase = zeta(self.k, sum(x * y for x, y in zip(target, d)))
            block = self.mu.matrix(h)
            for r in range(dm):
                brow = block.rows[r]
                row = entries[j * dm + r]
                for v in range(dm):
                    if brow[v]:
                        row[i * dm + v] = phase * brow[v]
        return Matrix(entries)

    def __repr__(self) -> str:
        return "InducedRep(chi=%r, mu=%r, degree=%d)" % (self.chi, self.mu, self.degree)


def _coset_rep(base_u: tuple, target_u: tuple) -> Permutation:
    # minimal-length permutation w with (w . base)_t = target_t: map the
    # positions of each value in order
    n = len(base_u)
    img = [0] * n
    for v in sorted(set(base_u), reverse=True):
        src = [i for i, x in enumerate(base_u, start=1) if x == v]
        dst = [i for i, x in enumerate(target_u, start=1) if x == v]
        for s, t in zip(src, dst):
            img[s - 1] = t
    return Permutation(img)


def resolve(spec) -> InducedRep:
    """The matrix representation named by a RepSpec; CatalogGapError when
    a partition is outside the catalog."""
    chi = GammaCharacter(spec.k, spec.u)
    _, stab = orbit_and_stabilizer(chi)
    factors = []
    for block, part in zip(stab.blocks, spec.partitions):
        if not catalog_covers(len(block), part):
            raise CatalogGapError(
                "irrep %s needs the uncataloged partition %s"
                % (spec.label(), "+".join(str(x) for x in part)))
        factors.append(_catalog_irrep(len(block), tuple(part)))
    return InducedRep(chi, YoungIrrep(stab, factors))


def cataloged(spec) -> bool:
    return all(catalog_covers(sum(p), p) for p in spec.partitions)


def dense_pi_scalar(rho: InducedRep, cls):
    """The scalar matrix by which the basepoint acts, read off the matrix."""
    if cls.k != rho.k or cls.n != rho.n:
        raise ValueError("class and representation sizes do not match")
    mat = rho.evaluate(NormalForm((1,) * rho.n, tuple(range(1, rho.n + 1))))
    scalar = mat.is_scalar()
    if scalar is None:
        raise ArithmeticError("basepoint does not act by a scalar")
    return scalar


# simultaneous diagonalization of commuting finite-order matrices

class NonCommutingError(Exception):
    """A family passed for simultaneous diagonalization has a non-commuting pair."""

    def __init__(self, i: int, j: int) -> None:
        super().__init__("family members %d and %d do not commute" % (i, j))
        self.pair = (i, j)


def _split_subspace(m: Matrix, lam, vecs: list) -> list:
    """Basis of the lam-eigenspace of m intersected with span(vecs)."""
    images = []
    for v in vecs:
        mv = m.apply(v)
        images.append(tuple(a - lam * b for a, b in zip(mv, v)))
    coeff_kernel = kernel(Matrix.from_columns(images))
    out = []
    for coeffs in coeff_kernel:
        vec = [ZERO] * len(vecs[0])
        for c, v in zip(coeffs, vecs):
            if c:
                for idx, x in enumerate(v):
                    if x:
                        vec[idx] = vec[idx] + c * x
        out.append(_normalize(vec))
    return out


def simultaneous_diagonalize(family, orders) -> tuple:
    """Common eigenbasis of a commuting family of finite-order operators.

    Returns (basis, table) with table[i][r] the eigenvalue of family[i] on
    basis vector r.  Operators are refined in the order given, candidate
    eigenvalues in the order zeta^0, zeta^1, ..., so the basis runs through
    the joint eigenvalue exponents in lexicographic order.  Raises
    NonCommutingError on the first non-commuting pair, and ArithmeticError
    if any member fails to diagonalize.
    """
    family = list(family)
    orders = list(orders)
    if len(family) != len(orders):
        raise ValueError("need one order per operator")
    if not family:
        raise ValueError("family must be nonempty")
    dim = family[0].nrows
    for m in family:
        if m.shape != (dim, dim):
            raise ValueError("family members must be square of equal size")
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if family[i] * family[j] != family[j] * family[i]:
                raise NonCommutingError(i, j)
    blocks = [([tuple(ONE if t == s else ZERO for t in range(dim)) for s in range(dim)], ())]
    for m, order in zip(family, orders):
        refined = []
        for vecs, eigs in blocks:
            found = 0
            for a in range(order):
                if found == len(vecs):
                    # eigenspaces are independent: the block is used up
                    break
                lam = zeta(order, a)
                sub = _split_subspace(m, lam, vecs)
                if sub:
                    refined.append((sub, eigs + (lam,)))
                    found += len(sub)
            if found != len(vecs):
                raise ArithmeticError("operator is not diagonalizable over the candidates")
        blocks = refined
    basis = []
    table = [[] for _ in family]
    for vecs, eigs in blocks:
        for v in vecs:
            basis.append(v)
            for i, lam in enumerate(eigs):
                table[i].append(lam)
    return basis, [tuple(row) for row in table]


def gamma(subrack, i: int, j: int):
    """The conjugation table entry g_j^{-1} t_i g_j of a subrack, one entry
    at a time, an element centralizing the basepoint."""
    return subrack.elements[i].conjugated_by(subrack.transporters[j].inverse())


def dense_columns(subrack, rho) -> tuple:
    """Per column j of the conjugation table, (basis, table) with
    table[i][s] the eigenvalue of rho(gamma_ij) on basis vector s.

    The distinct table entries must commute pairwise: one shared eigenbasis
    of all of them serves every column."""
    cls = subrack.cls
    size = subrack.size
    perms = [[gamma(subrack, i, j) for j in range(size)] for i in range(size)]
    distinct = list(dict.fromkeys(p for row in perms for p in row))
    family = [rho.evaluate(cls.normal_form(p)) for p in distinct]
    basis, table = simultaneous_diagonalize(
        family, list(map(permutation_order, distinct)))
    basis = tuple(basis)
    index = {p: d for d, p in enumerate(distinct)}
    return tuple(
        (basis, tuple(tuple(table[index[perms[i][j]]]) for i in range(size)))
        for j in range(size))




# finite-type Cartan catalog, rank <= 8

def _chain(n: int) -> list:
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _star(arms: tuple) -> list:
    # three paths of the given edge counts glued at a fresh center vertex
    n = 1 + sum(arms)
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    v = 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            a[prev][v] = -1
            a[v][prev] = -1
            prev = v
            v += 1
    return a


def finite_catalog(max_rank: int = 8) -> list:
    out = []
    for n in range(1, max_rank + 1):
        out.append(("A%d" % n, _chain(n)))
    for n in range(2, max_rank + 1):
        b = _chain(n)
        b[n - 2][n - 1] = -2
        out.append(("B%d" % n, b))
        c = _chain(n)
        c[n - 1][n - 2] = -2
        out.append(("C%d" % n, c))
    for n in range(4, max_rank + 1):
        out.append(("D%d" % n, _star((1, 1, n - 3))))
    for name, arms in (("E6", (1, 2, 2)), ("E7", (1, 2, 3)), ("E8", (1, 2, 4))):
        out.append((name, _star(arms)))
    f = _chain(4)
    f[1][2] = -2
    out.append(("F4", f))
    out.append(("G2", [[2, -1], [-3, 2]]))
    return out


def _gcm_digraph(a: list) -> nx.DiGraph:
    g = nx.DiGraph()
    n = len(a)
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j] != 0:
                g.add_edge(i, j, w=a[i][j])
    return g


def _components(a: list) -> list:
    n = len(a)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        queue, comp = [s], []
        seen[s] = True
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in range(n):
                if w != v and not seen[w] and (a[v][w] or a[w][v]):
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


_CATALOG_CACHE = None


def finite_type_lookup(a: list) -> bool:
    """True when every connected component is isomorphic to a catalog entry."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        _CATALOG_CACHE = [(name, m, _gcm_digraph(m)) for name, m in finite_catalog()]
    for comp in _components(a):
        if len(comp) > 8:
            return False
        sub = [[a[i][j] for j in comp] for i in comp]
        bag = sorted(x for row in sub for x in row)
        graph = _gcm_digraph(sub)
        hit = False
        for _, m, ref in _CATALOG_CACHE:
            if len(m) != len(sub):
                continue
            if sorted(x for row in m for x in row) != bag:
                continue
            if nx.is_isomorphic(graph, ref,
                                edge_match=lambda x, y: x["w"] == y["w"]):
                hit = True
                break
        if not hit:
            return False
    return True


# random symmetrizable generalized Cartan matrices

def random_symmetrizable_gcm(rng: random.Random, max_rank: int = 8) -> list:
    """One block-diagonal symmetrizable GCM with permuted indices; roughly
    half the blocks are catalog entries so both answers get exercised."""
    blocks = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            blocks.append(rng.choice(finite_catalog(max_rank))[1])
        else:
            blocks.append(_random_block(rng, rng.randint(1, max_rank)))
    total = sum(len(b) for b in blocks)
    if total > max_rank:
        blocks = blocks[:1]
        total = len(blocks[0])
    a = [[0] * total for _ in range(total)]
    at = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                a[at + i][at + j] = b[i][j]
        at += len(b)
    perm = list(range(total))
    rng.shuffle(perm)
    return [[a[perm[i]][perm[j]] for j in range(total)] for i in range(total)]


def _random_block(rng: random.Random, n: int) -> list:
    # symmetrizable by construction: a_ij = s_ij / d_i with symmetric s
    d = [rng.choice((1, 2, 3)) for _ in range(n)]
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    edges = {(i - 1, i) for i in range(1, n)}
    extra = rng.randint(0, max(0, n - 2))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(extra):
        edges.add(rng.choice(pool))
    for i, j in sorted(edges):
        t = rng.choice((1, 1, 1, 2))
        s = -t * (d[i] * d[j]) // gcd(d[i], d[j])
        a[i][j] = s // d[i]
        a[j][i] = s // d[j]
    return a


# the general reading of a diagonal braiding as a generalized Cartan
# matrix, for any vertex labels and any symmetrizable matrix: the reference
# that the simply-laced graph reading of nichols.verdict.cartan_finite is
# compared against

def braiding_matrix(space) -> tuple:
    """The square table of braiding values q(a, b) over the vertices."""
    return tuple(tuple(space.q(a, b) for b in space.vertices)
                 for a in space.vertices)


class CartanData(NamedTuple):
    """Integer matrix a_ij with a_ii = 2 plus the orders of the diagonal
    braiding entries it was extracted from."""
    matrix: tuple
    diagonal_orders: tuple


class NotCartan(NamedTuple):
    reason: str
    where: tuple = ()


def cartan_type(Q) -> Union[CartanData, NotCartan]:
    """Extract the integer exponent matrix of a diagonal braiding, given as
    a square table of RootOfUnity.

    For each pair needs q_ij*q_ji = q_ii**a_ij with a_ij in (-ord(q_ii), 0].
    Over a common modulus, q = zeta^e, that is the congruence
    -a_ij * e_ii = e_ij + e_ji, solvable exactly when gcd(e_ii, modulus)
    divides the right side, and then with one solution in the window.
    Diagonal entries must differ from 1.
    """
    m = len(Q)
    modulus = lcm(*(x.order() for row in Q for x in row))
    e = [[modulus // x.m * x.a for x in row] for row in Q]
    for i in range(m):
        if not e[i][i]:
            return NotCartan("diagonal entry 1", (i,))
    rows = [[2] * m for _ in range(m)]
    for i in range(m):
        g = gcd(e[i][i], modulus)
        order = modulus // g
        inverse = pow(e[i][i] // g, -1, order)
        for j in range(m):
            if i == j:
                continue
            product = (e[i][j] + e[j][i]) % modulus
            if product % g:
                return NotCartan("no admissible exponent", (i, j))
            rows[i][j] = -((-(product // g) * inverse) % order)
    return CartanData(tuple(tuple(r) for r in rows),
                      tuple(Q[i][i].order() for i in range(m)))


def _validate_gcm(A) -> None:
    m = len(A)
    for i in range(m):
        if len(A[i]) != m:
            raise ValueError("matrix must be square")
        if A[i][i] != 2:
            raise ValueError("diagonal entries must equal 2")
        for j in range(m):
            if i != j:
                if A[i][j] > 0:
                    raise ValueError("off-diagonal entries must be <= 0")
                if (A[i][j] == 0) != (A[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")


def _symmetrizer(A, comp) -> Optional[list]:
    # spanning-tree propagation of d_i * a_ij = d_j * a_ji, verified on the
    # remaining edges; None when no positive symmetrizer exists
    d = {comp[0]: Fraction(1)}
    queue = [comp[0]]
    while queue:
        v = queue.pop(0)
        for w in comp:
            if w == v or A[v][w] == 0:
                continue
            want = d[v] * Fraction(A[v][w], A[w][v])
            if w in d:
                if d[w] != want:
                    return None
            else:
                d[w] = want
                queue.append(w)
    return [d[v] for v in comp]


def _positive_definite(S) -> bool:
    # Gaussian elimination over the rationals: every pivot positive
    m = len(S)
    work = [[Fraction(x) for x in row] for row in S]
    for p in range(m):
        pivot = work[p][p]
        if pivot <= 0:
            return False
        for i in range(p + 1, m):
            factor = work[i][p] / pivot
            if not factor:
                continue
            for j in range(p, m):
                work[i][j] -= factor * work[p][j]
    return True


def symmetrizable(data: CartanData) -> bool:
    A = data.matrix
    _validate_gcm(A)
    return all(_symmetrizer(A, comp) is not None for comp in _components(A))


def finite_type(data: CartanData) -> bool:
    """True iff the matrix is symmetrizable with positive definite
    symmetrization, component by component (exact rational arithmetic)."""
    A = data.matrix
    _validate_gcm(A)
    for comp in _components(A):
        edges = sum(1 for a, b in itertools.combinations(comp, 2) if A[a][b] != 0)
        if edges >= len(comp):
            return False
        d = _symmetrizer(A, comp)
        if d is None:
            return False
        S = [[d[x] * A[comp[x]][comp[y]] for y in range(len(comp))]
             for x in range(len(comp))]
        if not _positive_definite(S):
            return False
    return True


def diagram_label(data: CartanData) -> Optional[str]:
    """Best-effort name for a connected exponent matrix: simply-laced cycles
    and trees get their standard labels; anything else is unnamed."""
    A = data.matrix
    if len(_components(A)) != 1:
        return None
    m = len(A)
    if m == 1:
        return "A1"
    simply = all(A[i][j] in (0, -1) for i in range(m) for j in range(m) if i != j)
    if not simply:
        return None
    degrees = [sum(1 for j in range(m) if j != i and A[i][j]) for i in range(m)]
    edges = sum(degrees) // 2
    if edges == m and all(d == 2 for d in degrees):
        return "A%d(1)" % (m - 1)
    if edges != m - 1:
        return None
    if all(d <= 2 for d in degrees):
        return "A%d" % m
    if degrees.count(3) != 1 or max(degrees) > 3:
        return None
    center = degrees.index(3)
    arms = []
    for start in (j for j in range(m) if j != center and A[center][j]):
        length = 1
        prev, cur = center, start
        while True:
            nxt = [j for j in range(m) if j != prev and j != cur and A[cur][j]]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return "D%d" % m
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    return None


# frozen braiding matrices for the weight-one involution classes: the
# canonical triple carries this 6x6 matrix over the two relevant
# eigenvectors (a 6-cycle), and the rotation quadruple at k = 4, c = 1
# carries the edgeless 4x4 below

REFERENCE_Q_SIX_CYCLE = [
    ["-1", "-1", "1", "-1", "1", "-1"],
    ["-1", "-1", "1", "-1", "1", "-1"],
    ["1", "-1", "-1", "-1", "1", "-1"],
    ["1", "-1", "-1", "-1", "1", "-1"],
    ["1", "-1", "1", "-1", "-1", "-1"],
    ["1", "-1", "1", "-1", "-1", "-1"],
]

REFERENCE_Q_ROTATION_EDGELESS = [
    ["-1", "-1", "1", "1"],
    ["-1", "-1", "1", "1"],
    ["1", "1", "-1", "-1"],
    ["1", "1", "-1", "-1"],
]


# braiding-matrix comparison up to a simultaneous index permutation

def q_matches_up_to_permutation(q: list, ref: list) -> bool:
    n = len(ref)
    if len(q) != n:
        return False
    for perm in itertools.permutations(range(n)):
        if all(q[perm[a]][perm[b]] == ref[a][b]
               for a in range(n) for b in range(n)):
            return True
    return False


# negativity without the partner-class reduction

def _scalar_of(rho, cls, g):
    return rho.evaluate(cls.normal_form(g)).is_scalar()


def _basepoint_failure(rho, cls):
    q = dense_pi_scalar(rho, cls)
    if q != MINUS_ONE:
        return NegativityReport(False, 0, False,
                                {"reason": "basepoint scalar is not -1",
                                 "q_scalar": str(q)}, ())
    return None


@lru_cache(maxsize=None)
def _commuting_pairs(k: int, n: int) -> tuple:
    """What negativity_full reads of the (k^n) class, whatever the
    representation: each element t with t pulled back along its own
    transporter, in order, and each commuting pair a < b with a pulled back
    along the transporter of b and b along that of a."""
    cls = UnmixedClass(k, n)
    elements = sorted(class_elements(cls))
    carriers = {t: transporter(cls, t) for t in elements}
    diagonal = tuple((t, conjugate(carriers[t].inverse(), t))
                     for t in elements)
    pairs = tuple((a, b, conjugate(carriers[b].inverse(), a),
                   conjugate(carriers[a].inverse(), b))
                  for a, b in itertools.combinations(elements, 2)
                  if a.commutes_with(b))
    return diagonal, pairs


def negativity_full(cls, rho) -> NegativityReport:
    """Every commuting pair of the whole class, each checked on both sides;
    quadratic in the class size, so only for small classes.  The pairs and
    their pulled-back elements are listed once per class."""
    failed = _basepoint_failure(rho, cls)
    if failed is not None:
        return failed
    diagonal, pairs = _commuting_pairs(cls.k, cls.n)
    values = {}

    def scalar(g):
        # pulled-back elements repeat: at most k^n * n! distinct ones
        if g not in values:
            values[g] = _scalar_of(rho, cls, g)
        return values[g]

    checked = 0
    for t, pulled in diagonal:
        if scalar(pulled) != MINUS_ONE:
            return NegativityReport(
                False, checked, False,
                {"pair": (str(t), str(t)), "reason": "diagonal value is not -1"},
                ())
    for a, b, pulled_a, pulled_b in pairs:
        checked += 1
        x = scalar(pulled_a)
        y = scalar(pulled_b)
        if x is None or y is None:
            return NegativityReport(
                False, checked, False,
                {"pair": (str(a), str(b)), "reason": "non-scalar value"}, ())
        if x * y != ONE:
            return NegativityReport(
                False, checked, False,
                {"pair": (str(a), str(b)), "value": str(x * y),
                 "reason": "opposite values do not cancel"}, ())
    return NegativityReport(True, checked, False, None, ())


@lru_cache(maxsize=None)
def _walked_partners(k: int, n: int) -> tuple:
    """What negativity_walk reads of the (k^n) class, whatever the
    representation: each partner t of the basepoint pi found by walking
    the centralizer, in order, with pi pulled back along the transporter
    of t."""
    cls = UnmixedClass(k, n)
    pi = cls.basepoint
    want = cls.cycle_type()
    return tuple((t, conjugate(transporter(cls, t).inverse(), pi))
                 for t in sorted(h for h in centralizer_elements(cls)
                                 if h != pi and h.cycle_type() == want))


def negativity_walk(cls, rho) -> NegativityReport:
    """The basepoint against every partner found by walking all k^n * n!
    centralizer elements; for classes too large for negativity_full."""
    failed = _basepoint_failure(rho, cls)
    if failed is not None:
        return failed
    pi = cls.basepoint
    partners = _walked_partners(cls.k, cls.n)
    for checked, (t, pulled) in enumerate(partners, start=1):
        lam = _scalar_of(rho, cls, t)
        mu = _scalar_of(rho, cls, pulled)
        if lam is None or mu is None or lam * mu != ONE:
            return NegativityReport(
                False, checked, False,
                {"pair": (str(pi), str(t)), "reason": "not negative"}, ())
    return NegativityReport(True, len(partners), False, None, (),
                            len(partners))


# the diagonal subspace and its Dynkin diagram vertex by vertex

# one RootOfUnity per (modulus, exponent), shared by every label read
_root = lru_cache(maxsize=None)(RootOfUnity)


def label_root(diagram, exponent) -> Optional[RootOfUnity]:
    """A label of a node diagram of nichols.braidspace, which holds it as
    its exponent of zeta_modulus, as a RootOfUnity; None stays None."""
    return None if exponent is None else _root(diagram.modulus, exponent)


def node_of(diagram, vertex) -> int:
    """The node of the vertex (j, s) of a node diagram."""
    j, s = vertex
    return ((bisect_right(diagram.columns, j) - 1) * len(diagram.offsets)
            + bisect_right(diagram.offsets, s) - 1)


def edge_label(diagram, u, v):
    """The edge label of vertices u and v of a node diagram, as its
    exponent, None where they are not adjacent."""
    if u == v:
        return None
    return diagram.adjacent(node_of(diagram, u)).get(node_of(diagram, v))


class VertexSpace:
    """A diagonal subspace listed vertex by vertex: the vertices (j, s) of
    a node diagram of nichols.braidspace, with its braiding values.  The
    node of each vertex is looked up once, in a map that every restriction
    of the space shares."""

    def __init__(self, diagram, vertices, nodes=None) -> None:
        self.diagram = diagram
        self.vertices = tuple(vertices)
        self._nodes = {} if nodes is None else nodes

    @property
    def size(self) -> int:
        return len(self.vertices)

    def _node(self, v):
        if v not in self._nodes:
            self._nodes[v] = node_of(self.diagram, v)
        return self._nodes[v]

    def q(self, a, b):
        return label_root(self.diagram,
                          self.diagram.q(self._node(a), self._node(b)))

    def restrict(self, vertices) -> "VertexSpace":
        vertices = tuple(vertices)
        known = set(self.vertices)
        for v in vertices:
            if v not in known:
                raise ValueError("vertex %r is repeated or not in the subspace"
                                 % (v,))
            known.remove(v)
        return VertexSpace(self.diagram, vertices, self._nodes)


def vertex_space(diagram) -> VertexSpace:
    """Every vertex of a node diagram, in vertex order."""
    return VertexSpace(diagram, [(j, s) for j, indices in diagram.nodes
                                 for s in indices])


def rectangle(diagram, columns, indices,
              offsets=None) -> GeneralizedDynkinDiagram:
    """The node diagram on the vertices (j, s) of a node diagram with j in
    columns and s in indices, both increasing, each vertex a node of its
    own.  Given offsets, the first index of each run in a numbering whose
    runs have at least as many members, each index s of run t is renamed
    offsets[t] + s - diagram.offsets[t]: a diagram on capped runs draws
    the vertices of the full one."""
    places = [bisect_right(diagram.columns, j) - 1 for j in columns]
    runs = [bisect_right(diagram.offsets, s) - 1 for s in indices]
    if offsets is not None:
        indices = [offsets[t] + s - diagram.offsets[t]
                   for s, t in zip(indices, runs)]
    return GeneralizedDynkinDiagram(
        diagram.modulus, columns, [(s, 1) for s in indices],
        tuple(tuple(tuple(diagram.labels[a][b][t] for t in runs)
                    for b in places) for a in places))


def template(plan, diagram, rule, firing, detail, cycle_order) -> _Template:
    """The witness template of a reading of the subspace rules (rule,
    firing vertices, witness fields, cycle order) on a capped pattern's
    diagram, as verdict._template made it before it read the rectangle in
    one pass: every value, component and position read off the diagram of
    the rectangle (the firing set's columns) x (its indices), and the DOT
    text drawn whole by its dot_lines, with its braces doubled and each
    index name turned into the str.format slot of its place."""
    cols = sorted({j for j, _ in firing})
    vecs = sorted({s for _, s in firing})
    rect = rectangle(diagram, cols, vecs)
    size = len(rect.nodes)
    fields = {
        "subrack": plan.description,
        "element_images": plan.element_images,
        "transporter_images": plan.transporter_images,
        "q_matrix": [[root_name(rect.modulus, rect.q(x, y))
                      for y in range(size)] for x in range(size)],
        "components": [list(c) for c in rect.components()],
        "firing": sorted(node_of(rect, v) for v in firing),
        **detail,
    }
    if cycle_order:
        fields["cycle"] = [node_of(rect, v) for v in cycle_order]
    runs = []
    for s in vecs:
        t = node_of(diagram, (cols[0], s)) % len(diagram.offsets)
        runs.append((t, s - diagram.offsets[t]))
    text = "\n".join(rect.dot_lines()).replace("{", "{{").replace("}", "}}")
    return _Template(rule, fields, tuple(cols), tuple(runs), re.sub(
        r"\.v(\d+)", lambda m: ".v{%d}" % vecs.index(int(m.group(1))), text))


def rectangle_witness(plan, spectrum, diagram, rule, firing, detail,
                      cycle_order) -> Verdict:
    """The verdict of a reading of the subspace rules (rule, firing
    vertices, witness fields, cycle order) on a diagram of the joint
    spectrum, which may be capped, drawn afresh from the diagram on the
    rectangle (the firing set's columns) x (its indices), its indices
    renamed by the runs of the spectrum, where the package fills in a
    template made once per capped pattern."""
    cols = sorted({j for j, _ in firing})
    vecs = sorted({s for _, s in firing})
    position = {v: i for i, v in
                enumerate((j, s) for j in cols for s in vecs)}
    expanded = rectangle(diagram, cols, vecs, tuple(itertools.accumulate(
        (mult for _, mult in spectrum), initial=0)))
    size = len(position)
    witness = {
        "subrack": plan.description,
        "element_images": [list(t.img) for t in plan.subrack.elements],
        "transporter_images": [list(g.img) for g in plan.subrack.transporters],
        "vertices": [[j, s] for j in cols for s in expanded.offsets],
        "q_matrix": [[root_name(diagram.modulus, expanded.q(x, y))
                      for y in range(size)] for x in range(size)],
        "diagram_dot": "\n".join(expanded.dot_lines()),
        "components": [list(c) for c in expanded.components()],
        "firing": sorted(position[v] for v in firing),
    }
    if cycle_order:
        witness["cycle"] = [position[v] for v in cycle_order]
    witness.update(detail)
    return Verdict(INFINITE, rule, witness)


class VertexDiagram:
    """A generalized Dynkin diagram on vertices: vertex labels, and edges
    (a, b, label) with a < b, one per vertex pair whose label is not 1."""

    def __init__(self, vertex_labels, edges, names) -> None:
        self.vertex_labels = tuple(vertex_labels)
        self.names = tuple(names)
        self.edges = tuple(sorted(edges, key=lambda e: e[:2]))
        self._adjacent = [{} for _ in self.vertex_labels]
        for a, b, w in self.edges:
            self._adjacent[a][b] = self._adjacent[b][a] = w

    @property
    def size(self) -> int:
        return len(self.vertex_labels)

    def neighbors(self, a: int) -> tuple:
        return tuple(sorted(self._adjacent[a]))

    def neighbor_set(self, a: int) -> frozenset:
        return frozenset(self._adjacent[a])

    def edge_label(self, a: int, b: int):
        return self._adjacent[a].get(b)

    def components(self) -> tuple:
        graph = nx.Graph()
        graph.add_nodes_from(range(self.size))
        graph.add_edges_from((a, b) for a, b, _ in self.edges)
        return tuple(sorted(tuple(sorted(c))
                            for c in nx.connected_components(graph)))

    def to_dot(self) -> str:
        lines = ["graph diagram {"]
        for i, label in enumerate(self.vertex_labels):
            lines.append('  %s [label="%s"];' % (self.names[i], label))
        for a, b, w in self.edges:
            lines.append('  %s -- %s [label="%s"];'
                         % (self.names[a], self.names[b], w))
        lines.append("}")
        return "\n".join(lines)


def dynkin_diagram_by_pairs(subspace) -> VertexDiagram:
    """The generalized Dynkin diagram of a diagonal subspace with the label
    q_ab q_ba computed for every pair of vertices a < b."""
    verts = subspace.vertices
    edges = []
    for a, u in enumerate(verts):
        for b in range(a + 1, len(verts)):
            w = subspace.q(u, verts[b]) * subspace.q(verts[b], u)
            if w != ROOT_ONE:
                edges.append((a, b, w))
    return VertexDiagram([subspace.q(v, v) for v in verts], edges,
                         ["t%d.v%d" % v for v in verts])


def cycle_rule(diagram: VertexDiagram, vertices) -> Optional[dict]:
    """The labeled 4-cycle rule searched on every vertex: the first
    chordless 4-cycle a - b - c - d with every vertex label -1, a < c, b
    and d among the common neighbors of a and c in order, whose edge labels
    alternate nu, 1/nu (opposite edges equal)."""
    minus = [v for v in sorted(vertices)
             if diagram.vertex_labels[v] == ROOT_MINUS_ONE]
    mset = set(minus)
    for a in minus:
        nbrs_a = diagram.neighbor_set(a)
        for c in minus:
            if c <= a or c in nbrs_a:
                continue
            commons = [x for x in diagram.neighbors(a)
                       if x in mset and diagram.edge_label(x, c) is not None]
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


# witness shrinking by listing every triangle and one full BFS per edge

def shortest_cycle(diagram) -> Optional[tuple]:
    """A minimum-length cycle of the diagram (chordless by minimality), as a
    vertex tuple in cycle order, or None for forests: one unbounded BFS per
    edge, least by (length, sorted tuple)."""
    best = None
    for a, b, _ in diagram.edges:
        dist = {a: 0}
        parent = {a: None}
        queue = deque([a])
        while queue:
            v = queue.popleft()
            for w in diagram.neighbors(v):
                if (v, w) in ((a, b), (b, a)):
                    continue
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        if b not in dist:
            continue
        path = [b]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        cycle = tuple(path)
        key = (len(cycle), tuple(sorted(cycle)))
        if best is None or key < best[0]:
            best = (key, cycle)
    return None if best is None else best[1]


def minimal_infinite_set(space, sub, comp: tuple) -> tuple:
    """The witness of a non-finite Cartan component: every triangle listed
    and the least by (expansion, sorted tuple) taken; else the shortest
    cycle of the component and of each one- or two-index slice, each from
    a rebuilt diagram, least by (expansion, length, tuple); else the
    component.  Vertices are positions in space.vertices."""
    def _expansion_size(firing):
        cols = {space.vertices[x][0] for x in firing}
        vecs = {space.vertices[x][1] for x in firing}
        return len(cols) * len(vecs)

    subdiag = dynkin_diagram_by_pairs(sub)
    adjacency = [set(subdiag.neighbors(v)) for v in range(subdiag.size)]
    triangles = []
    for a in range(subdiag.size):
        for b in sorted(adjacency[a]):
            if b <= a:
                continue
            for c in sorted(adjacency[a] & adjacency[b]):
                if c > b:
                    triangles.append(tuple(sorted((comp[a], comp[b], comp[c]))))
    if triangles:
        return min(triangles, key=lambda t: (_expansion_size(t), t))
    candidates = []
    vec_indices = sorted({space.vertices[x][1] for x in comp})
    for r in (1, 2):
        for subset in itertools.combinations(vec_indices, r):
            keep = [x for x in comp if space.vertices[x][1] in subset]
            if len(keep) < 3:
                continue
            rdiag = dynkin_diagram_by_pairs(
                space.restrict(space.vertices[x] for x in keep))
            cyc = shortest_cycle(rdiag)
            if cyc is not None:
                firing = tuple(sorted(keep[i] for i in cyc))
                candidates.append(
                    (_expansion_size(firing), len(cyc), firing))
    cyc = shortest_cycle(subdiag)
    if cyc is not None:
        firing = tuple(sorted(comp[x] for x in cyc))
        candidates.append((_expansion_size(firing), len(cyc), firing))
    if candidates:
        return min(candidates)[2]
    return comp


class ReferenceGroup(NamedTuple):
    """An abelian group H = <pi, generators> listed whole on permutations
    (permutation_spectrum_plan): the class label of every element, in
    layer order, so that the element at index i is pi^(i mod k) times the
    one at i - (i mod k), and is placed as (i mod k, i // k); the layers
    after pi, each as its relative order and the place of its r-th power;
    the place of each generator; and every linear character psi of H, by
    psi(pi) slowest, as its phase at every element and its exponents on
    the generators."""

    k: int
    labels: tuple
    layers: tuple
    generators: tuple
    characters: tuple

    def plan(self) -> SpectrumPlan:
        """The plan that braidspace.spectrum_plan builds of the same
        generators: the labels of every k-th element, from the identity,
        are those of the coset representatives of <pi>."""
        k = self.k
        return SpectrumPlan(k, self.labels[::k], self.labels[1], self.layers,
                            self.generators)

    def spectrum(self, character) -> list:
        """The joint spectrum of a character on H, each multiplicity
        (1/|H|) sum_h chi(h) psi(h)^-1 summed over every element h, for
        every linear character psi, read off its trace (a Ramanujan sum
        per power of zeta_k): the (exps, mult) pairs with mult > 0, in
        order."""
        k = self.k
        sums = _ramanujan_sums(k)
        # the trace of chi(h) zeta_k^-p, for every label and phase p
        traces = {label: [sum(c * sums[(a - p) % k] for a, c in
                              character.coefficients(label))
                          for p in range(k)]
                  for label in set(self.labels)}
        rows = [traces[label] for label in self.labels]
        order = sums[0] * len(rows)
        spectrum = []
        for phases, exps in self.characters:
            total = sum(row[p] for row, p in zip(rows, phases))
            assert total % order == 0, exps
            if total:
                spectrum.append((exps, total // order))
        return sorted(spectrum)


def permutation_spectrum_plan(cls, generators) -> ReferenceGroup:
    """H = <pi, generators> and its linear characters, closed whole on
    permutations of the k*n points, in the layer order of
    braidspace.spectrum_plan, the basepoint first, each class label read
    from its normal form; a generator of relative order r joins with every
    extension of each character listed so far (r x = the exponent at its
    r-th power), and a character with none raises ArithmeticError."""
    k = cls.k
    identity = Permutation.identity(cls.degree)
    elements = [identity]
    words = {identity: ()}
    layers = []
    for g in [cls.basepoint] + list(generators):
        if g in words:
            continue
        r, power = 1, g
        while power not in words:
            power = power * g
            r += 1
        layers.append((r, power))
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
    for r, power in layers:
        wider = []
        for x in characters:
            s = sum(c * xi for c, xi in zip(words[power], x)) % k
            if k % r or s % r:
                raise ArithmeticError("generators do not make an abelian "
                                      "group of exponent dividing k")
            wider.extend(x + ((s // r + t * (k // r)) % k,)
                         for t in range(r))
        characters = wider
    index = {h: i for i, h in enumerate(elements)}

    def place(h):
        return index[h] % k, index[h] // k

    def exponent(word, x):
        return sum(w * xi for w, xi in zip(word, x)) % k

    listed = [words[h] for h in elements]
    generator_words = [words[g] for g in generators]
    return ReferenceGroup(
        k, tuple(cls.normal_form(h).class_label(k) for h in elements),
        tuple((r,) + place(power) for r, power in layers[1:]),
        tuple(map(place, generators)),
        tuple((tuple(exponent(w, x) for w in listed),
               tuple(exponent(w, x) for w in generator_words))
              for x in characters))


def rotation_defects(character, q: int, labels) -> list:
    """The indices i of labels, the class labels of every element of an H
    in the layer order of permutation_spectrum_plan, at which
    chi(pi^e r) = zeta_k^(q e) chi(r) fails as terms, for the element
    pi^e r at index i, e = i mod k, and r the one at i - e.

    The identity holds for every InducedCharacter with q = pi_scalar: the
    label of pi^e h moves each (L, s) of h's to (L, s + e L), so in
    reps.placements each level i, filled exactly, has its twist sum S_i
    moved by e m_i, m_i its size, and the phase sum_i v_i S_i by
    e sum_i v_i m_i = e sum(u) = e q mod k: every term moves by q e."""
    k = character.k
    defects = []
    for i, label in enumerate(labels):
        shift = q * (i % k)
        if character.coefficients(label) != tuple(sorted(
                ((a + shift) % k, c)
                for a, c in character.coefficients(labels[i - i % k]))):
            defects.append(i)
    return defects


def permutation_witness_group(subrack, cols: tuple) -> tuple:
    """H_w, whose cosets of <pi> witness._witness_reading closes on,
    closed whole on permutations of the k*n points by breadth-first search
    from the identity: the generator place
    of each gamma_ij, the modulus, the Cayley edges and the class label of
    each element, read from its normal form."""
    cls = subrack.cls
    position = {}
    generator = tuple(tuple(position.setdefault(gamma(subrack, i, j),
                                                len(position))
                            for j in cols) for i in cols)
    generators = tuple(position)
    for g in generators:
        cls.normal_form(g)
    if not all(a.commutes_with(b)
               for a, b in itertools.combinations(generators, 2)):
        raise ValueError("conjugation table entries do not commute")
    modulus = lcm(cls.k, *map(permutation_order, generators))
    identity = Permutation.identity(cls.degree)
    index = {identity: 0}
    queue = [identity]
    edges = []
    for h in queue:
        row = []
        for g in generators:
            x = g * h
            if x not in index:
                index[x] = len(queue)
                queue.append(x)
            row.append(index[x])
        edges.append(tuple(row))
    return (generator, modulus, tuple(edges),
            tuple(cls.normal_form(h).class_label(cls.k) for h in queue))


def per_element_sums(subrack, cols: tuple, used: tuple, character) -> list:
    """sum_h chi(h) psi(h)^-1 over H_w (permutation_witness_group) for
    each psi of used, given by its exponents on the distinct table
    entries: each psi carried from the identity along the Cayley edges,
    and chi read at the label of every element in turn; each sum as a
    rational_value, or None on an edge where a psi fails.  The reference
    for witness._character_sums, which sums over the coset representatives
    of <pi> only and reads chi once per distinct label of theirs."""
    _, modulus, edges, labels = permutation_witness_group(subrack, cols)
    phases = [None] * len(edges)
    phases[0] = (0,) * len(used)
    for h, row in enumerate(edges):
        for t, x in enumerate(row):
            step = tuple((p + psi[t]) % modulus
                         for p, psi in zip(phases[h], used))
            if phases[x] is None:
                phases[x] = step
            elif phases[x] != step:
                return None
    scale = modulus // character.k
    terms = [[(a * scale, c) for a, c in character.coefficients(label)]
             for label in labels]
    sums = []
    for d in range(len(used)):
        acc = [0] * modulus
        for at, hterms in zip(phases, terms):
            for a, c in hterms:
                acc[(a - at[d]) % modulus] += c
        sums.append(rational_value(modulus, acc))
    return sums


# the rational value of an integer combination of roots of unity, and the
# representation spec parser, in the per-entry forms that the package's
# reading on a basis (nichols.exactfield.integer_value) and one-pass
# parser (nichols.reps.parse_rep_spec) are compared against

@lru_cache(maxsize=None)
def _ramanujan_sums(m: int) -> tuple:
    """c_m(j) for j < m, the sum of the j-th powers of the primitive m-th
    roots of unity, which is the trace from Q(zeta_m) to Q of zeta_m^j
    (Hardy-Wright 16.6): the j-th powers of all m-th roots sum to m when
    m divides j and to 0 otherwise, and the roots of each exact order
    d | m contribute c_d(j)."""
    sums = [m] + [0] * (m - 1)
    for d in range(1, m):
        if m % d == 0:
            inner = _ramanujan_sums(d)
            for j in range(m):
                sums[j] -= inner[j % d]
    return tuple(sums)


def rational_value(m: int, coeffs) -> Optional[Fraction]:
    """The rational number x = sum_j coeffs[j] zeta_m^j, for m integer
    coefficients, or None when x is not rational, by the trace form: it
    is non-degenerate, so x is the rational r exactly when
    Tr(x zeta_m^-b) = r c_m(b) for every b below phi(m) = c_m(0)."""
    sums = _ramanujan_sums(m)
    phi = sums[0]
    terms = [(j, c) for j, c in enumerate(coeffs) if c]
    trace = sum(c * sums[j] for j, c in terms)
    for b in range(1, phi):
        if phi * sum(c * sums[j - b] for j, c in terms) != trace * sums[b]:
            return None
    return Fraction(trace, phi)


def parse_rep_spec(k: int, n: int, text: str) -> RepSpec:
    """Parse "chi=(u1,...,un);mu=<label>" (mu defaults to trivial), field
    by field and entry by entry, each token converted on its own."""
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError("malformed representation spec %r" % text)
        key, _, val = part.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError("repeated representation spec field: %s" % key)
        fields[key] = val.strip()
    unknown = set(fields) - {"chi", "mu"}
    if unknown:
        raise ValueError("unknown representation spec fields: %s" % ", ".join(sorted(unknown)))
    if "chi" not in fields:
        raise ValueError("representation spec needs a chi field")
    chi_text = fields["chi"]
    if ":" in chi_text:
        prefix, _, weight = chi_text.partition(":")
        if prefix.strip() not in ("2", "k"):
            raise ValueError("unknown character shorthand %r; use chi=2:<j>" % chi_text)
        if k != 2:
            raise ValueError("the weight shorthand chi=2:<j> is defined for k = 2 only")
        try:
            j = _integer(weight)
        except ValueError:
            raise ValueError("weight %r is not an integer" % weight.strip()) from None
        if not 0 <= j <= n:
            raise ValueError("weight %d out of range 0..%d" % (j, n))
        u = (1,) * j + (0,) * (n - j)
    else:
        body = chi_text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        tokens = []
        for entry in body.split(",") if body.strip() else ():
            if not entry.strip():
                raise ValueError("character vector %r has an empty entry" % body)
            tokens += entry.split()
        if k < 1:
            raise ValueError("modulus must be positive")
        u = tuple(_integer(tok) % k for tok in tokens)
        if len(u) != n:
            raise ValueError("character vector must have length %d" % n)
        u = tuple(sorted(u, reverse=True))
    sizes = tuple(u.count(v) for v in sorted(set(u), reverse=True))
    return RepSpec(k, n, u, _parse_mu(sizes, fields.get("mu", "trivial")))


def _integer(token: str) -> int:
    # an optional "-" then ASCII digits, with spaces around them: not "+1",
    # "1_0" or digits of another script, which int() reads too; the spaces
    # are those str.strip() takes, "\x1c" to "\x1f" among them, which
    # int() keeps
    digits = token.strip()
    if not re.fullmatch(r"-?[0-9]+", digits):
        raise ValueError("%r is not an integer" % token)
    return int(digits)


def _parse_mu(sizes: tuple, text: str) -> tuple:
    if text in ("trivial", "sign"):
        return tuple(_label_to_partition(s, text) for s in sizes)
    if text in ("standard", "standard_sign"):
        bigs = [idx for idx, s in enumerate(sizes) if s >= 2]
        if len(bigs) != 1:
            raise ValueError(
                "%s needs exactly one stabilizer block of size >= 2; use catalog:..." % text)
        return tuple(
            _label_to_partition(s, text) if idx == bigs[0] else (1,)
            for idx, s in enumerate(sizes))
    if text.startswith("catalog:"):
        chunks = text[len("catalog:"):].split("|")
        if len(chunks) != len(sizes):
            raise ValueError("mu needs %d block partitions, got %d" % (len(sizes), len(chunks)))
        partitions = []
        for chunk, s in zip(chunks, sizes):
            try:
                part = tuple(sorted(
                    (_integer(tok) for tok in chunk.split("+")), reverse=True))
            except ValueError:
                part = ()
            if sum(part) != s or any(x < 1 for x in part):
                raise ValueError("%r is not a partition of block size %d" % (chunk, s))
            partitions.append(part)
        return tuple(partitions)
    raise ValueError("unknown mu label %r" % text)


# the shape checks of a subrack witness entry by entry, against which the
# package's scans of each list (nichols.witness._rectangle and _is_table)
# are compared

def witness_rectangle(w: dict, width: int, degree: int) -> tuple:
    """The sorted columns and indices of a witness's vertices and its
    firing and cycle lists, or the ValueError of the first shape check
    that fails: each vertex tested as a list of length 2, each entry's
    type tested, and the vertex pairs compared with the rectangle."""
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
            or cols[0] < 0 or cols[-1] >= width
            or vecs[0] < 0 or vecs[-1] >= degree):
        raise ValueError("witness vertices must be the rectangle of their "
                         "columns and indices, none repeated, below the "
                         "subrack size and the degree")
    return cols, vecs, indices


def is_witness_table(q_matrix, size: int) -> bool:
    """Whether q_matrix is a list of size lists of size str entries,
    tested row by row."""
    return not (not isinstance(q_matrix, list) or len(q_matrix) != size
                or any(not isinstance(row, list) or len(row) != size
                       for row in q_matrix)
                or set(map(type, itertools.chain(*q_matrix))) - {str})


# the command line as argparse reads it, against which the package's
# table-driven parser (nichols.cli.parse_args) is compared

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(64)


def build_parser() -> _Parser:
    parser = _Parser(prog="nichols", description="nichols command line")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep_required: bool):
        p.add_argument("--k", type=int, required=True, help="cycle length")
        p.add_argument("--n", type=int, required=True, help="number of cycles")
        if rep_required:
            p.add_argument("--rep", required=True,
                           help='representation spec, e.g. "chi=(1,1,1);mu=standard"')

    p = sub.add_parser("classify", help="classify a single representation")
    common(p, rep_required=True)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = sub.add_parser("table", help="classify every centralizer irrep")
    common(p, rep_required=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = sub.add_parser("diagram", help="print a braiding diagram as DOT")
    common(p, rep_required=True)
    p.add_argument("--subrack", default=None, help=" | ".join(
        name + (":" + shape if shape else "")
        for name, (_, shape) in SELECTORS.items()))
    return parser
