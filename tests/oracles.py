"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with different
algorithms than the package modules: finite-type detection comes from an
explicit rank-limited catalog plus networkx graph isomorphism,
representations are explicit matrices (a symmetric-group matrix catalog
induced up to the centralizer) diagonalized by exact linear algebra where
the package uses characters only, and negativity is checked by walking
commuting pairs instead of partner classes.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import networkx as nx

from nichols.exactfield import MINUS_ONE, ONE, ZERO, zeta
from nichols.exactla import Matrix, _normalize, kernel, kron
from nichols.permgroup import NormalForm, Permutation, conjugate
from nichols.reps import (GammaCharacter, YoungSubgroup, _label_to_partition,
                          orbit_and_stabilizer, partitions_of)
from nichols.verdict import NegativityReport


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
        b = nf.b
        if len(d) != self.n or b.degree != self.n:
            raise ValueError("normal form size mismatch")
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
    mat = rho.evaluate(NormalForm((1,) * rho.n, Permutation.identity(rho.n)))
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


def dense_columns(subrack, rho) -> tuple:
    """Per column j of the conjugation table, (basis, table) with
    table[i][s] the eigenvalue of rho(gamma_ij) on basis vector s.

    The distinct table entries must commute pairwise: one shared eigenbasis
    of all of them serves every column."""
    cls = subrack.cls
    size = subrack.size
    perms = [[subrack.gamma(i, j) for j in range(size)] for i in range(size)]
    distinct = list(dict.fromkeys(p for row in perms for p in row))
    family = [rho.evaluate(cls.normal_form(p)) for p in distinct]
    basis, table = simultaneous_diagonalize(family, [p.order() for p in distinct])
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
        s = -t * (d[i] * d[j]) // _gcd(d[i], d[j])
        a[i][j] = s // d[i]
        a[j][i] = s // d[j]
    return a


def _gcd(x: int, y: int) -> int:
    while y:
        x, y = y, x % y
    return x


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


def negativity_full(cls, rho) -> NegativityReport:
    """Every commuting pair of the whole class, each checked on both sides;
    quadratic in the class size, so only for small classes."""
    failed = _basepoint_failure(rho, cls)
    if failed is not None:
        return failed
    elements = sorted(cls.elements())
    carriers = {t: cls.transporter(t) for t in elements}
    values = {}

    def scalar(g):
        # pulled-back elements repeat: at most k^n * n! distinct ones
        if g not in values:
            values[g] = _scalar_of(rho, cls, g)
        return values[g]

    checked = 0
    for t in elements:
        if scalar(conjugate(carriers[t].inverse(), t)) != MINUS_ONE:
            return NegativityReport(
                False, checked, False,
                {"pair": (str(t), str(t)), "reason": "diagonal value is not -1"},
                ())
    for a, b in itertools.combinations(elements, 2):
        if not a.commutes_with(b):
            continue
        checked += 1
        x = scalar(conjugate(carriers[b].inverse(), a))
        y = scalar(conjugate(carriers[a].inverse(), b))
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


def negativity_walk(cls, rho) -> NegativityReport:
    """The basepoint against every partner found by walking all k^n * n!
    centralizer elements; for classes too large for negativity_full."""
    failed = _basepoint_failure(rho, cls)
    if failed is not None:
        return failed
    pi = cls.basepoint
    want = cls.cycle_type()
    partners = sorted(h for h in cls.centralizer_elements()
                      if h != pi and h.cycle_type() == want)
    for checked, t in enumerate(partners, start=1):
        lam = _scalar_of(rho, cls, t)
        mu = _scalar_of(rho, cls, conjugate(cls.transporter(t).inverse(), pi))
        if lam is None or mu is None or lam * mu != ONE:
            return NegativityReport(
                False, checked, False,
                {"pair": (str(pi), str(t)), "reason": "not negative"}, ())
    return NegativityReport(True, len(partners), False, None, (),
                            len(partners))
