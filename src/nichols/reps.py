"""Irreducible representations of the centralizer of an unmixed permutation.

The centralizer is (Z/k)^n semidirect S_n.  Its irreducibles are built
from a character of the abelian part (a vector u with values in Z/k,
stored with u non-increasing as orbit representative), an irrep of the
Young-subgroup stabilizer of u (an outer tensor product of catalog
symmetric-group irreps, one per level set of u), and induction up to the
full group.  Evaluation takes a centralizer element in (d, b) normal
form and returns an exact matrix.

The built-in symmetric-group catalog covers every partition for m <= 4
and, for each m >= 5, the four families (m), (1^m), (m-1,1), (2,1^(m-2)).
Requests outside the catalog raise CatalogGapError; enumeration keeps
such entries visible instead of dropping them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .exactfield import Cyclotomic, ONE, ZERO, zeta
from .exactla import Matrix, kron
from .permgroup import NormalForm, Permutation


class CatalogGapError(Exception):
    """The requested symmetric-group irrep is outside the built-in catalog."""


class GammaCharacter:
    """Character of (Z/k)^n sending the j-th generator to zeta_k^{u_j}."""

    __slots__ = ("k", "u")

    def __init__(self, k: int, u) -> None:
        if k < 1:
            raise ValueError("modulus must be positive")
        self.k = k
        self.u = tuple(int(x) % k for x in u)

    @property
    def n(self) -> int:
        return len(self.u)

    def value(self, d) -> Cyclotomic:
        """Evaluate on the twist with exponent vector d."""
        d = tuple(d)
        if len(d) != self.n:
            raise ValueError("exponent vector has the wrong length")
        return zeta(self.k, sum(uj * dj for uj, dj in zip(self.u, d)))

    def permuted(self, b: Permutation) -> "GammaCharacter":
        """The character with coordinates permuted by b: new_u[b(j)] = u[j]."""
        if b.degree != self.n:
            raise ValueError("permutation degree mismatch")
        out = [0] * self.n
        for j in range(1, self.n + 1):
            out[b(j) - 1] = self.u[j - 1]
        return GammaCharacter(self.k, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaCharacter):
            return NotImplemented
        return self.k == other.k and self.u == other.u

    def __hash__(self) -> int:
        return hash((self.k, self.u))

    def __repr__(self) -> str:
        return "chi(%s mod %d)" % (",".join(str(x) for x in self.u), self.k)


class YoungSubgroup(NamedTuple):
    """Product of symmetric groups on the listed position blocks of 1..n."""

    blocks: tuple

    def sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    def order(self) -> int:
        out = 1
        for b in self.blocks:
            out *= factorial(len(b))
        return out

    def contains(self, b: Permutation) -> bool:
        return all(all(b(x) in block for x in block) for block in self.blocks)


def orbit_and_stabilizer(chi: GammaCharacter) -> tuple:
    """S_n-orbit of chi (descending lexicographic order) and its stabilizer."""
    vectors = sorted(set(itertools.permutations(chi.u)), reverse=True)
    orbit = [GammaCharacter(chi.k, u) for u in vectors]
    blocks = tuple(
        tuple(i for i, x in enumerate(chi.u, start=1) if x == v)
        for v in sorted(set(chi.u), reverse=True))
    return orbit, YoungSubgroup(blocks)


# symmetric-group irrep catalog


@lru_cache(maxsize=None)
def partitions_of(m: int) -> tuple:
    """All partitions of m as non-increasing tuples, descending lexicographic."""

    def rec(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in rec(total - first, first):
                yield (first,) + rest

    return tuple(rec(m, m))


def partition_degree(part) -> int:
    """Degree of the symmetric-group irrep labeled by the partition (hook lengths)."""
    part = tuple(part)
    m = sum(part)
    hooks = 1
    for i, row in enumerate(part):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in part[i + 1:] if r > j)
            hooks *= arm + leg + 1
    return factorial(m) // hooks


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


_LABEL_NAMES = ("trivial", "sign", "standard", "standard_sign")


def _label_to_partition(m: int, label: str) -> tuple:
    if label == "trivial":
        return (m,)
    if label == "sign":
        return (1,) * m
    if label in ("standard", "standard_sign"):
        if m < 2:
            raise ValueError("%s needs a symmetric group on at least 2 points" % label)
        return (m - 1, 1) if label == "standard" else (2,) + (1,) * (m - 2)
    raise ValueError("unknown irrep label %r" % label)


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
        if not self.young.contains(b):
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
            target = self.orbit[i].permuted(b)
            j = self._index[target.u]
            h = self.coset_reps[j].inverse() * b * wi
            phase = target.value(d)
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


def induce(chi: GammaCharacter, mu) -> InducedRep:
    """Induce chi (x) mu; mu may be a YoungIrrep or, when the stabilizer is
    the full symmetric group, a bare SnIrrep."""
    if isinstance(mu, SnIrrep):
        _, stab = orbit_and_stabilizer(chi)
        if len(stab.blocks) != 1:
            raise ValueError("bare irrep given but the stabilizer is a proper product")
        mu = YoungIrrep(stab, (mu,))
    return InducedRep(chi, mu)


def evaluate(rho: InducedRep, g: NormalForm) -> Matrix:
    return rho.evaluate(g)


def pi_scalar(rho: InducedRep, c) -> Cyclotomic:
    """The scalar by which the basepoint acts; verifies the matrix is scalar."""
    if c.k != rho.k or c.n != rho.n:
        raise ValueError("class and representation sizes do not match")
    mat = rho.evaluate(NormalForm((1,) * rho.n, Permutation.identity(rho.n)))
    scalar = mat.is_scalar()
    if scalar is None:
        raise ArithmeticError("basepoint does not act by a scalar")
    return scalar


class RepSpec(NamedTuple):
    """Label of a centralizer irrep: character vector plus per-block partitions."""

    k: int
    n: int
    u: tuple
    partitions: tuple

    def stabilizer(self) -> YoungSubgroup:
        _, stab = orbit_and_stabilizer(GammaCharacter(self.k, self.u))
        return stab

    def cataloged(self) -> bool:
        return all(catalog_covers(sum(p), p) for p in self.partitions)

    def degree(self) -> int:
        orbit, _ = orbit_and_stabilizer(GammaCharacter(self.k, self.u))
        deg = len(orbit)
        for p in self.partitions:
            deg *= partition_degree(p)
        return deg

    def mu_label(self) -> str:
        sizes = tuple(sum(p) for p in self.partitions)
        if all(p == (s,) for p, s in zip(self.partitions, sizes)):
            return "trivial"
        if all(p == (1,) * s for p, s in zip(self.partitions, sizes)):
            return "sign"
        bigs = [idx for idx, s in enumerate(sizes) if s >= 2]
        if len(bigs) == 1:
            idx = bigs[0]
            s = sizes[idx]
            if all(p == (1,) for t, p in enumerate(self.partitions) if t != idx):
                if self.partitions[idx] == (s - 1, 1):
                    return "standard"
                if self.partitions[idx] == (2,) + (1,) * (s - 2):
                    return "standard_sign"
        return "catalog:" + "|".join(
            "+".join(str(x) for x in p) for p in self.partitions)

    def label(self) -> str:
        return "chi=(%s);mu=%s" % (",".join(str(x) for x in self.u), self.mu_label())

    def resolve(self) -> InducedRep:
        chi = GammaCharacter(self.k, self.u)
        _, stab = orbit_and_stabilizer(chi)
        factors = []
        for block, part in zip(stab.blocks, self.partitions):
            if not catalog_covers(len(block), part):
                raise CatalogGapError(
                    "irrep %s needs the uncataloged partition %s"
                    % (self.label(), "+".join(str(x) for x in part)))
            factors.append(_catalog_irrep(len(block), tuple(part)))
        return InducedRep(chi, YoungIrrep(stab, factors))

    def __str__(self) -> str:
        return self.label()


def enumerate_irreps(k: int, n: int) -> list:
    """Every irrep of the centralizer as a RepSpec, deterministic order.

    Characters run over non-increasing vectors in descending lexicographic
    order; partition choices per stabilizer block run in descending
    lexicographic order.  Entries outside the catalog are included (their
    cataloged() is False) rather than dropped.
    """
    out = []
    for u in itertools.combinations_with_replacement(range(k - 1, -1, -1), n):
        chi = GammaCharacter(k, u)
        _, stab = orbit_and_stabilizer(chi)
        for parts in itertools.product(*(partitions_of(s) for s in stab.sizes())):
            out.append(RepSpec(k, n, u, parts))
    return out


def parse_rep_spec(k: int, n: int, text: str) -> RepSpec:
    """Parse "chi=(u1,...,un);mu=<label>" (mu defaults to trivial).

    "chi=2:<j>" (alias "chi=k:<j>") abbreviates the weight-j character (j
    ones then zeros) for k = 2.  The character vector is canonicalized to
    its non-increasing orbit representative.  mu is one of trivial | sign |
    standard | standard_sign | catalog:<p1|p2|...> with each p a partition
    "a+b+...", one per stabilizer block.
    """
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError("malformed representation spec %r" % text)
        key, _, val = part.partition("=")
        fields[key.strip()] = val.strip()
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
            j = int(weight)
        except ValueError:
            raise ValueError("weight %r is not an integer" % weight.strip()) from None
        if not 0 <= j <= n:
            raise ValueError("weight %d out of range 0..%d" % (j, n))
        u = (1,) * j + (0,) * (n - j)
    else:
        body = chi_text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        u = tuple(int(tok) % k for tok in body.replace(",", " ").split())
        if len(u) != n:
            raise ValueError("character vector must have length %d" % n)
        u = tuple(sorted(u, reverse=True))
    chi = GammaCharacter(k, u)
    _, stab = orbit_and_stabilizer(chi)
    mu_text = fields.get("mu", "trivial")
    partitions = _parse_mu(stab, mu_text)
    return RepSpec(k, n, u, partitions)


def _parse_mu(stab: YoungSubgroup, text: str) -> tuple:
    sizes = stab.sizes()
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
            part = tuple(sorted((int(tok) for tok in chunk.split("+")), reverse=True))
            if sum(part) != s or any(x < 1 for x in part):
                raise ValueError("%r is not a partition of block size %d" % (chunk, s))
            partitions.append(part)
        return tuple(partitions)
    raise ValueError("unknown mu label %r" % text)
