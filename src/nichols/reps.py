"""Irreducible characters of the centralizer of an unmixed permutation.

The centralizer is (Z/k)^n semidirect S_n.  Its irreducibles are built
from a character of the abelian part (a vector u with values in Z/k,
stored with u non-increasing as orbit representative), an irrep of the
Young-subgroup stabilizer of u (an outer tensor product of symmetric-group
irreps, one partition per level set of u), and induction up to the full
group.  A RepSpec names one; the engine needs only its character, which
InducedCharacter computes from the spec alone: the induced-character
formula over the orbit of u, with the symmetric-group factors given by the
Murnaghan-Nakayama rule.  That works for every partition, so every irrep
of every class is available; no representation matrix is ever built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple, Optional

from .exactfield import Cyclotomic, RootOfUnity
from .permgroup import NormalForm


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


def orbit_and_stabilizer(chi: GammaCharacter) -> tuple:
    """S_n-orbit of chi (descending lexicographic order) and its stabilizer."""
    vectors = sorted(set(itertools.permutations(chi.u)), reverse=True)
    orbit = [GammaCharacter(chi.k, u) for u in vectors]
    blocks = tuple(
        tuple(i for i, x in enumerate(chi.u, start=1) if x == v)
        for v in sorted(set(chi.u), reverse=True))
    return orbit, YoungSubgroup(blocks)


# symmetric-group irreps and their characters


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


@lru_cache(maxsize=None)
def sn_character(partition: tuple, cycle_type: tuple) -> int:
    """The irreducible character of S_m labeled by the partition, at a
    permutation of the given cycle type (a tuple of lengths summing to m),
    by the Murnaghan-Nakayama rule: strip a rim hook of each cycle length
    in turn, with sign (-1)^(rows spanned - 1).  Partition (m) is the
    trivial character, (1^m) the sign."""
    cycle_type = tuple(sorted(cycle_type, reverse=True))
    if sum(partition) != sum(cycle_type):
        raise ValueError("partition and cycle type have different sizes")
    if not cycle_type:
        return 1
    length, rest = cycle_type[0], cycle_type[1:]
    # beta-numbers: removing a rim hook of length r moves one bead r down
    # to an empty place, across as many beads as the hook has extra rows
    rows = len(partition)
    beads = [part + rows - 1 - i for i, part in enumerate(partition)]
    taken = set(beads)
    total = 0
    for bead in beads:
        low = bead - length
        if low < 0 or low in taken:
            continue
        height = sum(1 for x in beads if low < x < bead)
        moved = sorted((low if x == bead else x for x in beads), reverse=True)
        shape = tuple(x - (rows - 1 - i) for i, x in enumerate(moved))
        shape = tuple(x for x in shape if x)
        total += (-1) ** height * sn_character(shape, rest)
    return total


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


class RepSpec(NamedTuple):
    """Label of a centralizer irrep: character vector plus per-block partitions."""

    k: int
    n: int
    u: tuple
    partitions: tuple

    def stabilizer(self) -> YoungSubgroup:
        _, stab = orbit_and_stabilizer(GammaCharacter(self.k, self.u))
        return stab

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

    def character(self) -> "InducedCharacter":
        return InducedCharacter(self)

    def __str__(self) -> str:
        return self.label()


class InducedCharacter:
    """The character of the centralizer irrep named by a RepSpec.

    At (d, b) it is the sum, over the orbit members u' of u fixed by b
    (constant on every cycle of b), of zeta_k^(u'.d) times the product over
    the values v of the partition character of block v at the cycle type
    of b on the positions where u' = v.  That depends only on the (L, s)
    cycle label of (d, b), so a value is computed once per label.  Values
    are integer coefficient vectors c over Z/k, meaning sum_a c[a] zeta_k^a.
    """

    __slots__ = ("spec", "k", "degree", "_levels", "_values")

    def __init__(self, spec: RepSpec) -> None:
        self.spec = spec
        self.k = spec.k
        self.degree = spec.degree()
        values = sorted(set(spec.u), reverse=True)
        self._levels = tuple((v, spec.u.count(v), part)
                             for v, part in zip(values, spec.partitions))
        self._values = {}

    def coefficients(self, nf: NormalForm) -> tuple:
        """chi(d, b) as k integers c with chi = sum_a c[a] zeta_k^a."""
        label = nf.class_label(self.k)
        hit = self._values.get(label)
        if hit is None:
            hit = self._values[label] = self._from_label(label)
        return hit

    def _from_label(self, label: tuple) -> tuple:
        k = self.k
        levels = self._levels
        out = [0] * k
        room = [count for _, count, _ in levels]
        lengths = [[] for _ in levels]

        def assign(c: int, phase: int) -> None:
            # give cycle c (and those after it) a value whose level still
            # has room for its length
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
        return tuple(out)

    def value(self, nf: NormalForm) -> Cyclotomic:
        return Cyclotomic(self.k, self.coefficients(nf))

    def scalar(self, nf: NormalForm) -> Optional[RootOfUnity]:
        """The root of unity by which (d, b) acts when it acts by a scalar,
        else None: a sum of degree roots of unity has absolute value degree
        exactly when they are all equal, so rho(g) is scalar exactly when
        chi(g)/degree is a root of unity."""
        return (self.value(nf) * Fraction(1, self.degree)).as_root_of_unity()

    def __repr__(self) -> str:
        return "InducedCharacter(%s)" % self.spec.label()


def pi_scalar(spec: RepSpec) -> RootOfUnity:
    """The scalar by which the basepoint, (d, b) = ((1, ..., 1), id), acts:
    every orbit member u' has the same coordinate sum, so it is
    zeta_k^(u_1 + ... + u_n)."""
    return RootOfUnity(spec.k, sum(spec.u))


def enumerate_irreps(k: int, n: int) -> list:
    """Every irrep of the centralizer as a RepSpec, deterministic order.

    Characters run over non-increasing vectors in descending lexicographic
    order; partition choices per stabilizer block run in descending
    lexicographic order.
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
