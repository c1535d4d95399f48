"""Permutations, cycle types, unmixed conjugacy classes, and centralizers.

Permutations act on the 1-based points {1..N} and carry their ground set
size.  An unmixed class is the class of permutations with n cycles of
length k in the symmetric group on k*n points; its centralizer at the
canonical basepoint is generated by the cycle rotations A_1..A_n and the
adjacent block swaps B_1..B_{n-1}, and every centralizer element has a
unique normal form A_1^{d_1}..A_n^{d_n} * (block permutation b).

The centralizer is the wreath product Z/k wr S_n.  Its conjugacy classes are
labeled by the multiset of pairs (L, s), one per cycle of b: L is the cycle's
length and s the twist sum over it mod k (James-Kerber 1981, 4.2).
"""

from __future__ import annotations

import itertools
from math import factorial, gcd, lcm
from typing import Iterator, NamedTuple


class Permutation:
    """A permutation of {1..N} in one-line notation."""

    __slots__ = ("img",)

    def __init__(self, img) -> None:
        img = tuple(img)
        seen = [False] * (len(img) + 1)
        for y in img:
            if not (isinstance(y, int) and 1 <= y <= len(img)) or seen[y]:
                raise ValueError("images are not a bijection of 1..N")
            seen[y] = True
        self.img = img

    @classmethod
    def _trusted(cls, img: tuple) -> "Permutation":
        # images known to be a bijection (a product, inverse or conjugate
        # of permutations), so not checked again
        p = object.__new__(cls)
        p.img = img
        return p

    @property
    def degree(self) -> int:
        return len(self.img)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._trusted(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Permutation":
        img = list(range(1, n + 1))
        touched = set()
        for cycle in cycles:
            cycle = tuple(cycle)
            for x in cycle:
                if x in touched:
                    raise ValueError("cycles are not disjoint")
                touched.add(x)
            for i, x in enumerate(cycle):
                img[x - 1] = cycle[(i + 1) % len(cycle)]
        return Permutation(img)

    def __call__(self, x: int) -> int:
        return self.img[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(x) = p(q(x))
        if self.degree != other.degree:
            raise ValueError("ground set size mismatch")
        img = self.img
        return Permutation._trusted(tuple(img[y - 1] for y in other.img))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, y in enumerate(self.img):
            inv[y - 1] = i + 1
        return Permutation._trusted(tuple(inv))

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g * self * g^{-1}."""
        if self.degree != g.degree:
            raise ValueError("ground set size mismatch")
        gi = g.img
        img = [0] * self.degree
        for x, y in zip(gi, self.img):
            img[x - 1] = gi[y - 1]
        return Permutation._trusted(tuple(img))

    def cycles(self, include_fixed: bool = False) -> tuple:
        seen = [False] * (self.degree + 1)
        out = []
        for x in range(1, self.degree + 1):
            if seen[x]:
                continue
            cyc = [x]
            seen[x] = True
            y = self(x)
            while y != x:
                cyc.append(y)
                seen[y] = True
                y = self(y)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> "CycleType":
        return CycleType.from_lengths(
            len(c) for c in self.cycles(include_fixed=True))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def sign(self) -> int:
        n_cycles = len(self.cycles(include_fixed=True))
        return -1 if (self.degree - n_cycles) % 2 else 1

    def is_identity(self) -> bool:
        return all(y == i + 1 for i, y in enumerate(self.img))

    def commutes_with(self, other: "Permutation") -> bool:
        return all(self.img[other.img[x] - 1] == other.img[self.img[x] - 1]
                   for x in range(self.degree))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.img == other.img

    def __lt__(self, other: "Permutation") -> bool:
        return self.img < other.img

    def __hash__(self) -> int:
        return hash(self.img)

    def __str__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cyc)

    def __repr__(self) -> str:
        return "Permutation(%r)" % (self.img,)


class CycleType:
    """Multiset of cycle lengths, stored as length -> multiplicity."""

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities) -> None:
        pairs = tuple(sorted((int(j), int(m)) for j, m in dict(multiplicities).items() if m))
        if any(j < 1 or m < 1 for j, m in pairs):
            raise ValueError("lengths and multiplicities must be positive")
        self.multiplicities = pairs

    @staticmethod
    def from_lengths(lengths) -> "CycleType":
        counts: dict = {}
        for j in lengths:
            counts[j] = counts.get(j, 0) + 1
        return CycleType(counts)

    @staticmethod
    def unmixed(k: int, n: int) -> "CycleType":
        return CycleType({k: n})

    @property
    def degree(self) -> int:
        return sum(j * m for j, m in self.multiplicities)

    def parts(self) -> tuple:
        """All cycle lengths, longest first."""
        out = []
        for j, m in reversed(self.multiplicities):
            out.extend([j] * m)
        return tuple(out)

    def symbol(self) -> str:
        bits = []
        for j, m in self.multiplicities:
            bits.append("%d^%d" % (j, m) if m > 1 else "%d" % j)
        return "(" + ",".join(bits) + ")"

    def class_size(self) -> int:
        size = factorial(self.degree)
        for j, m in self.multiplicities:
            size //= j ** m * factorial(m)
        return size

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleType):
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash(self.multiplicities)

    def __repr__(self) -> str:
        return "CycleType(%s)" % self.symbol()


def conjugate(g: Permutation, h: Permutation) -> Permutation:
    """g acting on h by conjugation: g h g^{-1}."""
    return h.conjugated_by(g)


def conjugacy_class_iter(t: CycleType, n: int) -> Iterator[Permutation]:
    """All permutations of S_n with cycle type t, each exactly once.

    Deterministic order: the cycle containing the smallest unused point is
    chosen first, its length runs over the available lengths in increasing
    order, and the remaining cycle entries run lexicographically.
    """
    if t.degree != n:
        raise ValueError("cycle type does not fill 1..n")
    counts = {j: m for j, m in t.multiplicities}

    def rec(unused: tuple) -> Iterator[tuple]:
        if not unused:
            yield ()
            return
        x = unused[0]
        rest = unused[1:]
        for length in sorted(j for j, m in counts.items() if m > 0):
            counts[length] -= 1
            if length == 1:
                for tail in rec(rest):
                    yield ((x,),) + tail
            else:
                for body in itertools.permutations(rest, length - 1):
                    taken = set(body)
                    remaining = tuple(y for y in rest if y not in taken)
                    for tail in rec(remaining):
                        yield ((x,) + body,) + tail
            counts[length] += 1

    for cycles in rec(tuple(range(1, n + 1))):
        yield Permutation.from_cycles(n, cycles)


class NormalForm(NamedTuple):
    """Centralizer element as twist exponents d and block permutation b."""

    d: tuple
    b: Permutation

    def is_identity(self) -> bool:
        return not any(self.d) and self.b.is_identity()

    def class_label(self, k: int) -> tuple:
        """The sorted (L, s) pairs of the cycles of b, with s the twist sum
        over the cycle mod k: the element's conjugacy class in Z/k wr S_n."""
        return tuple(sorted((len(c), sum(self.d[x - 1] for x in c) % k)
                            for c in self.b.cycles(include_fixed=True)))

    def __str__(self) -> str:
        return "d=%s;b=%s" % (",".join(str(x) for x in self.d), self.b)


class PartnerClass(NamedTuple):
    """A centralizer conjugacy class of partners of the basepoint: its sorted
    (L, s) label, one normal-form representative, and its size."""

    label: tuple
    representative: NormalForm
    size: int


class UnmixedClass:
    """The conjugacy class of type (k^n) in the symmetric group on k*n points."""

    def __init__(self, k: int, n: int) -> None:
        if k < 2:
            raise ValueError("cycle length must be at least 2")
        if n < 1:
            raise ValueError("need at least one cycle")
        self.k = k
        self.n = n
        self.degree = k * n
        self.basepoint = Permutation.from_cycles(
            self.degree, [self._block(j) for j in range(1, n + 1)])

    def _block(self, j: int) -> tuple:
        return tuple(range(self.k * (j - 1) + 1, self.k * j + 1))

    def point(self, j: int, h: int) -> int:
        """Point at offset h (1-based) inside block j."""
        return self.k * (j - 1) + h

    def cycle_type(self) -> CycleType:
        return CycleType.unmixed(self.k, self.n)

    def class_size(self) -> int:
        return self.cycle_type().class_size()

    def centralizer_order(self) -> int:
        return self.k ** self.n * factorial(self.n)

    def elements(self) -> Iterator[Permutation]:
        return conjugacy_class_iter(self.cycle_type(), self.degree)

    # centralizer generators and normal forms

    def A(self, j: int) -> Permutation:
        if not 1 <= j <= self.n:
            raise ValueError("block index out of range")
        return Permutation.from_cycles(self.degree, [self._block(j)])

    def B(self, i: int) -> Permutation:
        if not 1 <= i <= self.n - 1:
            raise ValueError("adjacent swap index out of range")
        return self.block_swap(i, i + 1)

    def block_perm(self, b: Permutation) -> Permutation:
        """Permutation of blocks b lifted to points, preserving offsets."""
        if b.degree != self.n:
            raise ValueError("block permutation must act on 1..n")
        img = [0] * self.degree
        for j in range(1, self.n + 1):
            for h in range(1, self.k + 1):
                img[self.point(j, h) - 1] = self.point(b(j), h)
        return Permutation(img)

    def block_swap(self, i: int, j: int) -> Permutation:
        return self.block_perm(Permutation.from_cycles(self.n, [(i, j)]))

    def twist(self, d) -> Permutation:
        d = tuple(d)
        if len(d) != self.n:
            raise ValueError("need one exponent per block")
        img = [0] * self.degree
        for j in range(1, self.n + 1):
            for h in range(1, self.k + 1):
                img[self.point(j, h) - 1] = self.point(j, (h - 1 + d[j - 1]) % self.k + 1)
        return Permutation(img)

    def assemble(self, nf: NormalForm) -> Permutation:
        d = tuple(nf.d)
        b = nf.b
        if len(d) != self.n or b.degree != self.n:
            raise ValueError("normal form size mismatch")
        img = [0] * self.degree
        for j in range(1, self.n + 1):
            bj = b(j)
            for h in range(1, self.k + 1):
                img[self.point(j, h) - 1] = self.point(bj, (h - 1 + d[bj - 1]) % self.k + 1)
        return Permutation(img)

    def normal_form(self, g: Permutation) -> NormalForm:
        if g.degree != self.degree:
            raise ValueError("ground set size mismatch")
        d = [0] * self.n
        b_img = [0] * self.n
        for j in range(1, self.n + 1):
            y = g(self.point(j, 1))
            bj = (y - 1) // self.k + 1
            b_img[j - 1] = bj
            d[bj - 1] = (y - 1) % self.k
        try:
            b = Permutation(b_img)
        except ValueError:
            raise ValueError("element does not centralize the basepoint") from None
        nf = NormalForm(tuple(d), b)
        if self.assemble(nf) != g:
            raise ValueError("element does not centralize the basepoint")
        return nf

    def partner_classes(self) -> list:
        """One PartnerClass per centralizer conjugacy class of partners, the
        centralizer elements other than the basepoint that have cycle type
        (k^n), in increasing label order; built from the labels alone.

        A b-cycle with label (L, s) lifts to gcd(s, k) point cycles of length
        L*k/gcd(s, k), so the element is a partner exactly when gcd(s, k) = L
        on every b-cycle (hence L divides k).  A class has k^n * n! divided
        by (k*L)^m * m! for each distinct pair (L, s) of multiplicity m.
        The basepoint is the one-element class {(1, 1)^n}.
        """
        kinds = [(L, s) for L in range(1, self.n + 1) if self.k % L == 0
                 for s in range(self.k) if gcd(s, self.k) == L]
        basepoint = ((1, 1),) * self.n
        out = []

        def extend(start: int, left: int, label: tuple) -> None:
            if not left:
                if label != basepoint:
                    out.append(PartnerClass(label, self._representative(label),
                                            self._wreath_class_size(label)))
                return
            for i in range(start, len(kinds)):
                if kinds[i][0] <= left:
                    extend(i, left - kinds[i][0], label + (kinds[i],))

        extend(0, self.n, ())
        return out

    def _representative(self, label: tuple) -> NormalForm:
        # consecutive blocks per b-cycle, the whole twist sum on its first block
        d = [0] * self.n
        b_img = list(range(1, self.n + 1))
        start = 0
        for length, s in label:
            for i in range(length):
                b_img[start + i] = start + (i + 1) % length + 1
            d[start] = s
            start += length
        return NormalForm(tuple(d), Permutation(b_img))

    def _wreath_class_size(self, label: tuple) -> int:
        size = self.centralizer_order()
        for pair in set(label):
            m = label.count(pair)
            size //= (self.k * pair[0]) ** m * factorial(m)
        return size

    # transporters

    def transporter(self, t: Permutation) -> Permutation:
        """A deterministic g with g * basepoint * g^{-1} = t."""
        if t.cycle_type() != self.cycle_type():
            raise ValueError("target has the wrong cycle type")
        if self.k == 2:
            return self._involution_transporter(t)
        target_cycles = sorted(
            (c[c.index(min(c)):] + c[:c.index(min(c))] for c in t.cycles()),
            key=lambda c: c[0])
        img = [0] * self.degree
        for j, cyc in enumerate(target_cycles, start=1):
            for h in range(1, self.k + 1):
                img[self.point(j, h) - 1] = cyc[h - 1]
        return Permutation(img)

    def _involution_transporter(self, t: Permutation) -> Permutation:
        # k = 2: basepoint and t are fixed-point-free involutions, so the
        # group they generate partitions the points into even cycles that
        # alternate basepoint- and t-edges; reflecting each cycle about its
        # smallest point conjugates basepoint to t and is itself an involution
        pi = self.basepoint
        img = [0] * self.degree
        seen = [False] * (self.degree + 1)
        for x0 in range(1, self.degree + 1):
            if seen[x0]:
                continue
            seq = [x0]
            seen[x0] = True
            while True:
                cur = seq[-1]
                nxt = pi(cur) if len(seq) % 2 else t(cur)
                if nxt == x0:
                    break
                seq.append(nxt)
                seen[nxt] = True
            size = len(seq)
            for a, x in enumerate(seq):
                img[x - 1] = seq[(-a) % size]
        return Permutation(img)

    # canonical involutions for even k = 2r

    def sigma_block(self, j: int) -> Permutation:
        """Reflection of block j; conjugates A_j to its inverse."""
        if self.k % 2:
            raise ValueError("block reflection needs even cycle length")
        r = self.k // 2
        return Permutation.from_cycles(
            self.degree,
            [(self.point(j, h), self.point(j, self.k + 1 - h)) for h in range(1, r + 1)])

    def sigma_reflect(self) -> Permutation:
        """Product of all block reflections; conjugates basepoint to its inverse."""
        if self.k % 2:
            raise ValueError("reflection needs even cycle length")
        r = self.k // 2
        cycles = []
        for j in range(1, self.n + 1):
            cycles.extend((self.point(j, h), self.point(j, self.k + 1 - h))
                          for h in range(1, r + 1))
        return Permutation.from_cycles(self.degree, cycles)

    def sigma_swap(self, i: int, j: int) -> Permutation:
        """Involution conjugating basepoint to basepoint * block_swap(i, j)."""
        if self.k % 2:
            raise ValueError("swap involution needs even cycle length")
        r = self.k // 2
        return Permutation.from_cycles(
            self.degree,
            [(self.point(i, 2 * h), self.point(j, 2 * h)) for h in range(1, r + 1)])

    def sigma_swapinv(self, i: int, j: int) -> Permutation:
        """Involution conjugating basepoint to (basepoint * block_swap(i, j))^{-1}."""
        if self.k % 2:
            raise ValueError("swap involution needs even cycle length")
        r = self.k // 2
        cycles = [(self.point(i, 2 * h), self.point(j, 2 * r + 2 - 2 * h))
                  for h in range(1, r + 1)]
        for blk in (i, j):
            for y in range(1, self.k, 2):
                mate = (1 - y) % self.k + 1
                if y < mate:
                    cycles.append((self.point(blk, y), self.point(blk, mate)))
        for blk in range(1, self.n + 1):
            if blk not in (i, j):
                cycles.extend((self.point(blk, h), self.point(blk, self.k + 1 - h))
                              for h in range(1, r + 1))
        return Permutation.from_cycles(self.degree, cycles)

    def canonical_involutions(self, i: int, j: int) -> tuple:
        """(sigma, sigma_swap, sigma_swapinv) for even k and 1 <= i < j <= n."""
        if self.k % 2:
            raise ValueError("canonical involutions exist only for even cycle length")
        if not 1 <= i < j <= self.n:
            raise ValueError("need 1 <= i < j <= n")
        return self.sigma_reflect(), self.sigma_swap(i, j), self.sigma_swapinv(i, j)

    # pair involutions for k = 2 (blocks 2l-1, 2l)

    def sigma_plus(self, l: int) -> Permutation:
        if self.k != 2:
            raise ValueError("pair involutions are specific to cycle length 2")
        if not 1 <= l <= self.n // 2:
            raise ValueError("pair index out of range")
        return Permutation.from_cycles(self.degree, [(4 * l - 2, 4 * l - 1)])

    def sigma_minus(self, l: int) -> Permutation:
        if self.k != 2:
            raise ValueError("pair involutions are specific to cycle length 2")
        if not 1 <= l <= self.n // 2:
            raise ValueError("pair index out of range")
        return Permutation.from_cycles(self.degree, [(4 * l - 2, 4 * l)])

    def __repr__(self) -> str:
        return "UnmixedClass(k=%d, n=%d)" % (self.k, self.n)
