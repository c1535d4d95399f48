"""Permutations, unmixed conjugacy classes, and their centralizers.

Permutations act on the 1-based points {1..N} and carry their ground set
size.  An unmixed class is the class of permutations with n cycles of
length k in the symmetric group on k*n points.  Every element of the
centralizer of its canonical basepoint has a unique normal form (d, b): a
permutation b of the n blocks and a twist exponent d_j per block, the
element sending offset h of block j to offset h + d_b(j) of block b(j).
Both are plain tuples, b the block images in one-line notation, so a form
hashes and compares as a pair of tuples.  Normal forms multiply as the
semidirect product they encode (UnmixedClass.product, with unit
UnmixedClass.identity_form), and a group of centralizer elements closes on
n-entry forms; Permutation is kept for the elements of the k*n points that
subracks and witnesses print.  The centralizer elements the subracks are
built from (the basepoint twist((1,) * n), the other twists, and the block
swaps) are all put together from their normal forms by
UnmixedClass.assemble, and every block reflection, of one block or of
several, comes from sigma_block.

The centralizer is the wreath product Z/k wr S_n.  Its conjugacy classes are
labeled by the multiset of pairs (L, s), one per cycle of b: L is the cycle's
length and s the twist sum over it mod k (James-Kerber 1981, 4.2).  A
character of the centralizer is read only at these labels.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import NamedTuple


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
        img = self.img
        seen = [False] * (len(img) + 1)
        out = []
        for x in range(1, len(img) + 1):
            if seen[x]:
                continue
            cyc = [x]
            seen[x] = True
            y = img[x - 1]
            while y != x:
                cyc.append(y)
                seen[y] = True
                y = img[y - 1]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple:
        """The cycle lengths, fixed points included, in increasing order."""
        return tuple(sorted(len(c) for c in self.cycles(include_fixed=True)))

    def commutes_with(self, other: "Permutation") -> bool:
        a, b = self.img, other.img
        return [a[y - 1] for y in b] == [b[y - 1] for y in a]

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
        return "(" + ")(".join(" ".join(map(str, c)) for c in cyc) + ")"

    def __repr__(self) -> str:
        return "Permutation(%r)" % (self.img,)


class NormalForm(NamedTuple):
    """Centralizer element as twist exponents d and block permutation b,
    the tuple of its block images in one-line notation (b[j - 1] = b(j))."""

    d: tuple
    b: tuple

    def class_label(self, k: int) -> tuple:
        """The sorted (L, s) pairs of the cycles of b, with s the twist sum
        over the cycle mod k: the element's conjugacy class in Z/k wr S_n."""
        img, d = self.b, self.d
        seen = [False] * len(img)
        label = []
        for start in range(len(img)):
            x = start
            length = s = 0
            while not seen[x]:
                seen[x] = True
                length += 1
                s += d[x]
                x = img[x] - 1
            if length:
                label.append((length, s % k))
        label.sort()
        return tuple(label)

    def __str__(self) -> str:
        return "d=%s;b=%s" % (",".join(str(x) for x in self.d),
                              Permutation._trusted(self.b))


class PartnerClass(NamedTuple):
    """A centralizer conjugacy class of partners of the basepoint: its sorted
    (L, s) label, its dual label (see dual_label), one normal-form
    representative, and its size."""

    label: tuple
    dual: tuple
    representative: NormalForm
    size: int


def dual_label(k: int, label: tuple) -> tuple:
    """The label of g^-1 pi g, for pi the basepoint and t = g pi g^-1 a
    partner with the given label: each b-cycle (L, s) of t gives a b-cycle
    (L, L * ((s/L)^-1 mod k/L) mod k), and (L, 0) when L = k.

    Why this is exact, one b-cycle (L, s) of t at a time (gcd(s, k) = L, see
    partner_classes):
    - on the L*k points of its blocks, pi and t generate an abelian group,
      and t^L = pi^s there, since t^L turns each of those blocks by s;
    - conjugating by g^-1 turns the pair (pi, t) into (g^-1 pi g, pi), and
      those points into L blocks of pi on which pi^L = (g^-1 pi g)^s;
    - with pi, which fixes every block, g^-1 pi g is transitive on those
      points, so it cycles all L blocks, with a twist sum sigma that makes
      (g^-1 pi g)^L = pi^sigma there; it has cycle type (k^n), so
      gcd(sigma, k) = L and sigma = L sigma';
    - hence pi^L = pi^(sigma' s) on those blocks: sigma' (s/L) = 1 mod k/L.
    Any other g is g c with c centralizing pi, which gives the conjugate
    c^-1 (g^-1 pi g) c and so the same label."""
    return tuple(sorted((length, 0 if length == k
                         else length * pow(s // length, -1, k // length) % k)
                        for length, s in label))


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
        self.basepoint = self.twist((1,) * n)

    def point(self, j: int, h: int) -> int:
        """Point at offset h (1-based) inside block j."""
        return self.k * (j - 1) + h

    def cycle_type(self) -> tuple:
        return (self.k,) * self.n

    def centralizer_order(self) -> int:
        return self.k ** self.n * factorial(self.n)

    # the centralizer in normal form

    def block_swap(self, i: int, j: int) -> Permutation:
        """The involution exchanging blocks i and j, offset by offset: no
        twist and the transposition of blocks i and j (the identity for
        i == j)."""
        b = list(range(1, self.n + 1))
        b[i - 1], b[j - 1] = j, i
        return self.assemble(NormalForm((0,) * self.n, tuple(b)))

    def twist(self, d) -> Permutation:
        """The element turning block j by d_j and fixing every block."""
        d = tuple(d)
        if len(d) != self.n:
            raise ValueError("need one exponent per block")
        return self.assemble(NormalForm(d, tuple(range(1, self.n + 1))))

    def assemble(self, nf: NormalForm) -> Permutation:
        d = tuple(nf.d)
        b = nf.b
        if len(d) != self.n or len(b) != self.n:
            raise ValueError("normal form size mismatch")
        # block j goes to block b(j), turned by t = d_b(j): offset h to
        # offset h + t, so its images are the points of block b(j) from
        # offset t + 1 on, then those below it
        k = self.k
        img = []
        for bj in b:
            start = k * (bj - 1) + 1
            t = d[bj - 1] % k
            img += range(start + t, start + k)
            img += range(start, start + t)
        return Permutation(img)

    def normal_form(self, g: Permutation) -> NormalForm:
        if g.degree != self.degree:
            raise ValueError("ground set size mismatch")
        k = self.k
        img = g.img
        d = [0] * self.n
        b_img = [0] * self.n
        for j in range(self.n):
            # offset 1 of block j + 1 goes to offset t + 1 of block bj + 1
            bj, t = divmod(img[k * j] - 1, k)
            b_img[j] = bj + 1
            d[bj] = t
        nf = NormalForm(tuple(d), tuple(b_img))
        # a b that repeats a block is no permutation of the blocks
        if len(set(b_img)) < self.n or self.assemble(nf) != g:
            raise ValueError("element does not centralize the basepoint")
        return nf

    def product(self, g: NormalForm, h: NormalForm) -> NormalForm:
        """The normal form of assemble(g) * assemble(h), read off the two
        normal forms: the block permutation b_g b_h, and on block b_g(j)
        the twist d_g[b_g(j)] + d_h[j] mod k.  A group of centralizer
        elements closes on these n-entry forms, not on permutations of the
        k*n points."""
        k = self.k
        gd, hd, gb = g.d, h.d, g.b
        d = [0] * self.n
        for j, y in enumerate(gb):
            d[y - 1] = (gd[y - 1] + hd[j]) % k
        return NormalForm(tuple(d), tuple([gb[y - 1] for y in h.b]))

    def identity_form(self) -> NormalForm:
        """The normal form of the identity, the unit of product."""
        return NormalForm((0,) * self.n, tuple(range(1, self.n + 1)))

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
                    out.append(PartnerClass(label, dual_label(self.k, label),
                                            self._representative(label),
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
        return NormalForm(tuple(d), tuple(b_img))

    def _wreath_class_size(self, label: tuple) -> int:
        size = self.centralizer_order()
        for pair in set(label):
            m = label.count(pair)
            size //= (self.k * pair[0]) ** m * factorial(m)
        return size

    # canonical involutions for even k = 2r

    def sigma_block(self, *blocks) -> Permutation:
        """Reflection of the given blocks, offset h to offset k + 1 - h,
        fixing the others; conjugates A_j to its inverse on each block j."""
        if self.k % 2:
            raise ValueError("block reflection needs even cycle length")
        return Permutation.from_cycles(
            self.degree,
            [(self.point(j, h), self.point(j, self.k + 1 - h))
             for j in blocks for h in range(1, self.k // 2 + 1)])

    def sigma_reflect(self) -> Permutation:
        """Product of all block reflections; conjugates basepoint to its inverse."""
        return self.sigma_block(*range(1, self.n + 1))

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
        # odd offset y to 2 - y mod k on blocks i and j
        cycles += [(self.point(blk, y), self.point(blk, self.k + 2 - y))
                   for blk in (i, j) for y in range(3, r + 1, 2)]
        others = [blk for blk in range(1, self.n + 1) if blk not in (i, j)]
        return Permutation.from_cycles(self.degree, cycles) * self.sigma_block(*others)

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
