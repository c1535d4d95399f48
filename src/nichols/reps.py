"""Irreducible characters of the centralizer of an unmixed permutation.

The centralizer is (Z/k)^n semidirect S_n.  Its irreducibles are built
from a character of the abelian part (a vector u with values in Z/k,
stored with u non-increasing as orbit representative), an irrep of the
Young-subgroup stabilizer of u (an outer tensor product of symmetric-group
irreps, one partition per level set of u), and induction up to the full
group.  A RepSpec names one by u and its partitions alone: the stabilizer
enters only through its block sizes, the level sizes m_v of u (how many
entries hold each value v, values descending; see level_sizes), and the
orbit of u has n! / prod m_v! members.  The engine needs only the
character, which InducedCharacter computes from the spec alone: the
induced-character formula over the orbit of u, with the symmetric-group
factors given by the Murnaghan-Nakayama rule (sn_character).  The same
rule gives the degrees: a spec's degree is the orbit size times the value
of each factor at the identity.  That works for every partition, so
every irrep of every class is available; no representation matrix is ever
built.  The orbit part of a value reads the values of u only through a
phase, sum_i v_i S_i mod k with S_i the twist sum of the cycles that level
i receives, so the placements of the cycles are counted once per (level
sizes, label) per process (placements), by cycle types and twist sums per
level, and shared by every spec whose u has those level sizes, whatever
its values and k; the partitions enter only through the product of
partition characters at each tuple of cycle types.
A character is a class function, so it is read at a conjugacy-class label
of the centralizer, the sorted (L, s) pairs of nichols.permgroup, and never
at a group element.  A character value is held as its nonzero terms,
(exponent mod k, integer coefficient) pairs sorted by exponent, meaning
the sum of coefficient times zeta_k^exponent.  Values are multiplied as
terms and read on a basis of Q(zeta_k)
(nichols.exactfield.integer_value); no field element is built.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter, mul
from typing import NamedTuple


def level_sizes(u) -> tuple:
    """How many entries of the non-increasing u hold each value, values in
    descending order: the block sizes of the stabilizer of u in S_n, a
    Young subgroup, read in one pass over u."""
    sizes = []
    last = None
    for v in u:
        if v == last:
            sizes[-1] += 1
        else:
            sizes.append(1)
            last = v
    return tuple(sizes)


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


@lru_cache(maxsize=None)
def sn_character(partition: tuple, cycle_type: tuple) -> int:
    """The irreducible character of S_m labeled by the partition, at a
    permutation of the given cycle type (a tuple of lengths summing to m),
    by the Murnaghan-Nakayama rule: strip a rim hook of each cycle length
    in turn, with sign (-1)^(rows spanned - 1).  Partition (m) is the
    trivial character, (1^m) the sign.  Its value at the identity, cycle
    type (1,) * m, is the degree of the irrep."""
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


def _degree(sizes: tuple, partitions: tuple) -> int:
    # the orbit of u has n! / prod m_v! members, m_v the level sizes, and a
    # symmetric-group factor's degree is its character at the identity
    deg = factorial(sum(sizes))
    for m in sizes:
        deg //= factorial(m)
    return deg * prod(map(sn_character, partitions, ((1,) * m for m in sizes)))


class RepSpec(NamedTuple):
    """Label of a centralizer irrep: character vector plus per-block partitions."""

    k: int
    n: int
    u: tuple
    partitions: tuple

    def degree(self) -> int:
        return _spec_degree(self.partitions)

    def label(self) -> str:
        return "chi=(%s);mu=%s" % (",".join(map(str, self.u)),
                                   _mu_label(self.partitions))

    def character(self) -> "InducedCharacter":
        return InducedCharacter(self)

    def __str__(self) -> str:
        return self.label()


# a spec's degree and mu label depend on its partitions alone, which the
# rows of a table share (every u with the same level sizes has the same
# choices of partitions), so they are cached for the process.  An
# InducedCharacter works out its own degree, not through this cache, so
# the witness check, which reads the degree off the character, keeps
# nothing decide built; the symmetric-group characters and the placements
# behind every value are process caches (sn_character, placements) that
# the sweep and the check alike fill

@lru_cache(maxsize=None)
def _spec_degree(partitions: tuple) -> int:
    return _degree(tuple(map(sum, partitions)), partitions)


@lru_cache(maxsize=None)
def _mu_label(partitions: tuple) -> str:
    # the first of trivial, sign, standard and standard_sign that _parse_mu
    # reads as these partitions, read off them: the last two need exactly
    # one block of size s >= 2, with (s - 1, 1) and (2, 1, ..., 1) on it
    wide = [p for p in partitions if sum(p) > 1]
    for name, reads in (("trivial", all(len(p) == 1 for p in partitions)),
                        ("sign", all(p[0] == 1 for p in partitions)),
                        ("standard", len(wide) == 1 and wide[0][1:] == (1,)),
                        ("standard_sign", len(wide) == 1 and wide[0][0] == 2
                         and set(wide[0][1:]) == {1})):
        if reads:
            return name
    return "catalog:" + "|".join("+".join(map(str, p)) for p in partitions)


@lru_cache(maxsize=None)
def placements(sizes: tuple, label: tuple) -> tuple:
    """The ways the cycles of a class label fall on the levels of a vector
    u with the given level sizes, values descending, counted without the
    values: (cycle_types, counts) pairs, one per tuple of the lengths each
    level receives, in label order, with counts the (twists, count) pairs
    for each tuple of the twist sums S_i of the cycles that level i
    receives and the number of orbit members u' that place the cycles so.
    Such a member contributes zeta_k^(v_1 S_1 + v_2 S_2 + ...), v_i the
    value of level i, so every u with these level sizes, of any values and
    any k, reads its orbit part off one entry.  Cached for the life of the
    process."""
    # the cycles of one (L, s) pair are alike, and adjacent in the sorted
    # label: they are given levels in non-decreasing order, and a split of
    # m of them, m_i to level i, stands for its m! / prod m_i! placements,
    # built up as the t-th of them joins a level that then holds `same` of
    # them: times t / same
    table = {}
    room = list(sizes)
    lengths = [[] for _ in sizes]
    twists = [0] * len(sizes)
    rank = []
    for c, pair in enumerate(label):
        rank.append(rank[-1] + 1 if c and label[c - 1] == pair else 1)

    def assign(c: int, level: int, run: int, weight: int) -> None:
        # cycle c (and those after it) gets a level with room for its
        # length; the cycle before it went to level, the last run of its
        # alike cycles there
        if c == len(label):
            counts = table.setdefault(tuple(map(tuple, lengths)), {})
            key = tuple(twists)
            counts[key] = counts.get(key, 0) + weight
            return
        length, s = label[c]
        t = rank[c]
        for i in range(level if t > 1 else 0, len(sizes)):
            if room[i] >= length:
                same = run + 1 if t > 1 and i == level else 1
                room[i] -= length
                lengths[i].append(length)
                twists[i] += s
                assign(c + 1, i, same, weight * t // same)
                twists[i] -= s
                lengths[i].pop()
                room[i] += length

    assign(0, 0, 0, 1)
    return tuple((types, tuple(counts.items())) for types, counts in table.items())


class InducedCharacter:
    """The character of the centralizer irrep named by a RepSpec.

    At (d, b) it is the sum, over the orbit members u' of u fixed by b
    (constant on every cycle of b), of zeta_k^(u'.d) times the product over
    the values v of the partition character of block v at the cycle type
    of b on the positions where u' = v.  That depends only on the (L, s)
    cycle label of (d, b), so the character takes the label, and a value is
    computed once per label.  The members are counted once per (level
    sizes, label) per process, grouped by the cycle types and the twist
    sums S_i each level receives (placements), and the values of u enter
    only here, through the phase v_1 S_1 + v_2 S_2 + ... mod k; the
    partitions enter through the factor of each cycle-type tuple, the
    product of the partition character of every level at its cycle type,
    and a tuple whose factor is 0 is skipped.  The level sizes are the
    sizes of the partitions, not counted in u.  Values are the nonzero
    terms (a, c), a mod k, sorted by a, meaning sum c zeta_k^a, so the
    same coefficients over Z/k give the same tuple.  A value is a sum of
    degree roots of unity, so |chi(g)| <= degree, with equality exactly
    when g acts by a scalar; the negativity check reads that off a
    product of two values (nichols.verdict.negativity_check).
    """

    __slots__ = ("spec", "k", "degree", "_sizes", "_levels", "_values")

    def __init__(self, spec: RepSpec) -> None:
        self.spec = spec
        self.k = spec.k
        # the level sizes are the sizes of the partitions, and the values
        # of the non-increasing u come in descending order
        self._sizes = tuple(map(sum, spec.partitions))
        self._levels = tuple(dict.fromkeys(spec.u))
        self.degree = _degree(self._sizes, spec.partitions)
        self._values = {}

    def coefficients(self, label: tuple) -> tuple:
        """chi at the class with the given sorted (L, s) label, as its
        nonzero terms (a, c), 0 <= a < k, sorted by a, with
        chi = sum c zeta_k^a."""
        hit = self._values.get(label)
        if hit is not None:
            return hit
        k, levels, terms = self.k, self._levels, []
        for cycle_types, counts in placements(self._sizes, label):
            factor = prod(map(sn_character, self.spec.partitions, cycle_types))
            if factor:
                for twists, count in counts:
                    terms.append((sum(map(mul, levels, twists)) % k,
                                  factor * count))
        if len(terms) > 1:
            # one term per exponent, and none where they cancel
            merged = {}
            for a, c in terms:
                merged[a] = merged.get(a, 0) + c
            terms = sorted(filter(itemgetter(1), merged.items()))
        hit = self._values[label] = tuple(terms)
        return hit

    def __repr__(self) -> str:
        return "InducedCharacter(%s)" % self.spec.label()


def pi_scalar(spec: RepSpec) -> int:
    """The scalar by which the basepoint, (d, b) = ((1, ..., 1), id), acts,
    as its exponent of zeta_k: every orbit member u' has the same
    coordinate sum, so it is zeta_k^(u_1 + ... + u_n), and the exponent is
    that sum mod k."""
    return sum(spec.u) % spec.k


def enumerate_irreps(k: int, n: int) -> list:
    """Every irrep of the centralizer as a RepSpec, deterministic order.

    Characters run over non-increasing vectors in descending lexicographic
    order; partition choices per stabilizer block run in descending
    lexicographic order.
    """
    out = []
    for u in itertools.combinations_with_replacement(range(k - 1, -1, -1), n):
        for parts in itertools.product(*map(partitions_of, level_sizes(u))):
            out.append(RepSpec(k, n, u, parts))
    return out


def resolve_spec(k: int, n: int, rho_spec) -> RepSpec:
    """The RepSpec of (k, n) that rho_spec names: a RepSpec of those
    parameters as it is, or a str parsed (parse_rep_spec); anything else
    raises ValueError."""
    if isinstance(rho_spec, RepSpec):
        if rho_spec.k != k or rho_spec.n != n:
            raise ValueError("representation spec is for different parameters")
        return rho_spec
    if not isinstance(rho_spec, str):
        raise ValueError("rho_spec must be a RepSpec or a str")
    return parse_rep_spec(k, n, rho_spec)


# the grammar RepSpec.label prints: the entries of u in ASCII digits, then
# a mu name or catalog partitions
_LABEL = re.compile(r"chi=\(([0-9]+(?:,[0-9]+)*)\);mu=([a-z_]+|catalog:[0-9+|]+)")


def parse_rep_spec(k: int, n: int, text: str) -> RepSpec:
    """Parse "chi=(u1,...,un);mu=<label>" (mu defaults to trivial).

    "chi=2:<j>" (alias "chi=k:<j>") abbreviates the weight-j character (j
    ones then zeros) for k = 2.  The character vector is canonicalized to
    its non-increasing orbit representative.  mu is one of trivial | sign |
    standard | standard_sign | catalog:<p1|p2|...> with each p a partition
    "a+b+...", one per stabilizer block.  Each fault raises ValueError;
    the first, in the order the fields and entries are read, is the one
    named.

    A text in the grammar RepSpec.label prints, of n entries of ASCII
    digits and no spaces, is read by one match (_LABEL), for k >= 1; any
    other text goes to the field reader (_read_fields).  That reader
    would read the match's u alike and hand mu to the same _parse_mu, so
    the same spec, or the same fault of mu, comes out.
    """
    match = _LABEL.fullmatch(text)
    if match is not None and k >= 1:
        chi, mu = match.groups()
        u = sorted(map(int, chi.split(",")), reverse=True)
        if u[0] >= k:
            # entries of k or more, which no label prints
            u = sorted([x % k for x in u], reverse=True)
        if len(u) == n:
            u = tuple(u)
            return RepSpec(k, n, u, _parse_mu(level_sizes(u), mu))
    return _read_fields(k, n, text)


def _read_fields(k: int, n: int, text: str) -> RepSpec:
    # parse_rep_spec field by field, in one pass over the text
    fields = {}
    for part in text.split(";"):
        key, eq, val = part.partition("=")
        if not eq:
            if part.strip():
                raise ValueError("malformed representation spec %r" % text)
            continue
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
        body = chi_text
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        if body.strip() and not all(map(str.strip, body.split(","))):
            raise ValueError("character vector %r has an empty entry" % body)
        if k < 1:
            raise ValueError("modulus must be positive")
        # with no empty entry, the tokens of the entries are these
        u = [_integer(x) % k for x in body.replace(",", " ").split()]
        if len(u) != n:
            raise ValueError("character vector must have length %d" % n)
        u = tuple(sorted(u, reverse=True))
    return RepSpec(k, n, u, _parse_mu(level_sizes(u), fields.get("mu", "trivial")))


def _integer(token: str) -> int:
    # an optional "-" then ASCII digits, spaces around them allowed: int()
    # alone also reads "+1", "1_0" and digits of other scripts
    digits = token.strip()
    if not (digits.isascii() and digits.removeprefix("-").isdigit()):
        raise ValueError("%r is not an integer" % token)
    return int(digits)


def _parse_mu(sizes: tuple, text: str) -> tuple:
    if text == "trivial":
        return tuple((s,) for s in sizes)
    if text == "sign":
        return tuple((1,) * s for s in sizes)
    if text in ("standard", "standard_sign"):
        if sum(s >= 2 for s in sizes) != 1:
            raise ValueError(
                "%s needs exactly one stabilizer block of size >= 2; use catalog:..." % text)
        # the one block of size >= 2 takes the partition the label names
        return tuple((1,) if s < 2 else (s - 1, 1) if text == "standard"
                     else (2,) + (1,) * (s - 2) for s in sizes)
    if text.startswith("catalog:"):
        chunks = text[len("catalog:"):].split("|")
        if len(chunks) != len(sizes):
            raise ValueError("mu needs %d block partitions, got %d" % (len(sizes), len(chunks)))
        return tuple(map(_block_partition, chunks, sizes))
    raise ValueError("unknown mu label %r" % text)


@lru_cache(maxsize=None)
def _block_partition(chunk: str, s: int) -> tuple:
    # the partition "a+b+..." of a block of size s, non-increasing.  The
    # chunks of printed labels are partitions of the numbers up to n, so
    # the chunks kept are few; a chunk that is no partition raises, and is
    # not kept
    try:
        part = sorted(map(_integer, chunk.split("+")), reverse=True)
    except ValueError:
        part = []
    # a block has at least one entry, so an empty part fails the sum
    if sum(part) != s or part[-1] < 1:
        raise ValueError("%r is not a partition of block size %d" % (chunk, s))
    return tuple(part)
