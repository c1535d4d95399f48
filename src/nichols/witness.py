"""The witness check: re-validate an InfiniteDim verdict from its printed
witness alone (verify_witness).

It shares no code with the decision (nichols.verdict) and imports nothing
of it: it plans no subrack and runs none of the decision's spectrum code.
Of braidspace it takes only the family registry and the subrack class.  A
witness vertex (j, s) means the vector g_j v_s, with v_s an eigenvector of
the group H_w that the witness's own table entries generate, and s only a
name.  Since t_i g_j v = g_j gamma_ij v, the recorded q_matrix is such a
braiding exactly when each psi_s read off it is a character of H_w that
occurs in chi|H_w as often as the witness uses it.  The basepoint pi is a
table entry (gamma_jj), central of order k, and acts on rho by the scalar
zeta_k^q, so only a psi with psi(pi) = zeta_k^q occurs, and chi psi^-1 is
constant on each coset of <pi>; the check closes H_w on the coset
representatives, tests just that, then re-fires the rule (see
verify_witness).

What no representation changes is built once per recorded subrack (the
member of the family its kind names, or else the subrack rebuilt from its
images with its own checks, and no description), once per set of its
witness columns (the place of each table entry among the distinct ones,
their normal forms, each a pair of plain tuples, checked to commute, and
the modulus) and once per recorded q_matrix on those columns (its
exponents, the psi_s read off it, the place of pi among the entries, and
H_w/<pi> closed from the identity on the normal forms of the coset
representatives while the phases of the psi used are carried along each
Cayley edge, checked there and counted at each distinct class label, with
the rule re-fired on each firing or cycle), and kept for the life of the
process; a row only checks its own fields and vertices and that each psi
used takes the value zeta_k^q at pi, and sums its character, read once at
each distinct label of the representatives as its nonzero terms, against
those counts, in integers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from math import lcm
from typing import NamedTuple, Optional

from .braidspace import FAMILIES, AbelianSubrack
from .exactfield import rational_trace, root_name, totient
from .permgroup import NormalForm, Permutation, UnmixedClass
from .reps import InducedCharacter, pi_scalar, resolve_spec

INFINITE = "InfiniteDim"

# the reason a scalar-gate witness prints, for even and for odd k
_GATE_REASONS = ("basepoint scalar is not -1", "basepoint has odd order")


def _positive_definite(S) -> bool:
    """Sylvester's criterion for an integer symmetric matrix: every leading
    principal minor is positive.  Fraction-free (Bareiss) elimination makes
    each pivot the next leading minor and keeps every entry an integer."""
    work = [list(row) for row in S]
    m = len(work)
    previous = 1
    for p in range(m):
        pivot = work[p][p]
        if pivot <= 0:
            return False
        for i in range(p + 1, m):
            for j in range(p + 1, m):
                work[i][j] = (pivot * work[i][j]
                              - work[i][p] * work[p][j]) // previous
        previous = pivot
    return True


def _cartan_infinite(q, modulus: int) -> Optional[list]:
    """The cartan-infinite rule re-fired by linear algebra on a square table
    of braiding values, each given as its exponent of zeta_modulus: every
    diagonal entry is -1 (exponent modulus/2) and every product q_ab q_ba
    is 1 or -1 (exponent sum 0 or modulus/2), and the Cartan matrix 2I - A
    is not positive definite, A being 1 where the product is -1 and 0
    elsewhere.  Returns that Cartan matrix when the rule fires, else None."""
    half, odd = divmod(modulus, 2)
    if odd:
        return None
    m = len(q)
    cartan = [[2] * m for _ in range(m)]
    for a in range(m):
        if q[a][a] % modulus != half:
            return None
        for b in range(m):
            if a == b:
                continue
            product = (q[a][b] + q[b][a]) % modulus
            if product not in (0, half):
                return None
            cartan[a][b] = -1 if product else 0
    return None if _positive_definite(cartan) else cartan


@cache
def _witness_subrack(k: int, n: int, elements: tuple, transporters: tuple,
                     kind, param: tuple) -> tuple:
    """The subrack of a witness and its description, built once: the
    member of the family that kind names (nichols.braidspace.FAMILIES) at
    param, with its description, when it has exactly this kind, param
    and image tuples (a family that fills in a default param records it);
    otherwise the subrack rebuilt from the image tuples with all of its
    own checks, which raise as they do for any subrack, and no
    description.  The caller checks that every image and param entry is
    of type int, so that 1.0 or True cannot reach the entry of 1.

    The other families have three or four members, or phi(k), and cost
    little to build; the canonical member has 3^(n//2), each pair checked
    to commute, so it is built only for a witness that records as many."""
    cls = UnmixedClass(k, n)
    family = FAMILIES.get(kind)
    if kind == "canonical" and len(elements) != 3 ** (n // 2):
        family = None
    try:
        named = family(cls, *param) if family else None
    except (TypeError, ValueError):
        named = None
    if named is not None and (named.kind, named.param) == (kind, param) and (
            tuple(g.img for g in named.elements) == elements
            and tuple(g.img for g in named.transporters) == transporters):
        return named, named.describe()
    return AbelianSubrack(cls, map(Permutation, elements),
                          map(Permutation, transporters),
                          kind=kind, param=param), None


def _images(witness: dict, field: str) -> tuple:
    # the image tuples of a witness field, every entry of type int
    try:
        images = tuple(map(tuple, witness[field]))
    except TypeError:
        raise ValueError("the witness %s must be a list of image lists"
                         % field) from None
    if set(map(type, itertools.chain.from_iterable(images))) - {int}:
        raise ValueError("images are not a bijection of 1..N")
    return images


@cache
def _witness_columns(subrack: AbelianSubrack, cols: tuple) -> tuple:
    """What the witness check needs of one subrack and a set of its
    columns, whatever the representation: the place of gamma_ij among the
    distinct table entries for i, j at places a, b of the columns
    (generator[a][b]), the normal forms of those entries, the modulus, and
    the exponent of each root of unity of order dividing it by its printed
    form (named through nichols.exactfield.root_name).  An entry that does
    not centralize the basepoint raises ValueError at its normal form
    (nichols.permgroup.UnmixedClass.normal_form), and so do entries that
    do not commute.  Each transporter of the columns is inverted once."""
    cls = subrack.cls
    inverse = {j: subrack.transporters[j].inverse() for j in cols}
    position = {}
    generator = tuple(tuple(
        position.setdefault(subrack.elements[i].conjugated_by(inverse[j]),
                            len(position)) for j in cols) for i in cols)
    forms = tuple(map(cls.normal_form, position))
    if not all(a.commutes_with(b)
               for a, b in itertools.combinations(position, 2)):
        raise ValueError("conjugation table entries do not commute")
    modulus = lcm(cls.k, *(g.order() for g in position))
    return (generator, forms, modulus,
            {root_name(modulus, e): e for e in range(modulus)})


class _WitnessReading(NamedTuple):
    """What the witness check reads off one recorded q_matrix on one
    subrack and set of its columns, whatever the representation: the
    modulus; the entries as integer exponents of zeta_modulus (exponents);
    each psi used, as its exponents on the distinct table entries, with the
    number of vertex indices that name it (used); the place of the
    basepoint pi among those entries (basepoint); the number |H_w|/k of
    coset representatives of <pi> in H_w (order) and their distinct class
    labels (labels); for each psi used, one (label index, places, count)
    triple per class label and phase p of psi that occur together on the
    representatives, with the number of those representatives, and in
    places, for each a < k, the exponent of zeta_k^a zeta_modulus^-p as a
    power of zeta_modulus (phases); and what each rule re-fired on the
    exponents gives (_refire), by (rule, firing or cycle) (fired), filled
    in as rows meet it."""

    modulus: int
    exponents: tuple
    used: tuple
    basepoint: int
    order: int
    labels: tuple
    phases: tuple
    fired: dict


@cache
def _witness_reading(subrack: AbelianSubrack, cols: tuple, width: int,
                     q_matrix: tuple) -> Optional[_WitnessReading]:
    """The reading of a q_matrix of str entries, one row and one column
    per vertex (j, s) of the rectangle cols x (width indices), on H_w:
    None when an entry is no root of unity printed in lowest terms of
    order dividing the modulus (_witness_columns), when a psi_s read off
    two row vertices (i, r) disagrees on a table entry, when the basepoint
    pi = ((1, ..., 1), id) is no table entry or a psi used has psi(pi)^k
    other than 1, or when a psi used fails on a Cayley edge of H_w/<pi>,
    so that it is no character of H_w.

    pi is central of order k, and pi^e h adds e to every twist of h, so
    each coset of <pi> in H_w has one representative r with d[0] = 0, and
    h = pi^e r for e = d[0].  H_w/<pi> is closed breadth-first from the
    identity on those representatives (nichols.permgroup.UnmixedClass.
    product), by every entry other than pi, each representative carrying
    the phase of every psi used from the first edge that reaches it;
    every other edge, g_t r = pi^e r', must reach r' with the phases of r
    moved by psi(g_t) - e psi(pi).  Then psi(pi^e r) = psi(pi)^e psi(r)
    is well defined and a character of H_w.  Each representative's class
    label is read off its form."""
    generator, forms, modulus, exponent = _witness_columns(subrack, cols)
    exps = tuple(tuple(exponent.get(x) for x in row) for row in q_matrix)
    if any(None in row for row in exps):
        return None
    # psi_s on the generators, read off every row vertex (i, r)
    psis = []
    for b in range(width):
        psi = {}
        for a, row in enumerate(exps):
            for y, t in enumerate(generator[a // width]):
                e = row[y * width + b]
                if psi.setdefault(t, e) != e:
                    return None
        psis.append(tuple(psi[t] for t in range(len(psi))))
    used = tuple(sorted(set(psis)))
    cls = subrack.cls
    k = cls.k
    identity = cls.identity_form()
    try:
        base = forms.index(NormalForm((1,) * cls.n, identity.b))
    except ValueError:
        return None
    at_pi = tuple(psi[base] for psi in used)
    if any(k * z % modulus for z in at_pi):
        return None
    # pi moves no coset, so it is no edge of H_w/<pi>
    steps = [(g, tuple(psi[t] for psi in used))
             for t, g in enumerate(forms) if t != base]
    product = cls.product
    queue = [identity]
    at = {identity: (0,) * len(used)}
    # the queue grows while it is read: a representative first reached
    # keeps the phases of that edge, and joins the queue
    for h in queue:
        for g, moves in steps:
            x = product(g, h)
            e = x.d[0]
            if e:
                x = NormalForm(tuple([(v - e) % k for v in x.d]), x.b)
            step = tuple((p + m - e * z) % modulus
                         for p, m, z in zip(at[h], moves, at_pi))
            if at.setdefault(x, step) != step:
                return None
            if len(at) > len(queue):
                queue.append(x)
    # each psi counted by (label, phase); a phase p is kept as the place of
    # zeta_k^a zeta_modulus^-p in the sum, for each a < k
    places = [tuple((a * modulus // k - p) % modulus for a in range(k))
              for p in range(modulus)]
    labels = [h.class_label(k) for h in queue]
    index = {label: x for x, label in enumerate(dict.fromkeys(labels))}
    phases = tuple(tuple((index[label], places[p], m) for (label, p), m
                         in Counter(zip(labels, column)).items())
                   for column in zip(*at.values()))
    return _WitnessReading(modulus, exps,
                           tuple((psi, psis.count(psi)) for psi in used),
                           base, len(queue), tuple(index), phases, {})


def _character_sums(reading: _WitnessReading, character: InducedCharacter):
    """phi(modulus) sum_r chi(r) psi(r)^-1 over the coset representatives
    r of <pi> in H_w for each psi of reading.used, in order, each read by
    rational_trace off the integer coefficients of its powers of
    zeta_modulus (None when not rational): chi is read once at each
    distinct label of the representatives, as its nonzero (index,
    coefficient) terms, and each term is added at its place, times the
    number of representatives with that label and phase of psi."""
    terms = [[(a, c) for a, c in enumerate(character.coefficients(label)) if c]
             for label in reading.labels]
    for counts in reading.phases:
        acc = [0] * reading.modulus
        for x, places, m in counts:
            for a, c in terms[x]:
                acc[places[a]] += c * m
        yield rational_trace(reading.modulus, acc)


def _refire(rule: str, positions: tuple, exps: tuple,
            modulus: int) -> Optional[list]:
    """The rule re-fired on the integer exponents of the q_matrix at the
    firing or cycle positions: the Cartan matrix of a cartan-infinite
    firing set, or the printed products around an alternating 4-cycle, or
    None when the rule does not fire there."""
    if rule == "cartan-infinite":
        return _cartan_infinite([[exps[a][b] for b in positions]
                                 for a in positions], modulus)
    a, b, c, d = positions
    def product(x, y):
        return (exps[x][y] + exps[y][x]) % modulus
    ab, bc, cd, da = product(a, b), product(b, c), product(c, d), product(d, a)
    if (modulus % 2 or any(exps[v][v] != modulus // 2 for v in positions)
            or product(a, c) or product(b, d) or ab == 0
            or (ab + bc) % modulus or ab != cd or bc != da):
        return None
    return [root_name(modulus, x) for x in (ab, bc, cd, da)]


# the witness fields each rule reads (a rule that is not one of these reads
# the subrack fields, then is refused); the subrack field must hold the kind
# and param of its family
_SUBRACK_FIELDS = ("element_images", "transporter_images", "subrack",
                   "vertices", "q_matrix")
_WITNESS_FIELDS = {
    "scalar-gate": ("q_scalar", "element_order", "reason"),
    "cartan-infinite": _SUBRACK_FIELDS + ("firing", "cartan_matrix"),
    "alternating-cycle": _SUBRACK_FIELDS + ("firing", "cycle", "cycle_labels"),
}


def _require(record: dict, keys: tuple, what: str) -> None:
    if not isinstance(record, dict):
        raise ValueError("%s must be a dict" % what)
    missing = [key for key in keys if key not in record]
    if missing:
        raise ValueError("%s lacks the field %s" % (what, ", ".join(missing)))


def verify_witness(k: int, n: int, rho_spec, verdict) -> bool:
    """Re-validate an infinite verdict from its recorded witness alone, on
    the witness's own group: no subrack plan, class plan or spectrum of the
    decision is read.

    The member of the family that its kind and param name must have
    exactly the recorded images; any other images are rebuilt, with the
    subrack's own checks, and refused.  A vertex (j, s) names the vector
    g_j v_s, for g_j the transporter of column j and v_s a joint
    eigenvector of rho on H_w, the group generated by the table entries
    gamma_ij = g_j^-1 t_i g_j with i, j in the witness columns; s is only
    a name.  Why that is sound:
    - t_i (g_j v) = g_j gamma_ij v, and gamma_ij centralizes the basepoint;
    - so if v_s is an eigenvector of H_w with linear character psi_s, the
      vectors g_j v_s span a braided subspace of diagonal type whose entry
      for (i, r), (j, s) is psi_s(gamma_ij), the recorded q_matrix;
    - vectors of one psi can be chosen independent exactly when psi occurs
      in chi|H_w at least as often as the witness uses it, and vectors of
      different psi are independent.
    So the check reads psi_s(gamma_ij) off the recorded q_matrix (the same
    for every row index r, and wherever two (i, j) give the same entry).
    The basepoint pi = gamma_jj is central of order k, and pi^e h adds e to
    every twist of h, so each coset of <pi> in H_w has one representative
    with d[0] = 0.  The check closes H_w/<pi> on those representatives,
    from the identity, while it checks on every Cayley edge g_t r = pi^e r'
    that the phase of r' is that of r moved by psi(g_t) - e psi(pi), and
    that psi(pi)^k = 1, so that psi_s extends to a character of H_w.  pi
    acts on rho by zeta_k^q, q = pi_scalar(spec), so chi(pi^e r) =
    zeta_k^(q e) chi(r): a psi with psi(pi) other than zeta_k^q occurs 0
    times, and is refused; for the others the multiplicity
    (1/|H_w|) sum_h chi(h) psi(h)^-1 is (k/|H_w|) sum_r chi(r) psi(r)^-1
    over the |H_w|/k representatives r, read by integer traces:
    phi(modulus) |H_w|/k times it is an integer, which must be divisible
    by phi(modulus) |H_w|/k.  Then the rule is re-fired on the recorded
    values, each as its integer exponent of zeta_modulus.  cartan-infinite
    is re-fired by linear algebra on the firing set, sharing no code with
    the graph reading that decided it: every diagonal entry -1, every
    product q_ab q_ba equal to 1 or -1, and the Cartan matrix 2I - A (A = 1
    where the product is -1) not positive definite.

    Only the representation changes from row to row.  The subrack and its
    description are built once per recorded (image tuples, kind, param)
    (_witness_subrack), each image and param entry checked to be of type
    int before the lookup; the generator of each
    gamma_ij, the normal form and commute checks and the modulus once per
    subrack and set of witness columns (_witness_columns); and once per
    subrack, set of witness columns, number of indices and q_matrix
    (_witness_reading), each entry checked to be a str before the lookup:
    the exponents of its entries, the psi_s read off it with how often
    each is used, the place of pi among the entries, H_w/<pi> closed on
    the normal forms of the coset representatives with their phases
    carried along its Cayley edges and counted at each distinct class
    label, or the lookup, psi_s, psi(pi) or edge that fails, and the
    outcome of the rule re-fired on each (rule, firing or cycle) a row has
    met.  Each row compares the description, checks its vertices and
    indices and the shape of its q_matrix, checks psi(pi) = zeta_k^q for
    each psi used, reads chi once at each distinct label of the
    representatives, as its nonzero terms, and sums it against each psi's
    phase counts (_character_sums), which is the sum over the
    representatives, and compares its recorded cartan_matrix or
    cycle_labels with the re-fired outcome.  Checks run in that order,
    cached or not: a failing multiplicity returns False before a cycle
    that is not a 4-cycle raises.  A witness that raises is not cached.

    The recorded fields that follow from these values must match them: the
    cartan_matrix, the cycle_labels (the products around the cycle), the
    firing of an alternating cycle (its cycle's positions in increasing
    order), the q_scalar, element_order and reason of the scalar gate (the
    reason is "basepoint has odd order" for odd k and "basepoint scalar is
    not -1" for even k), and the subrack description (kind, param and the
    printed elements and transporters), which must describe the subrack
    rebuilt from the images; a kind that names no family, or a param that
    its family refuses, fails.  The cartan_matrix entries and the
    element_order must be of type int (3.0 is not 3).  The printed label,
    components and diagram_dot are still not read.  An entry that is not a
    root of unity printed in lowest terms, or a q_matrix that is not one
    list per vertex of one entry per vertex, fails.  A witness whose
    element_images or transporter_images are not a list of image lists, or
    hold an entry not of type int (1.0 or True is not 1), whose subrack
    param is not a list of int (a tuple, set or dict is not), whose
    vertices are not a list of two-element lists, whose firing or cycle is
    not a list, whose vertex coordinates or firing or cycle indices are
    not all of type int (a bool, float or str is not), whose vertices are
    not the rectangle (its columns) x (its indices) in order, from 0 and
    below the subrack size and the degree, whose firing or cycle indices
    repeat or leave its vertex list, whose table entries do not commute,
    or whose cycle is not a 4-cycle raises ValueError, and so does a
    witness, or its subrack field, that is not a dict or lacks a field its
    rule reads, a subrack kind that is not a str, a verdict rule that is
    not a str (a list or dict is not hashed), and a rho_spec that is
    neither a RepSpec nor a str (None, 5 or a list is not split)."""
    if verdict.outcome != INFINITE:
        raise ValueError("only infinite verdicts carry a rebuildable witness")
    spec = resolve_spec(k, n, rho_spec)
    w = verdict.witness
    if not isinstance(verdict.rule, str):
        raise ValueError("the verdict rule must be a str")
    _require(w, _WITNESS_FIELDS.get(verdict.rule, _SUBRACK_FIELDS),
             "the %s witness" % verdict.rule)
    if verdict.rule == "scalar-gate":
        q = pi_scalar(spec)
        return ((k % 2 == 1 or 2 * q != k)
                and w["q_scalar"] == root_name(k, q)
                and type(w["element_order"]) is int and w["element_order"] == k
                and w["reason"] == _GATE_REASONS[k % 2])
    _require(w["subrack"], ("kind", "param"), "the witness subrack")
    if type(w["subrack"]["kind"]) is not str:
        raise ValueError("the witness subrack kind must be a str")
    elements = _images(w, "element_images")
    transporters = _images(w, "transporter_images")
    param = w["subrack"]["param"]
    if not isinstance(param, list) or set(map(type, param)) - {int}:
        raise ValueError("the witness subrack param must be a list of int")
    subrack, description = _witness_subrack(
        k, n, elements, transporters, w["subrack"]["kind"], tuple(param))
    if description is None or w["subrack"] != description:
        return False
    character = spec.character()
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
            or cols[0] < 0 or cols[-1] >= subrack.size
            or vecs[0] < 0 or vecs[-1] >= character.degree):
        raise ValueError("witness vertices must be the rectangle of their "
                         "columns and indices, none repeated, below the "
                         "subrack size and the degree")
    size = len(vertices)
    for positions in indices:
        if len(set(positions) & set(range(size))) != len(positions):
            raise ValueError("witness indices must be distinct vertex positions")
    # the table entries are checked before the q_matrix
    _witness_columns(subrack, tuple(cols))
    q_matrix = w["q_matrix"]
    if (not isinstance(q_matrix, list) or len(q_matrix) != size
            or any(not isinstance(row, list) or len(row) != size
                   for row in q_matrix)
            or set(map(type, itertools.chain(*q_matrix))) - {str}):
        return False
    reading = _witness_reading(subrack, tuple(cols), len(vecs),
                               tuple(map(tuple, q_matrix)))
    if reading is None:
        return False
    # pi acts by zeta_k^q, so a psi with psi(pi) other than it occurs 0 times
    scalar = pi_scalar(spec) * reading.modulus // k
    if any(psi[reading.basepoint] != scalar for psi, _ in reading.used):
        return False
    # phi(modulus) |H_w| / k times each multiplicity
    order = totient(reading.modulus) * reading.order
    for (_, count), total in zip(reading.used,
                                 _character_sums(reading, character)):
        if total is None or total % order or total // order < count:
            return False
    if verdict.rule == "cartan-infinite":
        positions, recorded = w["firing"], w["cartan_matrix"]
    elif verdict.rule == "alternating-cycle":
        if len(w["cycle"]) != 4:
            raise ValueError("an alternating cycle has four vertices")
        if w["firing"] != sorted(w["cycle"]):
            return False
        positions, recorded = w["cycle"], w["cycle_labels"]
    else:
        raise ValueError("unknown rule %r" % verdict.rule)
    key = (verdict.rule, tuple(positions))
    if key not in reading.fired:
        reading.fired[key] = _refire(*key, reading.exponents,
                                     reading.modulus)
    expected = reading.fired[key]
    # a cartan_matrix entry 2.0 or True equals 2 or 1, but is not it
    return (expected is not None and expected == recorded
            and (verdict.rule != "cartan-infinite"
                 or not set(map(type, itertools.chain(*recorded))) - {int}))
