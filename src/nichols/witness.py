"""The witness check: re-validate an InfiniteDim verdict from its printed
witness alone (verify_witness).

It shares no code with the decision (nichols.verdict) and imports nothing
of it: it plans no subrack and runs none of the decision's spectrum code.
Of braidspace it takes only the family registry and the subrack class.

Why the check is sound.  A witness vertex (j, s) names the vector
g_j v_s, for g_j the transporter of column j and v_s a joint eigenvector
of rho on H_w, the group generated by the table entries
gamma_ij = g_j^-1 t_i g_j with i, j in the witness columns; s is only a
name.  Since t_i (g_j v) = g_j gamma_ij v and gamma_ij centralizes the
basepoint, vectors g_j v_s with v_s of linear character psi_s span a
braided subspace of diagonal type whose entry for (i, r), (j, s) is
psi_s(gamma_ij), the recorded q_matrix.  Vectors of one psi can be
chosen independent exactly when psi occurs in chi|H_w at least as often
as the witness uses it, and vectors of different psi are independent.
So the check reads psi_s(gamma_ij) off the q_matrix, the same for every
row index r and wherever two (i, j) give the same entry.  Each gamma_ij
is a conjugate of a class element, so every entry is a k-th root of
unity, held as its exponent of zeta_k.  The basepoint pi = gamma_jj is
central of order k, and pi^e h adds e to every twist of h, so each coset
of <pi> in H_w has one representative with d[0] = 0.  The check closes
H_w/<pi> on those representatives, from the identity, and checks on
every Cayley edge g_t r = pi^e r' that the phase of r' is that of r moved
by psi(g_t) - e psi(pi), so that psi_s extends to a character of H_w.  pi
acts on rho by zeta_k^q, q = pi_scalar(spec), so chi(pi^e r) =
zeta_k^(q e) chi(r): a psi with psi(pi) other than zeta_k^q occurs 0
times, and for the others the multiplicity (1/|H_w|) sum_h chi(h)
psi(h)^-1 is (k/|H_w|) sum_r chi(r) psi(r)^-1 over the |H_w|/k
representatives r, read on a basis of Q(zeta_k) (integer_value): that
sum is an integer, which must be divisible by |H_w|/k.  Then the rule
is re-fired on the recorded exponents.  cartan-infinite is re-fired by
linear algebra on the firing set, sharing no code with the graph reading
that decided it: every diagonal entry -1, every product q_ab q_ba equal
to 1 or -1, and the Cartan matrix 2I - A (A = 1 where the product is -1)
not positive definite.

Only the representation changes from row to row.  What no
representation changes is built once per recorded subrack (the member of
the family its kind names, or else the subrack rebuilt from its images
with its own checks, and no description; _witness_subrack), once per set
of its witness columns (the place of each table entry among the distinct
ones, their normal forms, each a pair of plain tuples, checked to
commute; _witness_columns), once per recorded q_matrix on those
columns (its exponents, the psi_s read off it, the place of pi among the
entries, and H_w/<pi> closed from the identity on the normal forms of the
coset representatives while the phases of the psi used are carried along
each Cayley edge, checked there and counted at each distinct class
label; _witness_reading) and once per rule re-fired on a firing or cycle
of those exponents (_refire), and kept for the life of the process; a
row only checks its own fields and vertices and that each psi used takes
the value zeta_k^q at pi, and sums its character, read once at each
distinct label of the representatives as its nonzero terms, against
those counts, in integers (_character_sums).
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from typing import NamedTuple, Optional

from .braidspace import FAMILIES, AbelianSubrack
from .exactfield import integer_value, root_name
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


def _cartan_infinite(q, k: int) -> Optional[list]:
    """The cartan-infinite rule re-fired by linear algebra on a square table
    of braiding values, each given as its exponent of zeta_k: every
    diagonal entry is -1 (exponent k/2) and every product q_ab q_ba
    is 1 or -1 (exponent sum 0 or k/2), and the Cartan matrix 2I - A
    is not positive definite, A being 1 where the product is -1 and 0
    elsewhere.  Returns that Cartan matrix when the rule fires, else None."""
    half, odd = divmod(k, 2)
    if odd:
        return None
    m = len(q)
    cartan = [[2] * m for _ in range(m)]
    for a in range(m):
        if q[a][a] % k != half:
            return None
        for b in range(m):
            if a == b:
                continue
            product = (q[a][b] + q[b][a]) % k
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
    (generator[a][b]), the normal forms of those entries, and the exponent
    of each k-th root of unity by its printed form (named through
    nichols.exactfield.root_name).  Each entry is a conjugate of a class
    element, so every psi_s(gamma_ij) is a k-th root of unity.  Every entry
    centralizes the basepoint, as t_i commutes with t_j and g_j carries pi
    to t_j (nichols.braidspace.AbelianSubrack refuses any other
    transporter), so its normal form (nichols.permgroup.UnmixedClass.
    normal_form) never raises, and only entries that do not commute raise
    ValueError (nichols.braidspace.AbelianSubrack.table, the one builder of
    a conjugation table)."""
    cls = subrack.cls
    generator, entries = subrack.table(cols)
    return (generator, tuple(map(cls.normal_form, entries)),
            {root_name(cls.k, e): e for e in range(cls.k)})


class _WitnessReading(NamedTuple):
    """What the witness check reads off one recorded q_matrix on one
    subrack and set of its columns, whatever the representation: the
    entries as integer exponents of zeta_k (exponents); each psi used, as
    its exponents on the distinct table entries, with the number of
    vertex indices that name it (used); the place of the basepoint pi
    among those entries (basepoint); the number |H_w|/k of coset
    representatives of <pi> in H_w (order) and their distinct class
    labels (labels); and for each psi used, one (label index, phase,
    count) triple per class label and phase of psi that occur together on
    the representatives, with the number of those representatives
    (phases)."""

    exponents: tuple
    used: tuple
    basepoint: int
    order: int
    labels: tuple
    phases: tuple


@cache
def _witness_reading(subrack: AbelianSubrack, cols: tuple, width: int,
                     q_matrix: tuple) -> Optional[_WitnessReading]:
    """The reading of a q_matrix of str entries, one row and one column
    per vertex (j, s) of the rectangle cols x (width indices), on H_w:
    None when an entry is no k-th root of unity printed in lowest terms
    (_witness_columns), when a psi_s read off two row vertices (i, r)
    disagrees on a table entry, or when a psi used fails on a Cayley edge
    of H_w/<pi>, so that it is no character of H_w.  The basepoint pi =
    ((1, ..., 1), id) is always a table entry: nichols.braidspace.
    AbelianSubrack refuses a transporter g_j that does not carry pi to
    t_j, so gamma_jj = g_j^-1 t_j g_j = pi.

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
    generator, forms, exponent = _witness_columns(subrack, cols)
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
    base = forms.index(NormalForm((1,) * cls.n, identity.b))
    at_pi = tuple(psi[base] for psi in used)
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
            step = tuple((p + m - e * z) % k
                         for p, m, z in zip(at[h], moves, at_pi))
            if at.setdefault(x, step) != step:
                return None
            if len(at) > len(queue):
                queue.append(x)
    # each psi counted by (label, phase)
    labels = [h.class_label(k) for h in queue]
    index = {label: x for x, label in enumerate(dict.fromkeys(labels))}
    phases = tuple(tuple((index[label], p, m) for (label, p), m
                         in Counter(zip(labels, column)).items())
                   for column in zip(*at.values()))
    return _WitnessReading(exps,
                           tuple((psi, psis.count(psi)) for psi in used),
                           base, len(queue), tuple(index), phases)


def _character_sums(reading: _WitnessReading, character: InducedCharacter):
    """sum_r chi(r) psi(r)^-1 over the coset representatives r of <pi> in
    H_w for each psi of reading.used, in order, each read by integer_value
    (None when not rational): chi is read once at each distinct label of
    the representatives, as its terms, and a term (a, c) of a
    representative of phase p becomes (a - p mod k, c m), m the number of
    representatives with that label and phase."""
    k = character.k
    terms = list(map(character.coefficients, reading.labels))
    for counts in reading.phases:
        yield integer_value(k, [((a - p) % k, c * m) for x, p, m in counts
                                for a, c in terms[x]])


@cache
def _refire(rule: str, positions: tuple, exps: tuple,
            k: int) -> Optional[list]:
    """The rule re-fired on the integer exponents of the q_matrix at the
    firing or cycle positions: the Cartan matrix of a cartan-infinite
    firing set, or the printed products around an alternating 4-cycle, or
    None when the rule does not fire there.  Kept for the life of the
    process, so a caller must treat the answer as read-only."""
    if rule == "cartan-infinite":
        return _cartan_infinite([[exps[a][b] for b in positions]
                                 for a in positions], k)
    a, b, c, d = positions
    def product(x, y):
        return (exps[x][y] + exps[y][x]) % k
    ab, bc, cd, da = product(a, b), product(b, c), product(c, d), product(d, a)
    if (k % 2 or any(exps[v][v] != k // 2 for v in positions)
            or product(a, c) or product(b, d) or ab == 0
            or (ab + bc) % k or ab != cd or bc != da):
        return None
    return [root_name(k, x) for x in (ab, bc, cd, da)]


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


def _require(record: dict, keys: tuple, what: str, *args) -> None:
    # what % args names the record, formatted only for the message
    if not isinstance(record, dict):
        raise ValueError("%s must be a dict" % (what % args))
    if not all(map(record.__contains__, keys)):
        missing = [key for key in keys if key not in record]
        raise ValueError("%s lacks the field %s"
                         % (what % args, ", ".join(missing)))


def _lists(values) -> bool:
    # whether every value is a list (a list subclass is one), by one scan
    return all(map(isinstance, values, itertools.repeat(list)))


def _rectangle(w: dict, width: int, degree: int) -> tuple:
    """The columns and indices of a subrack witness's vertices, sorted, and
    its firing and cycle lists, each list read by one scan of its types
    or lengths.  ValueError when the vertices are no list of two-element
    lists, the firing or cycle no list, or an entry of them no int (a
    bool, float or str is not); or when the vertices are not the
    rectangle (columns) x (indices) in order, from 0 and below width and
    the degree."""
    vertices = w["vertices"]
    indices = [w[key] for key in ("firing", "cycle") if key in w]
    if not (isinstance(vertices, list) and _lists(vertices)
            and set(map(len, vertices)) <= {2} and _lists(indices)):
        raise ValueError("witness vertices must be a list of pairs, and its "
                         "firing and cycle lists")
    flat = list(itertools.chain.from_iterable(vertices))
    if not set(map(type, itertools.chain(flat, *indices))) <= {int}:
        raise ValueError("witness vertices and indices must be integers")
    cols = sorted(set(flat[0::2]))
    vecs = sorted(set(flat[1::2]))
    # in order: each column once per index, and the indices once per column
    if (not flat or flat[0::2] != sorted(cols * len(vecs))
            or flat[1::2] != vecs * len(cols)
            or cols[0] < 0 or cols[-1] >= width
            or vecs[0] < 0 or vecs[-1] >= degree):
        raise ValueError("witness vertices must be the rectangle of their "
                         "columns and indices, none repeated, below the "
                         "subrack size and the degree")
    return cols, vecs, indices


def _is_table(q_matrix, size: int) -> bool:
    # whether q_matrix is size lists of size str entries, each list read
    # by one scan
    return (isinstance(q_matrix, list) and len(q_matrix) == size
            and _lists(q_matrix) and set(map(len, q_matrix)) <= {size}
            and set(map(type, itertools.chain.from_iterable(q_matrix)))
            <= {str})


def verify_witness(k: int, n: int, rho_spec, verdict) -> bool:
    """Re-validate an infinite verdict from its recorded witness alone, on
    the witness's own group H_w: no subrack plan, class plan or spectrum
    of the decision is read (the module docstring says why the check is
    sound).  Checks run in the order below, cached or not, so a failing
    multiplicity returns False before a cycle that is not a 4-cycle
    raises; a witness that raises is not cached.

    Returns False when:
    - a scalar-gate row's q_scalar, element_order (of type int) or reason
      ("basepoint has odd order" for odd k, "basepoint scalar is not -1"
      for even k) is not the one its rho gives, or its rho is -1 at pi
      for even k;
    - the subrack description (kind, param and the printed elements and
      transporters) does not describe the subrack rebuilt from the
      images: the member of the family that kind and param name must
      have exactly the recorded images, and a kind that names no family,
      or a param that its family refuses, fails;
    - the q_matrix is not one list per vertex of one str per vertex, an
      entry is not a k-th root of unity printed in lowest terms, or a psi_s
      disagrees between two row vertices or fails on an edge of H_w/<pi>
      (_witness_reading);
    - a psi used has psi(pi) other than zeta_k^q, or occurs in chi|H_w
      fewer times than the witness uses it;
    - the firing of an alternating cycle is not its cycle's positions in
      increasing order, the rule does not fire on the recorded values, or
      the recorded cartan_matrix (entries of type int) or cycle_labels
      are not the re-fired ones.
    The printed label, components and diagram_dot are not read.

    Raises ValueError when the verdict is not infinite; when the rho_spec
    is neither a RepSpec nor a str, or names no irrep; when the verdict
    rule is not a str, or a rule other than the three that carry a
    witness; when the witness, or its subrack field, is not a dict or
    lacks a field its rule reads, or the subrack kind is not a str or its
    param not a list of int; when element_images or transporter_images
    are not a list of image lists of int entries (1.0 or True is not 1),
    or the images make no valid subrack; when the vertices are not a list
    of two-element lists, or the firing or cycle not a list, of int
    entries (a bool, float or str is not); when the vertices are not the
    rectangle (its columns) x (its indices) in order, from 0 and below the
    subrack size and the degree, or the firing or cycle indices repeat or
    leave the vertex list; when the table entries of the columns do not
    commute (every one centralizes the basepoint, _witness_columns); and
    when a cycle is not a 4-cycle."""
    if verdict.outcome != INFINITE:
        raise ValueError("only infinite verdicts carry a rebuildable witness")
    spec = resolve_spec(k, n, rho_spec)
    w = verdict.witness
    if not isinstance(verdict.rule, str):
        raise ValueError("the verdict rule must be a str")
    _require(w, _WITNESS_FIELDS.get(verdict.rule, _SUBRACK_FIELDS),
             "the %s witness", verdict.rule)
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
    cols, vecs, indices = _rectangle(w, subrack.size, character.degree)
    size = len(cols) * len(vecs)
    for positions in indices:
        if len(set(positions) & set(range(size))) != len(positions):
            raise ValueError("witness indices must be distinct vertex positions")
    # the table entries are checked before the q_matrix
    _witness_columns(subrack, tuple(cols))
    q_matrix = w["q_matrix"]
    if not _is_table(q_matrix, size):
        return False
    reading = _witness_reading(subrack, tuple(cols), len(vecs),
                               tuple(map(tuple, q_matrix)))
    if reading is None:
        return False
    # pi acts by zeta_k^q, so a psi with psi(pi) other than it occurs 0 times
    scalar = pi_scalar(spec)
    if any(psi[reading.basepoint] != scalar for psi, _ in reading.used):
        return False
    # each total is |H_w| / k times a multiplicity
    for (_, count), total in zip(reading.used,
                                 _character_sums(reading, character)):
        if (total is None or total % reading.order
                or total // reading.order < count):
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
    expected = _refire(verdict.rule, tuple(positions), reading.exponents, k)
    # a cartan_matrix entry 2.0 or True equals 2 or 1, but is not it
    return (expected is not None and expected == recorded
            and (verdict.rule != "cartan-infinite"
                 or not set(map(type, itertools.chain(*recorded))) - {int}))
