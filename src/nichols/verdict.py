"""Decision engine for conjugacy-class braidings of unmixed classes.

The pipeline: a scalar gate on the basepoint value, diagonal subspaces over
structured abelian subracks, Cartan and finite-type analysis of their
generalized Dynkin diagrams, a labeled 4-cycle rule, a negativity check over
the centralizer classes of commuting partners.  A closed-form verdict over
the same inputs serves as an independent cross-check oracle.

Everything runs on the character of the representation: braidings are
roots of unity with integer exponents, and "acts by a scalar" is read off
the character value.

Outcomes: "InfiniteDim" always carries a machine-checkable witness, and
"NegativeBraiding" carries the verified pair inventory.  For an unmixed
class every braiding is one or the other, so an input that no rule decides
is a defect of the engine and raises.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Union

from .braidspace import (AbelianSubrack, DiagonalSubspace,
                         GeneralizedDynkinDiagram, diagonal_subspace,
                         dynkin_diagram, powers_subrack, quadruple_subrack,
                         rotation_subrack, triple_subrack)
from .exactfield import ROOT_MINUS_ONE, ROOT_ONE, RootOfUnity
from .permgroup import Permutation, UnmixedClass, conjugate
from .reps import InducedCharacter, RepSpec, parse_rep_spec, pi_scalar

INFINITE = "InfiniteDim"
NEGATIVE = "NegativeBraiding"


class Verdict(NamedTuple):
    outcome: str
    rule: str
    witness: dict
    flags: tuple = ()


class CartanData(NamedTuple):
    """Integer matrix a_ij with a_ii = 2 plus the orders of the diagonal
    braiding entries it was extracted from."""
    matrix: tuple
    diagonal_orders: tuple


class NotCartan(NamedTuple):
    reason: str
    where: tuple = ()


def scalar_gate(q: RootOfUnity, ord_pi: int) -> Optional[Verdict]:
    """Infinite unless the basepoint has even order and acts by -1.

    Returns the infinite verdict, or None to pass."""
    if ord_pi % 2:
        return Verdict(INFINITE, "scalar-gate",
                       {"q_scalar": str(q), "element_order": ord_pi,
                        "reason": "basepoint has odd order"})
    if q != ROOT_MINUS_ONE:
        return Verdict(INFINITE, "scalar-gate",
                       {"q_scalar": str(q), "element_order": ord_pi,
                        "reason": "basepoint scalar is not -1"})
    return None


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


def _gcm_components(A) -> tuple:
    m = len(A)
    seen = set()
    out = []
    for start in range(m):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(m):
                if w != v and A[v][w] != 0 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return tuple(out)


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
    return all(_symmetrizer(A, comp) is not None for comp in _gcm_components(A))


def finite_type(data: CartanData) -> bool:
    """True iff the matrix is symmetrizable with positive definite
    symmetrization, component by component (exact rational arithmetic)."""
    A = data.matrix
    _validate_gcm(A)
    for comp in _gcm_components(A):
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
    and trees get their standard labels; anything else is unnamed.  Display
    only; verdicts never depend on it."""
    A = data.matrix
    comps = _gcm_components(A)
    if len(comps) != 1:
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


def cycle_rule(diagram: GeneralizedDynkinDiagram) -> Optional[dict]:
    """Detect a chordless 4-cycle with every vertex label -1 whose edge
    labels alternate nu, 1/nu around the cycle (opposite edges equal).

    Such a labeled cycle certifies an infinite braiding.  Returns the cycle
    and its labels, or None.
    """
    minus = [v for v in range(diagram.size)
             if diagram.vertex_labels[v] == ROOT_MINUS_ONE]
    mset = set(minus)
    for a in minus:
        nbrs_a = set(diagram.neighbors(a))
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


class NegativityReport(NamedTuple):
    negative: bool
    pairs_checked: int
    reduced: bool
    failure: Optional[dict]
    partners: tuple
    partner_count: int = 0


def negativity_check(cls: UnmixedClass, character: InducedCharacter) -> NegativityReport:
    """Check that every commuting pair of class elements braids negatively:
    diagonal values -1 and opposite values multiplying to 1.

    Every commuting pair conjugates onto (basepoint, t) with t a partner of
    the basepoint, and conjugating by the centralizer moves t within its
    centralizer class without changing the braiding values, so one pair per
    partner class is checked.  pairs_checked counts those classes, partners
    lists their representatives, and partner_count sums their sizes.
    Whether an element acts by a scalar, and which, is read off the
    character.
    """
    q = pi_scalar(character.spec)
    if q != ROOT_MINUS_ONE:
        return NegativityReport(False, 0, True,
                                {"reason": "basepoint scalar is not -1",
                                 "q_scalar": str(q)}, ())
    pi = cls.basepoint
    checked = 0
    count = 0
    kept = []
    for partner in cls.partner_classes():
        checked += 1
        t = cls.assemble(partner.representative)
        lam = character.scalar(partner.representative)
        if lam is None:
            return NegativityReport(
                False, checked, True,
                {"pair": (str(pi), str(t)), "reason": "non-scalar value"},
                tuple(kept), count)
        g = cls.transporter(t)
        mu = character.scalar(cls.normal_form(conjugate(g.inverse(), pi)))
        if mu is None:
            return NegativityReport(
                False, checked, True,
                {"pair": (str(pi), str(t)),
                 "reason": "non-scalar pulled-back value"}, tuple(kept), count)
        if lam * mu != ROOT_ONE:
            return NegativityReport(
                False, checked, True,
                {"pair": (str(pi), str(t)), "value": str(lam * mu),
                 "reason": "opposite values do not cancel"}, tuple(kept), count)
        kept.append(str(partner.representative))
        count += partner.size
    return NegativityReport(True, checked, True, None, tuple(kept), count)


def candidate_subracks(cls: UnmixedClass):
    if cls.n == 1:
        yield powers_subrack(cls)
        return
    if cls.k == 2:
        span = cls.n // 2
        for l in range(span, 0, -1):
            yield triple_subrack(cls, l)
        return
    if cls.k % 2 == 0:
        yield rotation_subrack(cls)
        yield quadruple_subrack(cls, 1, 2)


def _shortest_cycle(diagram: GeneralizedDynkinDiagram) -> Optional[tuple]:
    """A minimum-length cycle of the diagram (chordless by minimality), as a
    vertex tuple in cycle order, or None for forests."""
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


def _witness(space: DiagonalSubspace, firing: tuple, rule: str,
             detail: dict, cycle_order: tuple = ()) -> Verdict:
    # expand the firing vertex set to (its columns) x (its eigenvector
    # indices): the smallest rectangle that makes the witness self-contained
    cols = sorted({space.vertices[x][0] for x in firing})
    vecs = sorted({space.vertices[x][1] for x in firing})
    vertices = tuple((j, s) for j in cols for s in vecs)
    expanded = space.restrict(vertices)
    position = {v: i for i, v in enumerate(vertices)}
    diagram = dynkin_diagram(expanded)
    witness = {
        "subrack": space.subrack.describe(),
        "element_images": [list(t.img) for t in space.subrack.elements],
        "transporter_images": [list(g.img) for g in space.subrack.transporters],
        "vertices": [[j, s] for j, s in vertices],
        "q_matrix": [[str(expanded.q(a, b)) for b in vertices]
                     for a in vertices],
        "diagram_dot": diagram.to_dot(),
        "components": [list(c) for c in diagram.components()],
        "firing": sorted(position[space.vertices[x]] for x in firing),
    }
    if cycle_order:
        witness["cycle"] = [position[space.vertices[x]] for x in cycle_order]
    witness.update(detail)
    return Verdict(INFINITE, rule, witness)


def _subspace_rules(subrack: AbelianSubrack,
                    character: InducedCharacter) -> Optional[Verdict]:
    space = diagonal_subspace(subrack, character)
    diagram = dynkin_diagram(space)
    cartan_hits = []
    cycle_hits = []
    for comp in diagram.components():
        sub = space.restrict(space.vertices[x] for x in comp)
        data = cartan_type(sub.braiding_matrix())
        if isinstance(data, CartanData):
            if not finite_type(data):
                firing = _minimal_infinite_set(space, sub, comp)
                cartan_hits.append((_expansion_size(space, firing), firing))
        else:
            hit = cycle_rule(dynkin_diagram(sub))
            if hit is not None:
                firing = tuple(sorted(comp[x] for x in hit["cycle"]))
                order = tuple(comp[x] for x in hit["cycle"])
                cycle_hits.append(
                    (_expansion_size(space, firing), firing, order, hit))
    if cartan_hits:
        size, firing = min(cartan_hits)
        sub = space.restrict(space.vertices[x] for x in firing)
        data = cartan_type(sub.braiding_matrix())
        return _witness(space, firing, "cartan-infinite",
                        {"cartan_matrix": [list(r) for r in data.matrix],
                         "label": diagram_label(data)})
    if cycle_hits:
        size, firing, order, hit = min(
            cycle_hits, key=lambda x: (x[0], x[1]))
        return _witness(space, firing, "alternating-cycle",
                        {"cycle_labels": list(hit["labels"])},
                        cycle_order=order)
    return None


def _expansion_size(space: DiagonalSubspace, firing: tuple) -> int:
    cols = {space.vertices[x][0] for x in firing}
    vecs = {space.vertices[x][1] for x in firing}
    return len(cols) * len(vecs)


def _minimal_infinite_set(space: DiagonalSubspace, sub: DiagonalSubspace,
                          comp: tuple) -> tuple:
    """Shrink a non-finite Cartan component to a small witness: a triangle
    with the smallest expansion when one exists, else a cycle minimizing
    (expansion, length), else the whole component (non-finite trees).  Any
    cycle subdiagram is again non-finite Cartan."""
    subdiag = dynkin_diagram(sub)
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
        return min(triangles, key=lambda t: (_expansion_size(space, t), t))
    candidates = []
    vec_indices = sorted({space.vertices[x][1] for x in comp})
    for r in (1, 2):
        for subset in itertools.combinations(vec_indices, r):
            keep = [x for x in comp if space.vertices[x][1] in subset]
            if len(keep) < 3:
                continue
            rdiag = dynkin_diagram(
                space.restrict(space.vertices[x] for x in keep))
            cyc = _shortest_cycle(rdiag)
            if cyc is not None:
                firing = tuple(sorted(keep[i] for i in cyc))
                candidates.append(
                    (_expansion_size(space, firing), len(cyc), firing))
    cyc = _shortest_cycle(subdiag)
    if cyc is not None:
        firing = tuple(sorted(comp[x] for x in cyc))
        candidates.append((_expansion_size(space, firing), len(cyc), firing))
    if candidates:
        return min(candidates)[2]
    return comp


def _resolve_spec(k: int, n: int, rho_spec) -> RepSpec:
    if isinstance(rho_spec, RepSpec):
        if rho_spec.k != k or rho_spec.n != n:
            raise ValueError("representation spec is for different parameters")
        return rho_spec
    return parse_rep_spec(k, n, rho_spec)


def decide(k: int, n: int, rho_spec) -> Verdict:
    """Classify the braiding of the (k^n) class with the given centralizer
    representation: InfiniteDim with a machine-checkable witness, or
    NegativeBraiding with the verified pair inventory.  Raises RuntimeError
    when no rule decides, which the dichotomy for unmixed classes rules
    out."""
    cls = UnmixedClass(k, n)
    spec = _resolve_spec(k, n, rho_spec)
    gate = scalar_gate(pi_scalar(spec), k)
    if gate is not None:
        return gate
    character = spec.character()
    for subrack in candidate_subracks(cls):
        verdict = _subspace_rules(subrack, character)
        if verdict is not None:
            return verdict
    report = negativity_check(cls, character)
    if report.negative:
        return Verdict(NEGATIVE, "negative-exhaustive",
                       {"pairs_checked": report.pairs_checked,
                        "symmetry_reduced": True,
                        "partners": list(report.partners),
                        "partner_count": report.partner_count})
    raise RuntimeError("no rule decides %s at (%d,%d); negativity failed: %s"
                       % (spec.label(), k, n, report.failure))


def closed_form_verdict(k: int, n: int, rho_spec) -> Verdict:
    """Case-table verdict, independent of the subspace machinery: negative
    exactly for scalar representations with constant twist parameter c where
    the basepoint value is -1 and 2c vanishes mod k/2; infinite otherwise."""
    spec = _resolve_spec(k, n, rho_spec)
    if k % 2:
        return Verdict(INFINITE, "closed-form", {"case": "odd-order"})
    r = k // 2
    if spec.degree() != 1:
        return Verdict(INFINITE, "closed-form", {"case": "degree"})
    c = spec.u[0]
    if (c * n) % k != r:
        return Verdict(INFINITE, "closed-form", {"case": "gate"})
    if (2 * c) % r:
        return Verdict(INFINITE, "closed-form", {"case": "parameter"})
    return Verdict(NEGATIVE, "closed-form", {"case": "scalar-negative", "c": c})


def verify_witness(k: int, n: int, rho_spec, verdict: Verdict) -> bool:
    """Re-validate an infinite verdict from its recorded witness: rebuild the
    subrack from raw images, recompute the braiding on the witness vertices
    from the character, and re-fire the rule."""
    if verdict.outcome != INFINITE:
        raise ValueError("only infinite verdicts carry a rebuildable witness")
    cls = UnmixedClass(k, n)
    spec = _resolve_spec(k, n, rho_spec)
    if verdict.rule == "scalar-gate":
        return k % 2 == 1 or pi_scalar(spec) != ROOT_MINUS_ONE
    w = verdict.witness
    subrack = AbelianSubrack(
        cls,
        tuple(Permutation(img) for img in w["element_images"]),
        tuple(Permutation(img) for img in w["transporter_images"]),
        kind=w["subrack"]["kind"], param=tuple(w["subrack"]["param"]))
    space = diagonal_subspace(subrack, spec.character())
    restricted = space.restrict(tuple(v) for v in w["vertices"])
    q_matrix = [[str(restricted.q(a, b)) for b in restricted.vertices]
                for a in restricted.vertices]
    if q_matrix != w["q_matrix"]:
        return False
    if verdict.rule == "cartan-infinite":
        firing = [restricted.vertices[x] for x in w["firing"]]
        sub = restricted.restrict(firing)
        data = cartan_type(sub.braiding_matrix())
        return isinstance(data, CartanData) and not finite_type(data)
    if verdict.rule == "alternating-cycle":
        a, b, c, d = (restricted.vertices[x] for x in w["cycle"])
        def product(x, y):
            return restricted.q(x, y) * restricted.q(y, x)
        if any(restricted.q(v, v) != ROOT_MINUS_ONE for v in (a, b, c, d)):
            return False
        if product(a, c) != ROOT_ONE or product(b, d) != ROOT_ONE:
            return False
        ab, bc, cd, da = product(a, b), product(b, c), product(c, d), product(d, a)
        return (ab != ROOT_ONE and ab * bc == ROOT_ONE and ab == cd and bc == da)
    raise ValueError("unknown rule %r" % verdict.rule)
