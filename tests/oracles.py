"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with different
algorithms than the package modules: cliques come from networkx, finite-type
detection from an explicit rank-limited catalog plus graph isomorphism,
eigen-claims are re-checked by direct matrix application, and negativity by
walking commuting pairs instead of partner classes.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

from nichols.exactfield import MINUS_ONE, ONE
from nichols.permgroup import conjugate
from nichols.reps import pi_scalar
from nichols.verdict import NegativityReport


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


# maximal commuting subsets by an external clique engine

def maximal_commuting_sets(elements: list, through=None) -> set:
    g = nx.Graph()
    g.add_nodes_from(range(len(elements)))
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if elements[i].commutes_with(elements[j]):
                g.add_edge(i, j)
    out = set()
    for clique in nx.find_cliques(g):
        members = tuple(sorted(elements[v] for v in clique))
        if through is None or through in members:
            out.add(members)
    return out


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
    q = pi_scalar(rho, cls)
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
