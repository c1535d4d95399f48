import itertools
import json
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import nichols.braidspace
import nichols.verdict
import nichols.witness
from nichols.braidspace import (AbelianSubrack, dynkin_diagram,
                                quadruple_subrack, rotation_subrack,
                                subrack_plan, triple_subrack)
from nichols.permgroup import Permutation, UnmixedClass
from nichols.reps import enumerate_irreps, parse_rep_spec, pi_scalar
from nichols.verdict import (INFINITE, NEGATIVE, _twins, class_plan,
                             closed_form_verdict, cycle_rule, decide,
                             negativity_check, scalar_gate, verify_witness)
from nichols.witness import (_cartan_infinite, _is_table,
                             _positive_definite, _rectangle)

from exactfield_oracle import ROOT_MINUS_ONE, ROOT_ONE, RootOfUnity
from oracles import (REFERENCE_Q_SIX_CYCLE, CartanData, NotCartan,
                     _positive_definite as oracle_positive_definite,
                     cartan_type, cataloged, diagram_label, finite_catalog,
                     finite_type, finite_type_lookup, gamma, is_witness_table,
                     negativity_full, negativity_walk, per_element_sums,
                     permutation_spectrum_plan,
                     permutation_witness_group, random_symmetrizable_gcm,
                     resolve, symmetrizable, tried_subracks,
                     witness_rectangle)

_SYMBOLS = {"1": ROOT_ONE, "-1": ROOT_MINUS_ONE}


def _sign_matrix(rows):
    return tuple(tuple(_SYMBOLS[x] for x in row) for row in rows)


def _gcm(rows) -> CartanData:
    matrix = tuple(tuple(r) for r in rows)
    return CartanData(matrix, (2,) * len(matrix))


def test_scalar_gate():
    # the basepoint scalar as its exponent of zeta_k: -1 is k/2
    assert scalar_gate(1, 2) is None
    assert scalar_gate(2, 4) is None
    odd = scalar_gate(1, 3)
    assert odd is not None and odd.outcome == INFINITE
    assert odd.rule == "scalar-gate"
    assert odd.witness["reason"] == "basepoint has odd order"
    assert odd.witness["q_scalar"] == "z(3,1)"
    wrong = scalar_gate(0, 2)
    assert wrong is not None and wrong.outcome == INFINITE
    assert wrong.witness["reason"] == "basepoint scalar is not -1"
    assert wrong.witness["q_scalar"] == "1"
    assert scalar_gate(1, 4).witness["q_scalar"] == "z(4,1)"


def test_cartan_type_of_six_cycle_braiding():
    q = _sign_matrix(REFERENCE_Q_SIX_CYCLE)
    data = cartan_type(q)
    assert isinstance(data, CartanData)
    assert data.diagonal_orders == (2,) * 6
    for i in range(6):
        for j in range(6):
            if i == j:
                assert data.matrix[i][j] == 2
            elif q[i][j] * q[j][i] == ROOT_MINUS_ONE:
                assert data.matrix[i][j] == -1
            else:
                assert data.matrix[i][j] == 0
    # every vertex has exactly two neighbors: a single cycle
    for i in range(6):
        assert sum(1 for j in range(6) if j != i and data.matrix[i][j]) == 2
    assert diagram_label(data) == "A5(1)"
    assert symmetrizable(data)
    assert not finite_type(data)


def test_cartan_type_rejections():
    assert cartan_type([[ROOT_ONE]]) == NotCartan("diagonal entry 1", (0,))
    q = [[ROOT_MINUS_ONE, RootOfUnity(3, 1)], [ROOT_ONE, ROOT_MINUS_ONE]]
    missing = cartan_type(q)
    assert missing == NotCartan("no admissible exponent", (0, 1))


def test_cartan_type_exponent_window():
    # with q_ii of order 3 the product z3 forces the exponent -2
    z = RootOfUnity(3, 1)
    q = [[z, z], [ROOT_ONE, z]]
    data = cartan_type(q)
    assert isinstance(data, CartanData)
    assert data.matrix == ((2, -2), (-2, 2))
    assert data.diagonal_orders == (3, 3)
    assert not finite_type(data)


def test_finite_type_catalog_rows():
    for name, rows in finite_catalog():
        assert finite_type(_gcm(rows)), name
        assert symmetrizable(_gcm(rows)), name


def test_finite_type_rejects_affine_and_long_rank():
    cycle = [[2 if i == j else (-1 if abs(i - j) in (1, 5) else 0)
              for j in range(6)] for i in range(6)]
    assert not finite_type(_gcm(cycle))
    # positive definiteness is computed, not looked up: rank 9 chain is fine
    chain9 = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
               for j in range(9)] for i in range(9)]
    assert finite_type(_gcm(chain9))
    assert not finite_type(_gcm([[2, -2], [-2, 2]]))


def test_symmetrizable_rejects_inconsistent_cycle():
    a = [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]
    assert not symmetrizable(_gcm(a))
    assert not finite_type(_gcm(a))


def test_diagram_label_families():
    assert diagram_label(_gcm([[2]])) == "A1"
    chain4 = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
               for j in range(4)] for i in range(4)]
    assert diagram_label(_gcm(chain4)) == "A4"
    labels = dict(finite_catalog())
    for name in ("D5", "E6", "E7", "E8"):
        assert diagram_label(_gcm(labels[name])) == name
    assert diagram_label(_gcm(labels["B3"])) is None
    disconnected = [[2, 0], [0, 2]]
    assert diagram_label(_gcm(disconnected)) is None


def test_random_gcm_agreement_with_lookup():
    rng = random.Random(20260814)
    for _ in range(150):
        a = random_symmetrizable_gcm(rng)
        data = _gcm(a)
        assert finite_type(data) == finite_type_lookup(a)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.integers(-3, 6), min_size=m, max_size=m),
    min_size=m, max_size=m)))
def test_positive_definite_agrees_with_rational_elimination(rows):
    m = len(rows)
    S = [[rows[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
    assert _positive_definite(S) == oracle_positive_definite(S)


def _cycle_rule(diagram, nodes):
    # the rule on the twin map of the nodes labelled -1
    return cycle_rule(_twins(diagram, [x for x in nodes if 2 * diagram.q(x, x)
                                       == diagram.modulus]), diagram.modulus)


def test_cycle_rule_fires_on_rotation_subrack():
    cls = UnmixedClass(6, 3)
    chi = parse_rep_spec(6, 3, "chi=(1,1,1);mu=trivial").character()
    diagram = dynkin_diagram(subrack_plan(rotation_subrack(cls)), chi)
    hits = []
    for comp in diagram.components():
        hit = _cycle_rule(diagram, comp)
        if hit is not None:
            hits.append(hit)
    assert hits
    labels = hits[0]["labels"]
    assert labels[0] == labels[2] and labels[1] == labels[3]
    assert labels[0] != labels[1]
    assert len(set(hits[0]["cycle"])) == 4


def test_cycle_rule_silent_without_alternation():
    cls = UnmixedClass(6, 3)
    chi = parse_rep_spec(6, 3, "chi=(3,3,3);mu=trivial").character()
    diagram = dynkin_diagram(subrack_plan(rotation_subrack(cls)), chi)
    assert diagram.edges == ()
    assert _cycle_rule(diagram, range(len(diagram.nodes))) is None


def test_negativity_reduced_and_full_agree_on_negative_case():
    cls = UnmixedClass(2, 3)
    spec = parse_rep_spec(2, 3, "chi=(1,1,1);mu=trivial")
    reduced = negativity_check(class_plan(2, 3), spec.character())
    full = negativity_full(cls, resolve(spec))
    assert reduced.negative and full.negative
    assert reduced.reduced and not full.reduced
    assert reduced.failure is None and full.failure is None
    assert reduced.pairs_checked > 0
    assert full.pairs_checked > reduced.pairs_checked
    assert len(reduced.partners) == reduced.pairs_checked


def test_negativity_reduced_and_full_agree_on_failure():
    cls = UnmixedClass(2, 3)
    spec = parse_rep_spec(2, 3, "chi=(1,1,1);mu=standard")
    reduced = negativity_check(class_plan(2, 3), spec.character())
    full = negativity_full(cls, resolve(spec))
    assert not reduced.negative and not full.negative
    assert reduced.failure is not None and full.failure is not None
    assert "reason" in reduced.failure


def test_negativity_over_partner_classes_matches_the_walks():
    # the unreduced pair walk is quadratic in the class size (1,247,400 at
    # (4,3), 6,652,800 at (6,2)), so the larger grids use the per-partner
    # walk; (6,3) has reps that fail only at the cancellation test
    compared = negative = 0
    for k, n, oracle in ((2, 3, negativity_full), (2, 4, negativity_full),
                         (2, 5, negativity_full), (4, 2, negativity_full),
                         (4, 3, negativity_walk), (6, 2, negativity_walk),
                         (6, 3, negativity_walk)):
        cls = UnmixedClass(k, n)
        for spec in enumerate_irreps(k, n):
            if not cataloged(spec) or 2 * pi_scalar(spec) != k:
                continue
            report = negativity_check(class_plan(k, n), spec.character())
            expected = oracle(cls, resolve(spec))
            assert report.negative == expected.negative, (k, n, spec.label())
            assert (report.failure is None) == report.negative
            if oracle is negativity_walk and report.negative:
                assert report.partner_count == expected.partner_count
            compared += 1
            negative += report.negative
    assert compared > negative > 0


def test_negativity_rejects_wrong_basepoint_scalar():
    chi = parse_rep_spec(2, 3, "chi=(0,0,0);mu=trivial").character()
    report = negativity_check(class_plan(2, 3), chi)
    assert not report.negative
    assert report.pairs_checked == 0
    assert report.failure["reason"] == "basepoint scalar is not -1"


def test_closed_form_anchor_rows():
    assert closed_form_verdict(3, 1, "chi=(1);mu=trivial").outcome == INFINITE
    neg = closed_form_verdict(2, 3, "chi=(1,1,1);mu=trivial")
    assert neg.outcome == NEGATIVE and neg.witness["c"] == 1
    assert closed_form_verdict(2, 4, "chi=(1,1,1,1);mu=trivial").outcome == INFINITE
    assert closed_form_verdict(2, 3, "chi=(1,1,1);mu=standard").outcome == INFINITE
    assert closed_form_verdict(4, 2, "chi=(1,1);mu=trivial").outcome == NEGATIVE
    assert closed_form_verdict(4, 2, "chi=(3,3);mu=sign").outcome == NEGATIVE
    assert closed_form_verdict(4, 2, "chi=(2,2);mu=trivial").outcome == INFINITE
    assert closed_form_verdict(6, 3, "chi=(3,3,3);mu=sign").outcome == NEGATIVE
    infinite = closed_form_verdict(6, 3, "chi=(1,1,1);mu=trivial")
    assert infinite.outcome == INFINITE
    assert infinite.witness["case"] == "parameter"


def test_decide_matches_closed_form_on_small_grid():
    for k, n in ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
                 (2, 2), (3, 2), (2, 3)):
        for spec in enumerate_irreps(k, n):
            verdict = decide(k, n, spec)
            expected = closed_form_verdict(k, n, spec)
            assert verdict.outcome == expected.outcome, (k, n, spec.label())
            if verdict.outcome == INFINITE:
                assert verify_witness(k, n, spec, verdict), (k, n, spec.label())


def test_verify_witness_rejects_tampering():
    verdict = decide(2, 4, "chi=(1,0,0,0);mu=standard")
    assert verdict.outcome == INFINITE and verdict.rule == "cartan-infinite"
    assert verify_witness(2, 4, "chi=(1,0,0,0);mu=standard", verdict)
    flipped = [["1" if x == "-1" else "-1" for x in row]
               for row in verdict.witness["q_matrix"]]
    tampered = verdict._replace(witness=dict(verdict.witness, q_matrix=flipped))
    assert not verify_witness(2, 4, "chi=(1,0,0,0);mu=standard", tampered)


def test_verify_witness_rejects_a_tampered_cartan_matrix():
    spec = "chi=(1,0,0,0);mu=standard"
    verdict = decide(2, 4, spec)
    assert verdict.witness["cartan_matrix"] == [[2, -1, -1], [-1, 2, -1],
                                                [-1, -1, 2]]
    assert verify_witness(2, 4, spec, verdict)
    # a 1x1 matrix, and the triangle recorded as a path
    path = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    for edited in (dict(verdict.witness, cartan_matrix=[[7]], label="E8"),
                   dict(verdict.witness, cartan_matrix=path)):
        assert not verify_witness(2, 4, spec, verdict._replace(witness=edited))


def test_verify_witness_rejects_tampered_cycle_labels():
    spec = "chi=(5,5,5);mu=trivial"
    verdict = decide(6, 3, spec)
    assert verdict.rule == "alternating-cycle"
    labels = verdict.witness["cycle_labels"]
    assert labels == ["z(3,2)", "z(3,1)", "z(3,2)", "z(3,1)"]
    assert verify_witness(6, 3, spec, verdict)
    for edited in (["1", "1", "1", "1"], labels[1:] + labels[:1]):
        tampered = dict(verdict.witness, cycle_labels=edited)
        assert not verify_witness(6, 3, spec,
                                  verdict._replace(witness=tampered))


def test_verify_witness_rejects_a_tampered_scalar_gate():
    spec = "chi=(1,1,0);mu=trivial"
    verdict = decide(2, 3, spec)
    assert verdict.rule == "scalar-gate"
    assert verdict.witness["q_scalar"] == "1"
    assert verify_witness(2, 3, spec, verdict)
    for field, value in (("q_scalar", "z(9,2)"), ("element_order", 5)):
        tampered = dict(verdict.witness, **{field: value})
        assert not verify_witness(2, 3, spec,
                                  verdict._replace(witness=tampered)), field


def test_verify_witness_reads_the_firing_of_an_alternating_cycle():
    # the firing of a cycle witness is its cycle's positions in increasing
    # order: a firing that names fewer or other positions is refused, and a
    # witness without one is malformed
    spec = "chi=(5,5,5);mu=trivial"
    verdict = decide(6, 3, spec)
    assert verdict.rule == "alternating-cycle"
    w = verdict.witness
    assert (w["firing"], w["cycle"]) == ([0, 1, 2, 3], [0, 2, 1, 3])
    assert verify_witness(6, 3, spec, verdict)
    for firing in ([0], [], [0, 2, 1, 3], [3, 2, 1, 0]):
        assert not verify_witness(6, 3, spec, _with(verdict, firing=firing)), \
            firing
    missing = dict(w)
    del missing["firing"]
    with pytest.raises(ValueError, match="lacks the field firing$"):
        verify_witness(6, 3, spec, verdict._replace(witness=missing))


@pytest.mark.parametrize("k,n,spec,reason", [
    (4, 3, "chi=(1,0,0)", "basepoint scalar is not -1"),
    (3, 2, "chi=(1,0)", "basepoint has odd order"),
])
def test_verify_witness_reads_the_reason_of_the_scalar_gate(k, n, spec, reason):
    # the reason is the one the order of the basepoint gives: the other
    # reason, another text or a number is refused, and a witness without
    # one is malformed
    verdict = decide(k, n, spec)
    assert verdict.rule == "scalar-gate"
    assert verdict.witness["reason"] == reason
    assert verify_witness(k, n, spec, verdict)
    other = ({"basepoint has odd order", "basepoint scalar is not -1"}
             - {reason}).pop()
    for forged in (other, "nonsense", 5, None):
        assert not verify_witness(k, n, spec, _with(verdict, reason=forged)), \
            forged
    missing = dict(verdict.witness)
    del missing["reason"]
    with pytest.raises(ValueError, match="lacks the field reason$"):
        verify_witness(k, n, spec, verdict._replace(witness=missing))


def _root(text):
    if text in _SYMBOLS:
        return _SYMBOLS[text]
    return RootOfUnity(*map(int, re.fullmatch(r"z\((\d+),(\d+)\)", text).groups()))


def _exponent(root, modulus):
    # the exponent of zeta_modulus that is the root
    return root.a * (modulus // root.m)


def _firing_q(witness, modulus):
    # the firing block of the q_matrix as exponents of zeta_modulus
    firing = witness["firing"]
    return [[_exponent(_root(witness["q_matrix"][a][b]), modulus)
             for b in firing] for a in firing]


def test_verify_witness_rejects_a_dropped_firing_vertex():
    # a triangle or chordless cycle less one vertex is a path, of type A
    witnesses = 0
    for spec in enumerate_irreps(2, 6):
        verdict = decide(2, 6, spec)
        if verdict.rule != "cartan-infinite":
            continue
        witnesses += 1
        firing = verdict.witness["firing"]
        assert verify_witness(2, 6, spec, verdict)
        for x in firing:
            kept = [y for y in firing if y != x]
            dropped = verdict._replace(witness=dict(verdict.witness, firing=kept))
            assert not verify_witness(2, 6, spec, dropped), (spec.label(), x)
    assert witnesses == 23


def test_verify_witness_rejects_labels_outside_the_cartan_reading():
    spec = "chi=(1,0,0,0);mu=standard"
    verdict = decide(2, 4, spec)
    w = verdict.witness
    assert _cartan_infinite(_firing_q(w, 4), 4)
    a, b = w["firing"][:2]
    # a diagonal entry 1, and a product q_ab q_ba of z(4,1)
    diagonal = [row[:] for row in w["q_matrix"]]
    diagonal[a][a] = "1"
    product = [row[:] for row in w["q_matrix"]]
    product[a][b] = str(RootOfUnity(4, 1) * _root(product[b][a]).inverse())
    for q_matrix in (diagonal, product):
        edited = dict(w, q_matrix=q_matrix)
        assert not _cartan_infinite(_firing_q(edited, 4), 4)
        assert not verify_witness(2, 4, spec, verdict._replace(witness=edited))
    # a triangle, non-finite on its own, beside a vertex whose product with
    # it is z(4,1): read as "no edge", that product would pass unnoticed
    # (exponents of zeta_4: -1 is 2, and 1 is 0)
    q = [[2 if a == b else 0 for b in range(4)] for a in range(4)]
    q[0][1] = q[1][2] = q[0][2] = 2
    assert _cartan_infinite(q, 4)
    q[0][3] = 1
    assert not _cartan_infinite(q, 4)


def test_verify_witness_needs_infinite_verdict():
    verdict = decide(2, 3, "chi=(1,1,1);mu=trivial")
    assert verdict.outcome == NEGATIVE
    with pytest.raises(ValueError):
        verify_witness(2, 3, "chi=(1,1,1);mu=trivial", verdict)


def test_former_catalog_gap_representation_is_decided():
    # partitions outside the old matrix catalog: one decided by the scalar
    # gate, one needing a subspace witness
    for text, rule in (("chi=(0,0,0,0,0);mu=catalog:3+2", "scalar-gate"),
                       ("chi=(1,1,1,1,1);mu=catalog:3+2", "cartan-infinite")):
        spec = parse_rep_spec(2, 5, text)
        assert not cataloged(spec)
        verdict = decide(2, 5, spec)
        assert verdict.outcome == closed_form_verdict(2, 5, spec).outcome
        assert verdict.outcome == INFINITE and verdict.rule == rule
        assert verify_witness(2, 5, spec, verdict)


def test_wider_grids_match_closed_form_and_witnesses_verify():
    started = time.monotonic()
    rows = verified = 0
    for k, n in ((2, 6), (4, 4), (6, 3), (8, 2)):
        for spec in enumerate_irreps(k, n):
            verdict = decide(k, n, spec)
            expected = closed_form_verdict(k, n, spec)
            assert verdict.outcome == expected.outcome, (k, n, spec.label())
            rows += 1
            if verdict.outcome == INFINITE:
                assert verify_witness(k, n, spec, verdict), (k, n, spec.label())
                verified += 1
    assert rows == 312
    print("%d rows match the closed form, %d witnesses verify, %.1fs"
          % (rows, verified, time.monotonic() - started))


@pytest.mark.slow
def test_largest_sweeps_match_closed_form_and_witnesses_verify():
    # 7,018 rows up to degree 10,080, each witness sent through JSON first.
    # About 1.3 s on a 2-vCPU VM; the bound allows a slower machine, and
    # fails a decision that builds its diagram vertex by vertex, which took
    # over 11 minutes on (6,6) alone
    started = time.monotonic()
    rows = verified = 0
    for k, n in ((2, 7), (4, 5), (2, 8), (2, 10), (4, 8), (6, 5), (6, 6)):
        for spec in enumerate_irreps(k, n):
            verdict = decide(k, n, spec)
            expected = closed_form_verdict(k, n, spec)
            assert verdict.outcome == expected.outcome, (k, n, spec.label())
            rows += 1
            if verdict.outcome == INFINITE:
                sent = json.loads(json.dumps(verdict.witness))
                assert verify_witness(k, n, spec, verdict._replace(
                    witness=sent)), (k, n, spec.label())
                verified += 1
    elapsed = time.monotonic() - started
    assert rows == 7018
    assert elapsed < 60, elapsed
    print("%d rows match the closed form, %d witnesses verify, %.1fs"
          % (rows, verified, elapsed))


def test_undecided_reports_exhaustion(monkeypatch):
    # every braiding of an unmixed class is infinite or negative, so falling
    # through every rule is an engine defect: starved of candidate subracks,
    # a non-negative rep past the scalar gate raises instead of abstaining
    import nichols.verdict as v

    monkeypatch.setattr(v, "closed_form_verdict", None, raising=True)
    empty = v.ClassPlan(2, 3)
    empty._unplanned = iter(())
    monkeypatch.setattr(v, "class_plan", lambda k, n: empty)
    with pytest.raises(RuntimeError, match="no rule decides"):
        v.decide(2, 3, "chi=(1,1,1);mu=standard")


# the class plan: what decide builds once per (k, n)

def _count_calls(monkeypatch, counts, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_a_second_decide_on_a_class_builds_no_plan(monkeypatch):
    # the negative (6,3) row walks both candidate subracks and the partner
    # classes; a second row of the class reuses all of it
    counts = Counter()
    _count_calls(monkeypatch, counts, AbelianSubrack, "__init__")
    _count_calls(monkeypatch, counts, AbelianSubrack, "table")
    _count_calls(monkeypatch, counts, UnmixedClass, "partner_classes")
    class_plan.cache_clear()
    first = decide(6, 3, "chi=(3,3,3);mu=trivial")
    assert first.outcome == NEGATIVE
    assert counts == {"__init__": 2, "table": 2, "partner_classes": 1}
    counts.clear()
    assert decide(6, 3, "chi=(3,3,3);mu=trivial") == first
    assert decide(6, 3, "chi=(3,3,3);mu=sign").outcome == NEGATIVE
    assert decide(6, 3, "chi=(1,1,1);mu=trivial").outcome == INFINITE
    assert not counts


def test_a_scalar_gate_row_builds_no_subrack_plan_and_no_partner_class(
        monkeypatch):
    # the class plan builds its subrack plans and partner classes on first
    # use: at (24,12), with 477,950 partner classes, a row that the scalar
    # gate decides needs neither
    import nichols.verdict as v

    counts = Counter()
    _count_calls(monkeypatch, counts, v, "subrack_plan")
    _count_calls(monkeypatch, counts, UnmixedClass, "partner_classes")
    class_plan.cache_clear()
    verdict = decide(24, 12, "chi=(1,0,0,0,0,0,0,0,0,0,0,0)")
    assert verdict.rule == "scalar-gate"
    assert class_plan(24, 12)._plans == []
    assert counts["subrack_plan"] == 0
    assert counts["partner_classes"] == 0
    class_plan.cache_clear()


def test_a_row_builds_only_the_subrack_plans_it_reaches(monkeypatch):
    # the first (6,3) row past the gate fires on the rotation quadruple, so
    # it neither builds nor plans the swap quadruple: the plans of a class
    # spread over the rows that first reach them, which keeps the slowest
    # row of a sweep short
    counts = Counter()
    _count_calls(monkeypatch, counts, AbelianSubrack, "__init__")
    class_plan.cache_clear()
    assert decide(6, 3, "chi=(5,5,5);mu=trivial").rule == "alternating-cycle"
    assert [plan.subrack.kind for plan in class_plan(6, 3)._plans] == [
        "quadruple-rotation"]
    assert counts == {"__init__": 1}
    assert decide(6, 3, "chi=(3,3,3);mu=trivial").outcome == NEGATIVE
    assert [plan.subrack.kind for plan in class_plan(6, 3)._plans] == [
        "quadruple-rotation", "quadruple-swap"]
    assert counts == {"__init__": 2}
    class_plan.cache_clear()


def _past_the_gate(k, n):
    return [spec for spec in enumerate_irreps(k, n)
            if scalar_gate(pi_scalar(spec), k) is None]


def test_interleaved_classes_decide_as_each_class_alone():
    # rows of (4,4), (6,3), (4,4) again and (4,5), taken in turn, against
    # each class decided alone from an empty cache
    half = len(_past_the_gate(4, 4)) // 2
    streams = [
        [(4, 4, spec) for spec in _past_the_gate(4, 4)[:half]],
        [(6, 3, spec) for spec in _past_the_gate(6, 3)],
        [(4, 4, spec) for spec in _past_the_gate(4, 4)[half:]],
        [(4, 5, spec) for spec in _past_the_gate(4, 5)[:6]]
        + [(4, 5, parse_rep_spec(4, 5, "chi=(2,2,2,2,2);mu=" + mu))
           for mu in ("trivial", "sign")],
    ]
    alone = {}
    for k, n in ((4, 4), (6, 3), (4, 5)):
        class_plan.cache_clear()
        for stream in streams:
            for row in stream:
                if row[:2] == (k, n):
                    alone[row] = decide(*row)
    class_plan.cache_clear()
    interleaved = {}
    for group in itertools.zip_longest(*streams):
        for row in group:
            if row is not None:
                interleaved[row] = decide(*row)
    assert interleaved == alone
    assert {v.rule for v in alone.values()} == {
        "cartan-infinite", "alternating-cycle", "negative-exhaustive"}


def test_verify_witness_does_not_read_the_class_plan(monkeypatch):
    # a cached plan that pairs the table entries with the wrong exponents
    # breaks decide; verify_witness rebuilds the subrack and its plan from
    # the witness, so it still accepts the genuine witness and rejects an
    # edited one
    k, n, rep = 4, 4, "chi=(3,3,3,1);mu=trivial"
    genuine = decide(k, n, rep)
    assert genuine.rule == "cartan-infinite"
    plans = class_plan(k, n)
    assert [plan.subrack.kind for plan in plans.plans()] == [
        "quadruple-rotation", "quadruple-swap"]
    monkeypatch.setattr(plans, "_plans", [
        plan._replace(table=tuple(tuple(len(plan.distinct) - 1 - t
                                        for t in row) for row in plan.table))
        for plan in plans.plans()])
    # and no subspace verdict or reading of the rules kept from before the
    # edit
    monkeypatch.setattr(plans, "_rules", {})
    monkeypatch.setattr(plans, "_patterns", {})
    # and no reading of the witness kept from before either
    nichols.witness._witness_reading.cache_clear()
    with pytest.raises(RuntimeError, match="not -1"):
        decide(k, n, rep)
    assert verify_witness(k, n, rep, genuine)
    q_matrix = [row[:] for row in genuine.witness["q_matrix"]]
    q_matrix[0][0] = "1"
    edited = genuine._replace(witness=dict(genuine.witness, q_matrix=q_matrix))
    assert not verify_witness(k, n, rep, edited)


def _braiding(plan, character):
    diagram = dynkin_diagram(plan, character)
    return diagram.modulus, diagram.labels, diagram.nodes


# (k, n): the runs of the subspace rules in a sweep of every row, with one
# class plan for all of them and with a cold plan for each, and the runs of
# the rules themselves on one class plan: once per capped pattern
SUBSPACE_RUNS = {(2, 6): (13, 23, 5), (4, 4): (9, 41, 6), (6, 3): (15, 24, 15),
                 (8, 2): (6, 12, 6), (4, 5): (36, 81, 12),
                 (2, 10): (102, 199, 5)}


def test_the_class_plan_runs_the_subspace_rules_once_per_restriction(
        monkeypatch):
    # rows whose characters agree on H share one answer, rows whose capped
    # multiplicities agree share one reading of the rules, and a row
    # decided on a warm plan gets the verdict, witness included, of a cold
    # one
    runs = []
    readings = []
    rules = nichols.verdict._subspace_rules
    read = nichols.verdict._read_rules

    def counted(plan, character, patterns):
        runs.append(plan.subrack)
        return rules(plan, character, patterns)

    def counted_reading(diagram):
        # a capped diagram: no node has more than three members
        assert max(len(indices) for _, indices in diagram.nodes) <= 3
        readings.append(diagram)
        return read(diagram)
    monkeypatch.setattr(nichols.verdict, "_subspace_rules", counted)
    monkeypatch.setattr(nichols.verdict, "_read_rules", counted_reading)
    for (k, n), (warm_runs, cold_runs, warm_readings) in SUBSPACE_RUNS.items():
        specs = enumerate_irreps(k, n)
        class_plan.cache_clear()
        warm = [decide(k, n, spec) for spec in specs]
        assert len(runs) == warm_runs, (k, n)
        assert len(readings) == warm_readings, (k, n)
        runs.clear()
        readings.clear()
        for spec, verdict in zip(specs, warm):
            class_plan.cache_clear()
            assert decide(k, n, spec) == verdict, (k, n, spec.label())
        assert len(runs) == len(readings) == cold_runs, (k, n)
        runs.clear()
        readings.clear()


def test_every_k2_triple_gives_the_same_braiding_labels():
    # the triples at l and l' are conjugate by a block permutation that
    # centralizes the basepoint, so the class plan keeps only l = n // 2
    for n in (5, 7):
        cls = UnmixedClass(2, n)
        plans = [subrack_plan(triple_subrack(cls, l))
                 for l in range(1, n // 2 + 1)]
        for spec in enumerate_irreps(2, n):
            character = spec.character()
            first = _braiding(plans[-1], character)
            for plan in plans[:-1]:
                assert _braiding(plan, character) == first, spec.label()
    kept = [(plan.subrack.kind, plan.subrack.param)
            for plan in class_plan(2, 7).plans()]
    assert kept == [("canonical-triple", (3,))]


def test_verify_witness_rejects_an_element_outside_the_class():
    # a witness whose subrack holds a 3-cycle fails the subrack's own check
    k, n, rep = 2, 3, "chi=(1,1,1);mu=standard"
    genuine = decide(k, n, rep)
    assert genuine.rule == "cartan-infinite"
    images = [list(img) for img in genuine.witness["element_images"]]
    images[1] = [2, 3, 1, 4, 5, 6]
    edited = genuine._replace(
        witness=dict(genuine.witness, element_images=images))
    with pytest.raises(ValueError, match="outside the class"):
        verify_witness(k, n, rep, edited)



@pytest.mark.parametrize("one", [1.0, True])
def test_verify_witness_rejects_image_entries_that_are_not_int(one):
    # 1.0 and True equal 1 and hash like it, so a subrack cache keyed by
    # the images would take them for 1: the genuine witness fills it first
    genuine = decide(*GENUINE)
    assert verify_witness(*GENUINE, genuine)
    for field in ("element_images", "transporter_images"):
        images = [[one if y == 1 else y for y in img]
                  for img in genuine.witness[field]]
        forged = genuine._replace(witness=dict(genuine.witness,
                                               **{field: images}))
        with pytest.raises(ValueError, match="bijection"):
            verify_witness(*GENUINE, forged)


def test_verify_witness_rejects_images_and_a_param_that_are_no_lists():
    # ValueError naming the field, not TypeError
    genuine = decide(*GENUINE)
    for field in ("element_images", "transporter_images"):
        forged = genuine._replace(witness=dict(genuine.witness, **{field: 5}))
        with pytest.raises(ValueError, match=field):
            verify_witness(*GENUINE, forged)
    # nor may a param entry be anything but an int: True and 1.0 would
    # rebuild the genuine member, whose param [1] they equal
    for param in (5, [True], [1.0], [[1]]):
        subrack = dict(genuine.witness["subrack"], param=param)
        forged = genuine._replace(witness=dict(genuine.witness,
                                               subrack=subrack))
        with pytest.raises(ValueError, match="param"):
            verify_witness(*GENUINE, forged)


def test_verify_witness_refuses_a_param_that_is_no_list():
    # a dict, set or tuple of the genuine param's entries is refused as the
    # docstring says, not compared with the description and found false
    row = (4, 2, "chi=(2,0);mu=trivial")
    genuine = decide(*row)
    assert genuine.witness["subrack"] == dict(genuine.witness["subrack"],
                                              kind="quadruple-swap",
                                              param=[1, 2])
    for param in ({1: 0, 2: 0}, {1, 2}, (1, 2)):
        subrack = dict(genuine.witness["subrack"], param=param)
        with pytest.raises(ValueError, match="param must be a list of int"):
            verify_witness(*row, _with(genuine, subrack=subrack))
    assert verify_witness(*row, genuine)


def test_verify_witness_rejects_records_that_are_no_dicts_and_a_kind_that_is_no_str():
    # ValueError naming the field, not TypeError; a string subrack holds
    # "kind" and "param" as substrings, not as fields
    genuine = decide(*GENUINE)
    for witness in (5, None):
        with pytest.raises(ValueError, match="witness must be a dict"):
            verify_witness(*GENUINE, genuine._replace(witness=witness))
    for subrack in (5, None, "kind param"):
        forged = genuine._replace(witness=dict(genuine.witness,
                                               subrack=subrack))
        with pytest.raises(ValueError, match="subrack must be a dict"):
            verify_witness(*GENUINE, forged)
    for kind in (["canonical-triple"], 5, None):
        subrack = dict(genuine.witness["subrack"], kind=kind)
        forged = genuine._replace(witness=dict(genuine.witness,
                                               subrack=subrack))
        with pytest.raises(ValueError, match="kind must be a str"):
            verify_witness(*GENUINE, forged)
    assert verify_witness(*GENUINE, genuine)


def test_a_rule_and_a_representation_spec_of_the_wrong_type_are_refused():
    # ValueError naming the field, not TypeError from hashing the rule or
    # AttributeError from splitting the spec; decide and closed_form_verdict
    # resolve the spec the same way
    genuine = decide(*GENUINE)
    for rule in (["cartan-infinite"], {"cartan-infinite": 1}, 5):
        with pytest.raises(ValueError, match="rule must be a str"):
            verify_witness(*GENUINE, genuine._replace(rule=rule))
    k, n, _ = GENUINE
    for spec in (None, 5, ["chi=(1,1,1);mu=standard"]):
        for check in (decide, closed_form_verdict):
            with pytest.raises(ValueError, match="rho_spec must be"):
                check(k, n, spec)
        with pytest.raises(ValueError, match="rho_spec must be"):
            verify_witness(k, n, spec, genuine)
    assert verify_witness(*GENUINE, genuine)


# malformed index lists: each forgery of the genuine (2,3) witness reads a
# vertex twice or through a negative index, and each is refused

GENUINE = (2, 3, "chi=(1,1,1);mu=standard")


def _forged(rule="cartan-infinite", **fields):
    genuine = decide(*GENUINE)
    assert genuine.rule == "cartan-infinite"
    assert verify_witness(*GENUINE, genuine)
    return genuine._replace(rule=rule, witness=dict(genuine.witness, **fields))


def test_verify_witness_rejects_a_repeated_firing_vertex():
    # {0, 3, 4} is the finite path A3; listing 3 twice makes it the affine
    # A3 4-cycle 0 - 3 - 4 - 3 - 0
    forged = _forged(firing=[0, 3, 4, 3],
                     cartan_matrix=[[2, -1, 0, -1], [-1, 2, -1, 0],
                                    [0, -1, 2, -1], [-1, 0, -1, 2]])
    with pytest.raises(ValueError, match="distinct vertex positions"):
        verify_witness(*GENUINE, forged)


def test_verify_witness_rejects_a_cycle_that_is_one_edge():
    # 0 - 3 - 0 - 3 alternates -1, -1 around a single edge
    forged = _forged(rule="alternating-cycle", cycle=[0, 3, 0, 3],
                     cycle_labels=["-1"] * 4)
    with pytest.raises(ValueError, match="distinct vertex positions"):
        verify_witness(*GENUINE, forged)


def test_verify_witness_rejects_negative_firing_indices():
    # shifted by -len(vertices), each index still names its vertex in Python
    witness = decide(*GENUINE).witness
    size = len(witness["vertices"])
    forged = _forged(firing=[x - size for x in witness["firing"]])
    with pytest.raises(ValueError, match="distinct vertex positions"):
        verify_witness(*GENUINE, forged)


@pytest.mark.parametrize("fake", [0.0, False, "0"])
def test_verify_witness_rejects_positions_that_are_not_int(fake):
    # 0.0 and False equal 0 and hash like it, so the rectangle and position
    # checks alone take them for 0, and a bool indexes like 0 or 1; only
    # the type tells them from a genuine position
    witness = decide(*GENUINE).witness
    vertices = witness["vertices"]
    firing = witness["firing"]
    forgeries = [
        _forged(vertices=[[fake, 0]] + vertices[1:]),
        _forged(vertices=[[0, fake]] + vertices[1:]),
        _forged(firing=[fake] + firing[1:]),
        _forged(rule="alternating-cycle", cycle=[fake, 1, 2, 3],
                cycle_labels=["-1"] * 4),
    ]
    for forged in forgeries:
        with pytest.raises(ValueError, match="must be integers"):
            verify_witness(*GENUINE, forged)


def test_verify_witness_rejects_index_lists_and_vertices_of_the_wrong_shape():
    # a firing or cycle that is no list, and a vertex that is no pair, are
    # malformed witnesses: ValueError, not an error of the reading itself
    witness = decide(*GENUINE).witness
    vertices = witness["vertices"]
    forgeries = [
        _forged(firing=5),
        _forged(firing=tuple(witness["firing"])),
        _forged(rule="alternating-cycle", cycle=5, cycle_labels=["-1"] * 4),
        _forged(vertices=[5] + vertices[1:]),
        _forged(vertices=[vertices[0] + [0]] + vertices[1:]),
        _forged(vertices=5),
    ]
    for forged in forgeries:
        with pytest.raises(ValueError, match="list of pairs"):
            verify_witness(*GENUINE, forged)


def test_verify_witness_compares_recorded_numbers_by_type():
    # a float or bool equals its int, but is not what the decision records
    witness = decide(*GENUINE).witness
    floats = [[float(x) for x in row] for row in witness["cartan_matrix"]]
    bools = [[x if x else False for x in row]
             for row in witness["cartan_matrix"]]
    assert floats == bools == witness["cartan_matrix"]
    for cartan in (floats, bools):
        assert not verify_witness(*GENUINE, _forged(cartan_matrix=cartan))
    spec = enumerate_irreps(3, 1)[0]
    gate = decide(3, 1, spec)
    assert gate.rule == "scalar-gate" and gate.witness["element_order"] == 3
    assert verify_witness(3, 1, spec, gate)
    forged = gate._replace(witness=dict(gate.witness, element_order=3.0))
    assert not verify_witness(3, 1, spec, forged)


def test_verify_witness_reads_the_subrack_description():
    # the printed elements and transporters must describe the subrack
    # rebuilt from the images (the first forgery also renames the kind);
    # the genuine description passes a JSON round trip
    genuine = decide(*GENUINE)
    sent = json.loads(json.dumps(genuine.witness))
    assert verify_witness(*GENUINE, genuine._replace(witness=sent))
    subrack = dict(genuine.witness["subrack"], kind="quadruple-swap")
    subrack["elements"] = ["()"] * len(subrack["elements"])
    assert not verify_witness(*GENUINE, _forged(subrack=subrack))
    transporters = genuine.witness["subrack"]["transporters"][::-1]
    edited = dict(genuine.witness["subrack"], transporters=transporters)
    assert not verify_witness(*GENUINE, _forged(subrack=edited))


def test_verify_witness_rejects_repeated_vertices_and_short_cycles():
    vertices = decide(*GENUINE).witness["vertices"]
    forged = _forged(vertices=vertices[:-1] + vertices[:1])
    with pytest.raises(ValueError, match="repeated"):
        verify_witness(*GENUINE, forged)
    forged = _forged(rule="alternating-cycle", cycle=[0, 3, 4],
                     cycle_labels=["-1"] * 3)
    with pytest.raises(ValueError, match="four vertices"):
        verify_witness(*GENUINE, forged)


@pytest.mark.parametrize("k,n,rep,rule,field", [
    (6, 3, "chi=(5,5,5);mu=trivial", "alternating-cycle", "cycle"),
    (2, 3, "chi=(1,1,1);mu=standard", "cartan-infinite", "firing"),
    (2, 3, "chi=(1,1,0);mu=trivial", "scalar-gate", "q_scalar"),
])
def test_verify_witness_rejects_a_witness_that_lacks_a_field(k, n, rep, rule,
                                                              field):
    # a witness that lacks a field its rule reads is malformed: ValueError
    # naming the field, not KeyError; so is a subrack without its kind or
    # param.  A field the rule does not read may go
    genuine = decide(k, n, rep)
    assert genuine.rule == rule
    sent = json.loads(json.dumps(genuine.witness))
    assert verify_witness(k, n, rep, genuine._replace(witness=sent))
    edited = dict(sent)
    del edited[field]
    with pytest.raises(ValueError, match="lacks the field %s$" % field):
        verify_witness(k, n, rep, genuine._replace(witness=edited))
    for key in sent:
        edited = dict(sent)
        del edited[key]
        try:
            verify_witness(k, n, rep, genuine._replace(witness=edited))
        except ValueError as exc:
            assert "lacks the field %s" % key in str(exc)
    if "subrack" in sent:
        for key in ("kind", "param"):
            subrack = dict(sent["subrack"])
            del subrack[key]
            with pytest.raises(ValueError, match="lacks the field %s$" % key):
                verify_witness(k, n, rep, genuine._replace(
                    witness=dict(sent, subrack=subrack)))


# the witness check reads the witness's own group H_w, never the decision's
# spectrum: a fault there that decide cannot see is caught, and each new
# reading of the witness refuses its own forgery

def _shifted_spectrum(planned_spectrum):
    # one unit of multiplicity moved from the second joint character to the
    # first: the multiplicities still add up to the degree
    def mutant(plan, character):
        spectrum = planned_spectrum(plan, character)
        if len(spectrum) < 2:
            return spectrum
        (first, m0), (second, m1) = spectrum[:2]
        return ([(first, m0 + 1)] + [(second, m1 - 1)] * (m1 > 1)
                + spectrum[2:])
    return mutant


def test_verify_witness_catches_a_shifted_multiplicity(monkeypatch, request):
    # (4,5) is beyond the reach of the dense oracle; the class plans start
    # cold, so that the mutant decides, and the verdicts it kept in them
    # are dropped at the end
    class_plan.cache_clear()
    request.addfinalizer(class_plan.cache_clear)
    monkeypatch.setattr(nichols.braidspace, "planned_spectrum",
                        _shifted_spectrum(nichols.braidspace.planned_spectrum))
    for k, n, rep in ((4, 5, "chi=(2,0,0,0,0);mu=trivial"),
                      (4, 4, "chi=(3,3,3,1);mu=trivial")):
        verdict = decide(k, n, rep)
        assert verdict.outcome == INFINITE and verdict.rule == "cartan-infinite"
        assert not verify_witness(k, n, rep, verdict), (k, n, rep)


def test_verify_witness_plans_no_subrack_and_no_spectrum(monkeypatch):
    witnesses = []
    for k, n in ((2, 4), (4, 3), (6, 2)):
        for spec in enumerate_irreps(k, n):
            verdict = decide(k, n, spec)
            if verdict.outcome == INFINITE:
                witnesses.append((k, n, spec, verdict))

    def refuse(*args, **kwargs):
        raise AssertionError("the witness check used the decision's spectrum")
    for module in (nichols.braidspace, nichols.verdict):
        for name in ("subrack_plan", "spectrum_plan", "planned_spectrum",
                     "spectrum_diagram", "dynkin_diagram"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert sum(v.rule != "scalar-gate" for *_, v in witnesses) == 17
    for k, n, spec, verdict in witnesses:
        assert verify_witness(k, n, spec, verdict), (k, n, spec.label())


QUADRUPLE = (4, 4, "chi=(3,3,3,1);mu=trivial")


def _quadruple_witness():
    # four columns of the swap quadruple, two eigenvector indices
    verdict = decide(*QUADRUPLE)
    assert verdict.rule == "cartan-infinite"
    w = verdict.witness
    assert w["subrack"]["kind"] == "quadruple-swap"
    assert w["vertices"] == [[j, s] for j in range(4) for s in (0, 1)]
    assert verify_witness(*QUADRUPLE, verdict)
    return verdict


def _with(verdict, **fields):
    return verdict._replace(witness=dict(verdict.witness, **fields))


def test_verify_witness_refuses_vertices_that_are_no_rectangle():
    verdict = _quadruple_witness()
    vertices = verdict.witness["vertices"]
    with pytest.raises(ValueError, match="rectangle"):
        verify_witness(*QUADRUPLE, _with(verdict, vertices=vertices[:-1]))
    # s = 1 renamed to the degree, 4, and s = 0 or column 0 renamed to -1:
    # each still a rectangle in order
    assert parse_rep_spec(*QUADRUPLE).degree() == 4
    assert {s for _, s in vertices} == {0, 1}
    assert {j for j, _ in vertices} == {0, 1, 2, 3}
    for moved in ([[j, 4 if s == 1 else s] for j, s in vertices],
                  [[j, -1 if s == 0 else s] for j, s in vertices],
                  [[-1 if j == 0 else j, s] for j, s in vertices]):
        with pytest.raises(ValueError, match="degree"):
            verify_witness(*QUADRUPLE, _with(verdict, vertices=moved))


class _ListSubclass(list):
    """A list by isinstance, though not of type list."""


def _edited(draw, value):
    # one edit of a list: a tuple or a list subclass of it, one entry
    # short or long, two entries swapped, or one entry replaced by a
    # position, a bool, a float or a str; anything else becomes 5
    action = draw(st.sampled_from(("tuple", "subclass", "short", "long",
                                   "swap", "entry", "entry", "scalar")))
    if not isinstance(value, list) or action == "scalar":
        return 5
    value = list(value)
    if action == "tuple":
        return tuple(value)
    if action == "subclass":
        return _ListSubclass(value)
    if action == "short":
        return value[:-1]
    if action == "long":
        return value + value[-1:] if value else [0]
    if value:
        a = draw(st.integers(0, len(value) - 1))
        if action == "swap":
            b = draw(st.integers(0, len(value) - 1))
            value[a], value[b] = value[b], value[a]
        else:
            value[a] = draw(st.sampled_from(
                (True, False, 1.0, "0", "1", None, -1, 0, 1, 5)))
    return value


@st.composite
def _shape_forgeries(draw):
    # the vertices, firing and cycle of a witness on a rectangle of
    # columns x indices, and its q_matrix, with up to four edits of one of
    # those lists or of one vertex or row in them
    cols, vecs = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    vertices = [[j, s] for j in range(cols) for s in range(vecs)]
    size = len(vertices)
    w = {"vertices": vertices, "firing": list(range(min(size, 3)))}
    if draw(st.booleans()):
        w["cycle"] = list(range(min(size, 4)))
    w["q_matrix"] = [["1"] * size for _ in range(size)]
    for _ in range(draw(st.integers(0, 4))):
        where = draw(st.sampled_from(("vertices", "vertex", "firing", "cycle",
                                      "q_matrix", "row")))
        if where in w:
            w[where] = _edited(draw, w[where])
            continue
        outer = w["vertices" if where == "vertex" else "q_matrix"]
        if isinstance(outer, list) and outer:
            at = draw(st.integers(0, len(outer) - 1))
            outer[at] = _edited(draw, outer[at])
    return w, size


def _outcome(check, *args):
    # what a check returns, or the type and message of what it raised
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


_GENUINE_SHAPE = {"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]],
                  "firing": [0, 1, 2], "cycle": [0, 1, 2, 3],
                  "q_matrix": [["1"] * 4 for _ in range(4)]}


@settings(max_examples=1000, deadline=None)
@given(_shape_forgeries(), st.integers(0, 5), st.integers(0, 4),
       st.integers(-1, 1))
@example((dict(_GENUINE_SHAPE), 4), 2, 2, 0)
@example((dict(_GENUINE_SHAPE, vertices=[(0, 0), (0, 1), (1, 0), (1, 1)]), 4),
         2, 2, 0)
@example((dict(_GENUINE_SHAPE, firing=(0, 1, 2), cycle=[True, 1, 2, 3]), 4),
         2, 2, 0)
@example((dict(_GENUINE_SHAPE, vertices=[[0, 0], [0, 1.0], [1, 0], [1, "0"]],
               q_matrix=[["1"] * 4, ["1"] * 3, ["1"] * 4, ["1"] * 4]), 4),
         2, 2, 0)
@example((dict(_GENUINE_SHAPE, vertices=_ListSubclass(
    [[0, 0], [0, 1], _ListSubclass([1, 0]), [1, 1]]),
    cycle=_ListSubclass([0, 1, 2, 3]), q_matrix=_ListSubclass(
        [["1"] * 4, _ListSubclass(["1"] * 4), ("1",) * 4, ["1"] * 4])), 4),
         2, 2, 0)
def test_the_witness_scans_refuse_what_the_entry_checks_refuse(
        case, width, degree, extra):
    # one scan of each list refuses exactly what the checks entry by entry
    # (tests/oracles.py) refuse, with the same exception and message, reads
    # the same rectangle, and takes the same q_matrix shapes; a list
    # subclass is a list to both
    w, size = case
    assert _outcome(_rectangle, w, width, degree) == _outcome(
        witness_rectangle, w, width, degree), w
    assert _is_table(w["q_matrix"], size + extra) == is_witness_table(
        w["q_matrix"], size + extra), w["q_matrix"]


def test_verify_witness_refuses_an_entry_not_in_lowest_terms():
    verdict = _quadruple_witness()
    q_matrix = [row[:] for row in verdict.witness["q_matrix"]]
    assert q_matrix[0][0] == "-1"
    q_matrix[0][0] = "z(4,2)"
    assert not verify_witness(*QUADRUPLE, _with(verdict, q_matrix=q_matrix))
    # the genuine values, but not as the list of lists a witness prints
    genuine = verdict.witness["q_matrix"]
    for rows in (tuple(genuine), [tuple(row) for row in genuine]):
        assert not verify_witness(*QUADRUPLE, _with(verdict, q_matrix=rows))


def test_verify_witness_refuses_a_column_whose_rows_disagree():
    # psi_s(gamma_ij) is read off every row vertex (i, r): here (0, 1)
    # disagrees with (0, 0) in the column of vertex (1, 0)
    verdict = _quadruple_witness()
    q_matrix = [row[:] for row in verdict.witness["q_matrix"]]
    q_matrix[1][2] = str(_root(q_matrix[1][2]) * ROOT_MINUS_ONE)
    assert q_matrix[0][2] != q_matrix[1][2]
    assert not verify_witness(*QUADRUPLE, _with(verdict, q_matrix=q_matrix))


def test_verify_witness_refuses_a_psi_that_breaks_a_relation_of_h():
    # psi_1 is negated at every entry gamma_ij that equals gamma, a table
    # entry other than the basepoint that the other entries generate: it
    # reads consistently entry by entry, the rule still fires with the
    # recorded Cartan matrix, and chi summed against the values it takes
    # along a spanning tree of H_w is still a large enough integer, but it
    # is no character of H_w
    verdict = _quadruple_witness()
    w = verdict.witness
    cls = UnmixedClass(4, 4)
    subrack = AbelianSubrack(
        cls, [Permutation(img) for img in w["element_images"]],
        [Permutation(img) for img in w["transporter_images"]])
    table = {(i, j): gamma(subrack, i, j) for i in range(4) for j in range(4)}
    entries = list(dict.fromkeys(table.values()))

    def generated(gens):
        group = [Permutation.identity(cls.degree)]
        for h in group:
            group.extend(x for x in (g * h for g in gens) if x not in group)
        return group
    target = next(g for g in entries if g != cls.basepoint
                  and g in generated([h for h in entries if h != g]))
    q_matrix = [row[:] for row in w["q_matrix"]]
    for (i, j), g in table.items():
        if g == target:
            for r in (0, 1):
                flipped = _root(q_matrix[2 * i + r][2 * j + 1]) * ROOT_MINUS_ONE
                q_matrix[2 * i + r][2 * j + 1] = str(flipped)
    firing = w["firing"]
    q = [[_exponent(_root(x), 4) for x in row] for row in q_matrix]
    assert _cartan_infinite([[q[a][b] for b in firing] for a in firing], 4) \
        == w["cartan_matrix"]
    assert not verify_witness(*QUADRUPLE, _with(verdict, q_matrix=q_matrix))


def _times_pi(k: int, labels: Counter) -> Counter:
    # the labels of r pi^e for every r counted and every e < k: pi^e adds e
    # to every twist, so a b-cycle (L, s) of r becomes (L, s + e L)
    out = Counter()
    for label, m in labels.items():
        for e in range(k):
            out[tuple(sorted((length, (s + e * length) % k)
                             for length, s in label))] += m
    return out


def test_the_normal_form_closures_match_the_permutation_closures():
    # H of spectrum_plan and H_w of _witness_reading close on the normal
    # forms of the coset representatives of <pi>; the reference closes
    # all of H on permutations of the k*n points.  Every tried subrack,
    # and every set of its columns, gives the same generator places, k
    # times as many elements, and the labels, read through the trivial
    # psi, of r pi^e over every representative r and every e; and H the
    # same plan: the same layers after pi and places of the generators,
    # and the labels of the representatives those of every k-th element
    # of the reference, in the same order.  The reference's lcm of k and
    # the entries' orders is k: every label is a power of zeta_k
    compared = 0
    for k, n in ((2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3), (4, 4),
                 (6, 2), (6, 3), (8, 2)):
        cls = UnmixedClass(k, n)
        for subrack in tried_subracks(cls):
            for r in range(1, subrack.size + 1):
                for cols in itertools.combinations(range(subrack.size), r):
                    generator, _, _ = \
                        nichols.witness._witness_columns(subrack, cols)
                    reading = nichols.witness._witness_reading(
                        subrack, cols, 1, (("1",) * r,) * r)
                    (counts,) = reading.phases
                    labels = Counter()
                    for x, _, m in counts:
                        labels[reading.labels[x]] += m
                    expected = permutation_witness_group(subrack, cols)
                    assert (generator, k, k * reading.order,
                            _times_pi(k, labels)) == (
                        expected[0], expected[1], len(expected[2]),
                        Counter(expected[3])), (k, n, subrack, cols)
                    entries = list(dict.fromkeys(
                        gamma(subrack, i, j) for i in cols for j in cols))
                    assert nichols.braidspace.spectrum_plan(
                        cls, entries) == permutation_spectrum_plan(
                            cls, entries).plan(), (k, n, subrack, cols)
                    compared += 1
            plan = subrack_plan(subrack)
            assert plan.spectrum == permutation_spectrum_plan(
                cls, plan.distinct).plan()
    # 8 triples of 3 columns, and two quadruples of 4 columns per even k
    assert compared == 8 * 7 + 6 * 2 * 15


# the sums compared, one per psi used by a subrack witness, by k
COMPARED_SUMS = {2: 96, 4: 76, 6: 28, 8: 4}


def test_the_per_label_sums_match_the_per_element_sums():
    # the witness check reads chi once per distinct label of the coset
    # representatives of <pi> in H_w and weighs it by the phase counts of
    # each psi there; the reference carries each psi to every element of
    # H_w, closed on permutations, and reads chi at each in turn.  Every
    # psi used by a genuine witness has psi(pi) = zeta_k^q, so the sum over
    # each coset is k times its representative's term.  Every subrack
    # witness of these classes, every psi used
    compared = Counter()
    for k, n in ((2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3), (4, 4),
                 (6, 2), (6, 3), (8, 2)):
        for spec in enumerate_irreps(k, n):
            verdict = decide(k, n, spec)
            if verdict.rule not in ("cartan-infinite", "alternating-cycle"):
                continue
            w = verdict.witness
            subrack, _ = nichols.witness._witness_subrack(
                k, n, tuple(map(tuple, w["element_images"])),
                tuple(map(tuple, w["transporter_images"])),
                w["subrack"]["kind"], tuple(w["subrack"]["param"]))
            cols = tuple(sorted({j for j, _ in w["vertices"]}))
            width = len(w["vertices"]) // len(cols)
            reading = nichols.witness._witness_reading(
                subrack, cols, width, tuple(map(tuple, w["q_matrix"])))
            character = spec.character()
            sums = list(nichols.witness._character_sums(reading, character))
            assert None not in sums
            # the check sums in integers over the representatives, and k
            # times that is the reference's sum over every element
            assert [k * x for x in sums] == per_element_sums(
                subrack, cols, tuple(psi for psi, _ in reading.used),
                character), (k, n, spec.label())
            compared[k] += len(sums)
    assert compared == COMPARED_SUMS


def test_verify_witness_rebuilds_the_family_its_kind_names():
    # kind and param must name the family that has the rebuilt elements
    # and transporters: the canonical subrack takes no index, and a custom
    # subrack is no family; each family's genuine witness passes a JSON
    # round trip
    genuine = decide(*GENUINE)
    for kind, param in (("canonical", [1]), ("custom", [1]),
                        ("quadruple-swap", [1, 2]), ("canonical-triple", [2])):
        subrack = dict(genuine.witness["subrack"], kind=kind, param=param)
        assert not verify_witness(*GENUINE, _forged(subrack=subrack)), kind
    # the swap quadruple's default indices rebuild the genuine member, whose
    # param is then (1, 2)
    quadruple = decide(*QUADRUPLE)
    for param in ([], [1]):
        subrack = dict(quadruple.witness["subrack"], param=param)
        assert not verify_witness(*QUADRUPLE, _with(quadruple, subrack=subrack))
    for k, n, rep, kind in ((*GENUINE, "canonical-triple"),
                            (*QUADRUPLE, "quadruple-swap"),
                            (4, 4, "chi=(3,2,1,0);mu=trivial",
                             "quadruple-rotation")):
        verdict = decide(k, n, rep)
        assert verdict.witness["subrack"]["kind"] == kind
        sent = json.loads(json.dumps(verdict.witness))
        assert verify_witness(k, n, rep, verdict._replace(witness=sent)), kind


def test_a_forged_canonical_witness_builds_no_canonical_member(monkeypatch):
    # the canonical member has 3^(n//2) elements, 59,049 at (2,20), and is
    # built only for a witness that records as many; a triple relabelled
    # canonical is refused without it
    def refuse(*args):
        raise AssertionError("the canonical member was built")
    verdict = decide(2, 20, "chi=2:1")
    assert len(verdict.witness["element_images"]) == 3
    forged = _with(verdict, subrack=dict(verdict.witness["subrack"],
                                         kind="canonical", param=[]))
    nichols.witness._witness_subrack.cache_clear()
    monkeypatch.setitem(nichols.braidspace.FAMILIES, "canonical", refuse)
    assert not verify_witness(2, 20, "chi=2:1", forged)
    monkeypatch.undo()
    nichols.witness._witness_subrack.cache_clear()
    # witnesses drawn from the canonical member itself still pass
    plan = subrack_plan(nichols.braidspace.canonical_subrack(UnmixedClass(2, 4)))
    drawn = [(spec, nichols.verdict._subspace_rules(plan, spec.character(), {}))
             for spec in enumerate_irreps(2, 4)
             if scalar_gate(pi_scalar(spec), 2) is None]
    assert sum(v is not None for _, v in drawn) == 6
    for spec, v in drawn:
        assert v is None or verify_witness(2, 4, spec, v), spec.label()


def _verify_or_error(verdict, row=QUADRUPLE):
    # False, True, or the ValueError raised, as text
    try:
        return verify_witness(*row, verdict)
    except ValueError as exc:
        return "ValueError: %s" % exc


CYCLE = (6, 3, "chi=(5,5,5);mu=trivial")


def test_the_named_member_serves_only_its_own_images():
    # the witness subrack is the member its kind and param name only when
    # the images are that member's own; any other images are rebuilt with
    # every check of the subrack, so each forgery below is refused alike
    # from a warm and from a cold cache, with the value or error text it
    # had when the subrack was always rebuilt from the images
    verdict = _quadruple_witness()
    w = verdict.witness
    cls = UnmixedClass(4, 4)

    def images(subrack):
        return {"element_images": [list(g.img) for g in subrack.elements],
                "transporter_images": [list(g.img)
                                       for g in subrack.transporters]}

    def swapped(field, row):
        lists = [list(img) for img in w[field]]
        lists[row][0], lists[row][1] = lists[row][1], lists[row][0]
        return {field: lists}

    order = (0, 1, 3, 2)
    forgeries = {
        # a family member's images under another kind or another param
        "rotation-images": images(rotation_subrack(cls)),
        "other-kind": {"subrack": dict(w["subrack"],
                                       kind="quadruple-rotation", param=[])},
        "other-member-images": images(quadruple_subrack(cls, 1, 3)),
        "other-param": {"subrack": dict(w["subrack"], param=[1, 3])},
        "reversed-param": {"subrack": dict(w["subrack"], param=[2, 1])},
        # one image list with two entries swapped
        "element-swap": swapped("element_images", 1),
        "transporter-swap": swapped("transporter_images", 2),
        # the entry 1 as 1.0 and as True
        "float": {"element_images": [[1.0 if y == 1 else y for y in img]
                                     for img in w["element_images"]]},
        "bool": {"transporter_images": [[True if y == 1 else y for y in img]
                                        for img in w["transporter_images"]]},
        # a bijection of every image list, and a subrack, but no member
        "reordered": {field: [w[field][x] for x in order]
                      for field in ("element_images", "transporter_images")},
    }
    forgeries = {name: _with(verdict, **fields)
                 for name, fields in forgeries.items()}
    assert verify_witness(*QUADRUPLE, verdict)
    warm = {name: [_verify_or_error(forged) for _ in range(2)]
            for name, forged in forgeries.items()}
    nichols.witness._witness_subrack.cache_clear()
    nichols.witness._witness_columns.cache_clear()
    nichols.witness._witness_reading.cache_clear()
    nichols.witness._refire.cache_clear()
    cold = {name: _verify_or_error(forged)
            for name, forged in forgeries.items()}
    assert warm == {name: [result] * 2 for name, result in cold.items()}
    assert cold == dict(
        dict.fromkeys(("rotation-images", "other-kind", "other-member-images",
                       "other-param", "reversed-param", "reordered"), False),
        **{"element-swap": "ValueError: subrack element lies outside the class",
           "transporter-swap": "ValueError: transporter does not carry the "
                               "basepoint to its element",
           "float": "ValueError: images are not a bijection of 1..N",
           "bool": "ValueError: images are not a bijection of 1..N"})
    assert verify_witness(*QUADRUPLE, verdict)


def test_a_warm_witness_cache_refuses_what_a_cold_one_refuses():
    # after the genuine witness fills the cache, each forgery of it is
    # refused as from an empty cache, an error on every call
    verdict = _quadruple_witness()
    w = verdict.witness
    images = [list(img) for img in w["element_images"]]
    images[2], images[3] = images[3], images[2]
    kept = [x for x, (j, _) in enumerate(w["vertices"]) if j]
    # the (4,2) abelian subrack whose table entries do not commute (see
    # test_braidspace), lifted to (4,4): its elements act as the basepoint,
    # and its transporters as the identity, on the last two blocks
    basepoint, identity = (10, 11, 12, 9, 14, 15, 16, 13), tuple(range(9, 17))
    forgeries = {
        "element": _with(verdict, element_images=images),
        "kind": _with(verdict, subrack=dict(w["subrack"],
                                            kind="quadruple-rotation", param=[])),
        "columns": _with(
            verdict, vertices=[w["vertices"][x] for x in kept],
            q_matrix=[[w["q_matrix"][x][y] for y in kept] for x in kept],
            firing=[kept.index(x) for x in w["firing"] if x in kept]),
        "commute": _with(
            verdict,
            element_images=[img + basepoint for img in (
                (2, 3, 4, 1, 6, 7, 8, 5), (4, 1, 2, 3, 8, 5, 6, 7),
                (6, 7, 8, 5, 2, 3, 4, 1), (8, 5, 6, 7, 4, 1, 2, 3))],
            transporter_images=[img + identity for img in (
                (1, 2, 3, 4, 5, 6, 7, 8), (1, 4, 3, 2, 5, 8, 7, 6),
                (1, 6, 3, 8, 2, 7, 4, 5), (1, 8, 3, 6, 2, 5, 4, 7))]),
    }
    # the entry 1 of the basepoint's image as 1.0 and as True
    for name, one in (("float", 1.0), ("bool", True)):
        forgeries[name] = _with(verdict, element_images=[
            [one if y == 1 else y for y in w["element_images"][0]]]
            + w["element_images"][1:])
    # each of these differs from a genuine witness only where a cache key
    # built from the recorded value would equal the genuine one: a
    # q_matrix entry that is no str, a cartan_matrix of 2.0 and False
    # (equal to 2 and 0) or of tuple rows, tuple cycle_labels, and a
    # 3-vertex cycle, on a row whose multiplicity holds and on one whose
    # multiplicity fails
    q_matrix = [row[:] for row in w["q_matrix"]]
    q_matrix[0][0] = [q_matrix[0][0]]
    cartan = w["cartan_matrix"]
    forgeries.update({
        "entry": _with(verdict, q_matrix=q_matrix),
        "float-cartan": _with(verdict, cartan_matrix=[
            [2.0 if x == 2 else x for x in row] for row in cartan]),
        "bool-cartan": _with(verdict, cartan_matrix=[
            [x if x else False for x in row] for row in cartan]),
        "tuple-cartan": _with(verdict,
                              cartan_matrix=[tuple(row) for row in cartan]),
        "short-cycle": _with(verdict._replace(rule="alternating-cycle"),
                             cycle=[0, 2, 4], cycle_labels=["-1"] * 3),
    })
    rows = dict.fromkeys(forgeries, QUADRUPLE)
    forgeries["short-cycle-failing"] = forgeries["short-cycle"]
    rows["short-cycle-failing"] = (4, 4, "chi=(3,3,3,2);mu=trivial")
    cycle = decide(*CYCLE)
    assert cycle.rule == "alternating-cycle" and verify_witness(*CYCLE, cycle)
    forgeries["tuple-labels"] = _with(
        cycle, cycle_labels=tuple(cycle.witness["cycle_labels"]))
    rows["tuple-labels"] = CYCLE
    warm = {name: [_verify_or_error(forged, rows[name]) for _ in range(2)]
            for name, forged in forgeries.items()}
    nichols.witness._witness_subrack.cache_clear()
    nichols.witness._witness_columns.cache_clear()
    nichols.witness._witness_reading.cache_clear()
    nichols.witness._refire.cache_clear()
    cold = {name: _verify_or_error(forged, rows[name])
            for name, forged in forgeries.items()}
    assert warm == {name: [result] * 2 for name, result in cold.items()}
    assert cold["element"].startswith("ValueError: transporter")
    assert cold["float"] == cold["bool"] == \
        "ValueError: images are not a bijection of 1..N"
    assert cold["kind"] is cold["columns"] is cold["commute"] is False
    assert all(cold[name] is False for name in (
        "entry", "float-cartan", "bool-cartan", "tuple-cartan",
        "short-cycle-failing", "tuple-labels"))
    assert cold["short-cycle"] == \
        "ValueError: an alternating cycle has four vertices"
    assert verify_witness(*QUADRUPLE, verdict)
    assert verify_witness(*CYCLE, cycle)


def _columns_of(k: int, n: int, verdict) -> tuple:
    # the subrack the check builds for a witness, and its columns
    w = verdict.witness
    subrack, _ = nichols.witness._witness_subrack(
        k, n, tuple(map(tuple, w["element_images"])),
        tuple(map(tuple, w["transporter_images"])),
        w["subrack"]["kind"], tuple(w["subrack"]["param"]))
    return subrack, tuple(sorted({j for j, _ in w["vertices"]}))


def _reading_of(k: int, n: int, verdict):
    # the check's reading of a witness's q_matrix on its own columns
    subrack, cols = _columns_of(k, n, verdict)
    vertices = verdict.witness["vertices"]
    return nichols.witness._witness_reading(
        subrack, cols, len(vertices) // len(cols),
        tuple(map(tuple, verdict.witness["q_matrix"])))


@pytest.mark.parametrize("row,other", [
    (GENUINE, "chi=(1,1,0);mu=trivial"),
    (QUADRUPLE, "chi=(3,3,3,2);mu=trivial"),
    (CYCLE, "chi=(5,5,4);mu=trivial")])
def test_verify_witness_refuses_a_psi_whose_value_at_pi_is_not_the_scalar(
        row, other):
    # a genuine witness, checked for another row of its class: each psi_s
    # is a character of H_w, consistent on every edge, and the rule fires
    # on its diagonal of -1 = psi_s(pi), but pi acts on the other rho by
    # zeta_k^q, not -1, so no such psi occurs in chi|H_w, whatever the sum
    # over the coset representatives alone gives
    k, n, _ = row
    verdict = decide(*row)
    reading = _reading_of(k, n, verdict)
    assert {psi[reading.basepoint] for psi, _ in reading.used} == {k // 2}
    assert 2 * pi_scalar(parse_rep_spec(k, n, other)) != k
    assert parse_rep_spec(k, n, other).degree() > max(
        s for _, s in verdict.witness["vertices"])
    assert not verify_witness(k, n, other, verdict)


def test_a_psi_whose_value_at_pi_has_no_kth_power_one_is_refused():
    # every table entry is a conjugate of a class element, of order k, so
    # every entry of a q_matrix is read as a power of zeta_k.  On one
    # column, H_w = <pi> has one coset and no edge to check: -1 is read as
    # the exponent 1 of zeta_2, and z(4,1), a psi(pi) that is no character
    # of <pi>, is refused at the lookup of its entry
    row = (2, 3, "chi=(1,0,0);mu=sign")
    verdict = decide(*row)
    assert verdict.rule == "cartan-infinite" and verify_witness(*row, verdict)
    subrack, _ = _columns_of(2, 3, verdict)
    reading = nichols.witness._witness_reading(subrack, (0,), 1, (("-1",),))
    assert (reading.order, reading.used) == (1, (((1,), 1),))
    assert nichols.witness._witness_reading(
        subrack, (0,), 1, (("z(4,1)",),)) is None


def test_the_check_multiplies_each_coset_representative_once_per_entry(
        monkeypatch):
    # on a (4,4) rotation-quadruple witness, H_w is closed on its |H_w|/k
    # coset representatives of <pi>, each multiplied by each distinct
    # table entry at most once
    row = (4, 4, "chi=(3,3,2,2);mu=trivial")
    verdict = decide(*row)
    assert verdict.witness["subrack"]["kind"] == "quadruple-rotation"
    subrack, cols = _columns_of(4, 4, verdict)
    _, entries, _ = nichols.witness._witness_columns(subrack, cols)
    order = len(permutation_witness_group(subrack, cols)[2])
    calls = []
    product = UnmixedClass.product

    def counted(self, g, h):
        calls.append(1)
        return product(self, g, h)
    monkeypatch.setattr(UnmixedClass, "product", counted)
    nichols.witness._witness_reading.cache_clear()
    assert verify_witness(*row, verdict)
    assert 0 < len(calls) <= order // 4 * len(entries), (len(calls), order)
