import random
import time

import pytest

from nichols.braidspace import diagonal_subspace, dynkin_diagram, rotation_subrack
from nichols.exactfield import ROOT_MINUS_ONE, ROOT_ONE, RootOfUnity
from nichols.permgroup import UnmixedClass
from nichols.reps import enumerate_irreps, parse_rep_spec, pi_scalar
from nichols.verdict import (CartanData, INFINITE, NEGATIVE, NotCartan,
                             cartan_type, closed_form_verdict, cycle_rule,
                             decide, diagram_label, finite_type,
                             negativity_check, scalar_gate, symmetrizable,
                             verify_witness)

from oracles import (REFERENCE_Q_SIX_CYCLE, cataloged, finite_catalog,
                     finite_type_lookup, negativity_full, negativity_walk,
                     random_symmetrizable_gcm, resolve)

_SYMBOLS = {"1": ROOT_ONE, "-1": ROOT_MINUS_ONE}


def _sign_matrix(rows):
    return tuple(tuple(_SYMBOLS[x] for x in row) for row in rows)


def _gcm(rows) -> CartanData:
    matrix = tuple(tuple(r) for r in rows)
    return CartanData(matrix, (2,) * len(matrix))


def test_scalar_gate():
    assert scalar_gate(ROOT_MINUS_ONE, 2) is None
    odd = scalar_gate(ROOT_MINUS_ONE, 3)
    assert odd is not None and odd.outcome == INFINITE
    assert odd.rule == "scalar-gate"
    assert odd.witness["reason"] == "basepoint has odd order"
    wrong = scalar_gate(ROOT_ONE, 2)
    assert wrong is not None and wrong.outcome == INFINITE
    assert wrong.witness["reason"] == "basepoint scalar is not -1"


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


def test_cycle_rule_fires_on_rotation_subrack():
    cls = UnmixedClass(6, 3)
    chi = parse_rep_spec(6, 3, "chi=(1,1,1);mu=trivial").character()
    space = diagonal_subspace(rotation_subrack(cls), chi)
    diagram = dynkin_diagram(space)
    hits = []
    for comp in diagram.components():
        sub = space.restrict(space.vertices[x] for x in comp)
        hit = cycle_rule(dynkin_diagram(sub))
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
    space = diagonal_subspace(rotation_subrack(cls), chi)
    diagram = dynkin_diagram(space)
    assert diagram.edges == ()
    assert cycle_rule(diagram) is None


def test_negativity_reduced_and_full_agree_on_negative_case():
    cls = UnmixedClass(2, 3)
    spec = parse_rep_spec(2, 3, "chi=(1,1,1);mu=trivial")
    reduced = negativity_check(cls, spec.character())
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
    reduced = negativity_check(cls, spec.character())
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
            if not cataloged(spec) or pi_scalar(spec) != ROOT_MINUS_ONE:
                continue
            report = negativity_check(cls, spec.character())
            expected = oracle(cls, resolve(spec))
            assert report.negative == expected.negative, (k, n, spec.label())
            assert (report.failure is None) == report.negative
            if oracle is negativity_walk and report.negative:
                assert report.partner_count == expected.partner_count
            compared += 1
            negative += report.negative
    assert compared > negative > 0


def test_negativity_rejects_wrong_basepoint_scalar():
    cls = UnmixedClass(2, 3)
    chi = parse_rep_spec(2, 3, "chi=(0,0,0);mu=trivial").character()
    report = negativity_check(cls, chi)
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
    # 547 rows up to degree 672.  63 s on a 2-vCPU VM, almost all of it
    # the degree-448 to degree-672 rows of (2,8); the bound allows a slower
    # machine, and fails a witness search that lists every triangle, which
    # took over 20 min on (2,8) alone
    started = time.monotonic()
    rows = verified = 0
    for k, n in ((2, 7), (4, 5), (2, 8)):
        for spec in enumerate_irreps(k, n):
            verdict = decide(k, n, spec)
            expected = closed_form_verdict(k, n, spec)
            assert verdict.outcome == expected.outcome, (k, n, spec.label())
            rows += 1
            if verdict.outcome == INFINITE:
                assert verify_witness(k, n, spec, verdict), (k, n, spec.label())
                verified += 1
    elapsed = time.monotonic() - started
    assert rows == 547
    assert elapsed < 180, elapsed
    print("%d rows match the closed form, %d witnesses verify, %.1fs"
          % (rows, verified, elapsed))


def test_undecided_reports_exhaustion(monkeypatch):
    # every braiding of an unmixed class is infinite or negative, so falling
    # through every rule is an engine defect: starved of candidate subracks,
    # a non-negative rep past the scalar gate raises instead of abstaining
    import nichols.verdict as v

    monkeypatch.setattr(v, "closed_form_verdict", None, raising=True)
    monkeypatch.setattr(v, "candidate_subracks", lambda cls: iter(()))
    with pytest.raises(RuntimeError, match="no rule decides"):
        v.decide(2, 3, "chi=(1,1,1);mu=standard")
