"""End-to-end checks, one test per shipped guarantee.

Run with -v to get one pass/fail line per criterion; -s adds the
measured counts behind each one.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import nichols
from nichols.permgroup import Permutation, UnmixedClass
from nichols.reps import enumerate_irreps, parse_rep_spec
from nichols.verdict import (INFINITE, NEGATIVE, closed_form_verdict, decide,
                             verify_witness)

from oracles import (REFERENCE_Q_SIX_CYCLE, CartanData, cataloged,
                     centralizer_elements, class_size, conjugate, finite_type,
                     finite_type_lookup, negativity_full,
                     q_matches_up_to_permutation, random_symmetrizable_gcm,
                     resolve, transporter)

PACKAGE_ROOT = str(pathlib.Path(nichols.__file__).resolve().parents[1])


def _grid(limit: int = 10):
    for k in range(2, limit + 1):
        for n in range(1, limit // k + 1):
            yield k, n


def run_cli(*argv):
    # the child imports the package these tests import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "nichols.cli"] + list(argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _table(k: int, n: int, *extra) -> list:
    result = run_cli("table", "--k", str(k), "--n", str(n),
                     "--format", "json", *extra)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)["rows"]


def test_criterion_1_grid_matches_closed_form_oracle():
    started = time.monotonic()
    decided = 0
    for k, n in _grid():
        for spec in enumerate_irreps(k, n):
            verdict = decide(k, n, spec)
            assert verdict.outcome in (INFINITE, NEGATIVE), (k, n, spec.label())
            expected = closed_form_verdict(k, n, spec)
            assert verdict.outcome == expected.outcome, (k, n, spec.label())
            decided += 1
    assert decided == 190
    print("criterion 1: all %d reps decided and matching the closed-form "
          "oracle, %.1fs" % (decided, time.monotonic() - started))


def test_criterion_2_table_k2_n3_rows_and_witnesses():
    rows = {row["rep"]: row for row in _table(2, 3)}
    assert len(rows) == 10
    negatives = {rep for rep, row in rows.items()
                 if row["outcome"] == NEGATIVE}
    assert negatives == {"chi=(1,1,1);mu=trivial", "chi=(1,1,1);mu=sign"}
    assert all(row["outcome"] == INFINITE for rep, row in rows.items()
               if rep not in negatives)
    theta = rows["chi=(1,1,1);mu=standard"]
    assert theta["rule"] == "cartan-infinite"
    assert theta["witness"]["label"] == "A5(1)"
    assert [len(c) for c in theta["witness"]["components"]] == [6]
    for rep in ("chi=(1,0,0);mu=trivial", "chi=(1,0,0);mu=sign"):
        witness = rows[rep]["witness"]
        assert witness["label"] == "A2(1)"
        assert len(witness["firing"]) == 3
    print("criterion 2: 10 rows, 2 negative, 6-cycle and triangle witnesses")


def test_criterion_3_table_k2_n4_disjoint_triangles():
    started = time.monotonic()
    rows = {row["rep"]: row for row in _table(2, 4)}
    assert len(rows) == 20
    assert all(row["outcome"] == INFINITE for row in rows.values())
    for rep in ("chi=(1,0,0,0);mu=standard", "chi=(1,1,1,0);mu=standard"):
        witness = rows[rep]["witness"]
        assert witness["components"] == [[0, 3, 5], [1, 2, 4]]
        assert witness["label"] == "A2(1)"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print("criterion 3: 20 infinite rows, twin triangle components, %.1fs"
          % elapsed)


def test_criterion_4_k2_n5_negative_pairs_and_six_cycle():
    started = time.monotonic()
    cls = UnmixedClass(2, 5)
    assert class_size(cls.cycle_type()) == 945
    for mu in ("trivial", "sign"):
        label = "chi=(1,1,1,1,1);mu=%s" % mu
        verdict = decide(2, 5, label)
        assert verdict.outcome == NEGATIVE
        assert verdict.witness["symmetry_reduced"] is True
    full = negativity_full(
        cls, resolve(parse_rep_spec(2, 5, "chi=(1,1,1,1,1);mu=trivial")))
    assert full.negative and not full.reduced
    assert full.pairs_checked == 37800
    for mu in ("standard", "standard_sign"):
        label = "chi=(1,1,1,1,1);mu=%s" % mu
        verdict = decide(2, 5, label)
        assert verdict.outcome == INFINITE
        assert verdict.rule == "cartan-infinite"
        assert verdict.witness["label"] == "A5(1)"
        assert q_matches_up_to_permutation(
            verdict.witness["q_matrix"], REFERENCE_Q_SIX_CYCLE)
        assert verify_witness(2, 5, label, verdict)
    print("criterion 4: negative over 37800 unreduced pairs, "
          "6-cycle braiding matrix reproduced, %.1fs"
          % (time.monotonic() - started))


def test_criterion_5_single_cycle_boundary():
    for k in (4, 6):
        for c in range(k):
            verdict = decide(k, 1, "chi=(%d);mu=trivial" % c)
            expected = NEGATIVE if c == k // 2 else INFINITE
            assert verdict.outcome == expected, (k, c)
    print("criterion 5: single-cycle classes negative exactly at value -1")


def test_criterion_6_k4_n2_and_k6_n3_small_cases():
    started = time.monotonic()
    for spec in enumerate_irreps(4, 2):
        verdict = decide(4, 2, spec)
        scalar_negative = (spec.degree() == 1
                           and len(set(spec.u)) == 1 and spec.u[0] in (1, 3))
        assert verdict.outcome == (NEGATIVE if scalar_negative else INFINITE)
        if spec.degree() > 1:
            assert verdict.outcome == INFINITE
    for mu in ("trivial", "sign"):
        assert decide(6, 3, "chi=(3,3,3);mu=%s" % mu).outcome == NEGATIVE
        for c in (1, 5):
            verdict = decide(6, 3, "chi=(%d,%d,%d);mu=%s" % (c, c, c, mu))
            assert verdict.outcome == INFINITE
            assert verdict.rule == "alternating-cycle"
    print("criterion 6: scalar boundary cases and alternating-cycle "
          "witnesses verified, %.1fs" % (time.monotonic() - started))


def test_criterion_7_commuting_pair_normal_form_invariants():
    started = time.monotonic()
    counts = {}
    for k, n in ((4, 2), (4, 3), (6, 2), (8, 2)):
        cls = UnmixedClass(k, n)
        r = k // 2
        want = cls.cycle_type()
        pairs = 0
        for t in centralizer_elements(cls):
            if t.cycle_type() != want:
                continue
            pairs += 1
            right = cls.normal_form(t)
            g = transporter(cls, t)
            left = cls.normal_form(conjugate(g.inverse(), cls.basepoint))
            assert (Permutation(right.b).cycle_type()
                    == Permutation(left.b).cycle_type()), (k, n, t)
            total = sum(right.d) + sum(left.d)
            if n % 2 == 1:
                assert total % 2 == 0, (k, n, t)
            if r % 2 == 0 and n % 2 == 0:
                assert total % 4 == 0, (k, n, t)
        counts[(k, n)] = pairs
    assert counts == {(4, 2): 8, (4, 3): 32, (6, 2): 16, (8, 2): 32}
    print("criterion 7: normal-form invariants on %d commuting pairs, %.1fs"
          % (sum(counts.values()), time.monotonic() - started))


def test_criterion_8_oracle_equivalences():
    started = time.monotonic()
    rng = random.Random(1729)
    for _ in range(500):
        a = random_symmetrizable_gcm(rng)
        data = CartanData(tuple(tuple(r) for r in a), (2,) * len(a))
        assert finite_type(data) == finite_type_lookup(a)

    pair_rng = random.Random(8128)
    reps = 0
    for k, n in _grid():
        cls = UnmixedClass(k, n)
        cent = sorted(centralizer_elements(cls))
        for spec in enumerate_irreps(k, n):
            if not cataloged(spec):
                continue
            rho = resolve(spec)
            reps += 1
            # each element is evaluated once per rep: the small centralizers
            # meet most of their elements many times in 600 draws
            values = {}
            for _ in range(200):
                g = pair_rng.choice(cent)
                h = pair_rng.choice(cent)
                for x in (g * h, g, h):
                    if x not in values:
                        values[x] = rho.evaluate(cls.normal_form(x))
                assert values[g * h] == values[g] * values[h], (
                    k, n, spec.label())
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print("criterion 8: 500 Cartan matrices, "
          "homomorphism on 200 pairs for each of %d reps, %.1fs"
          % (reps, elapsed))


def test_criterion_9_deterministic_output():
    started = time.monotonic()
    commands = (
        ("classify", "--k", "2", "--n", "3",
         "--rep", "chi=(1,1,1);mu=trivial", "--format", "json"),
        ("classify", "--k", "2", "--n", "5",
         "--rep", "chi=(1,1,1,1,1);mu=standard", "--format", "json"),
        ("table", "--k", "2", "--n", "3", "--format", "json"),
        ("table", "--k", "2", "--n", "4", "--format", "json", "--jobs", "2"),
        ("table", "--k", "4", "--n", "1"),
        ("diagram", "--k", "2", "--n", "4",
         "--rep", "chi=(1,0,0,0);mu=standard"),
        ("diagram", "--k", "2", "--n", "5",
         "--rep", "chi=(1,1,1,1,1);mu=trivial", "--subrack", "canonical"),
    )
    for argv in commands:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0, argv
        assert first.stdout == second.stdout, argv
        assert first.stdout
    print("criterion 9: %d commands byte-identical across repeat runs, %.1fs"
          % (len(commands), time.monotonic() - started))
