"""Tests of the benchmark itself, on the seconds-long smoke-k2n4 workload.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import episode  # noqa: E402
import tracer  # noqa: E402

SMOKE = "smoke-k2n4"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", SMOKE, "--seconds", "1"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr
    info, last = proc.stdout.splitlines()[-2:]
    return json.loads(info), json.loads(last)


def test_untraced_run_reports_every_end_to_end_metric():
    info, res = result(bench("--seed", "3", "--trace", "0"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 21
    assert sorted(res["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert info["seed"] == 3 and info["machine"]["nproc"] >= 1


def test_traced_runs_repeat_counts_exactly(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = tmp_path / "spans.jsonl"
    runs = [result(bench("--seed", "5", "--trace", "1", *extra))[1]
            for extra in (("--spans", str(spans)), ())]
    for res in runs:
        assert res["correct"]
        assert sorted(res["metrics"]) == sorted(m["name"] for m in declared["per_layer"])
    counts = [{name: m["value"] for name, m in res["metrics"].items()
               if m["unit"] == "count"} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["permgroup.centralizer_walk.items"] > 0
    assert counts[0]["verdict.decide.calls"] == 21
    written = [json.loads(line) for line in spans.read_text().splitlines()]
    decides = [span for span in written if span["name"] == "verdict.decide"]
    assert len(decides) == 21
    ids = {span["id"] for span in written}
    assert all(span["parent"] in ids for span in decides)


def test_traced_and_untraced_stdout_are_byte_identical():
    def episode_result(*extra):
        proc = subprocess.run(
            [sys.executable, str(HERE / "episode.py"), "--workload", SMOKE,
             "--seed", "7"] + list(extra),
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])
    plain = episode_result()
    traced = episode_result("--trace")
    assert plain["stdout_sha256"] == traced["stdout_sha256"]
    assert len(plain["stdout_sha256"]) == 2


@pytest.fixture(scope="module")
def smoke_rows():
    call = ("table", 2, 4, None)
    labels = episode.expected_labels(call)
    code, stdout, error = episode.run_call(call)
    assert error is None
    rows, error = episode.report_rows(call, code, stdout, labels)
    assert error is None
    failures, _ = episode.gate(rows)
    assert failures == {}
    return rows


def corrupt_witness(rows):
    row = next(r for r in rows if r["rule"] == "cartan-infinite")
    flipped = "1" if row["witness"]["q_matrix"][0][1] != "1" else "-1"
    row["witness"]["q_matrix"][0][1] = flipped


def wrong_outcome(rows):
    row = next(r for r in rows if r["outcome"] == "InfiniteDim")
    row["outcome"] = "NegativeBraiding"


def wrong_exit_code(rows):
    rows[0]["code"] = 2


@pytest.mark.parametrize("corrupt", [corrupt_witness, wrong_outcome, wrong_exit_code])
def test_gate_counts_one_bad_row_as_one_failure(smoke_rows, corrupt):
    rows = json.loads(json.dumps(smoke_rows))
    corrupt(rows)
    failures, _ = episode.gate(rows)
    assert len(failures) == 1


def test_printed_rows_must_match_the_irreps():
    call = ("table", 2, 3, None)
    code, stdout, _ = episode.run_call(call)
    labels = episode.expected_labels(call)
    rows, error = episode.report_rows(call, code, stdout, labels[:-1])
    assert rows is None and "do not match" in error


def test_missing_name_is_reported_absent(monkeypatch):
    from nichols import braidspace
    original = braidspace.simultaneous_diagonalize
    monkeypatch.setattr(tracer, "CALLS", tracer.CALLS + (
        ("exactla", "no_such_function", "exactla.gone", None),
        ("no_such_module", "f", "gone.f", None)))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["exactla.no_such_function", "no_such_module.f"]
    finally:
        t.uninstall()
    assert braidspace.simultaneous_diagonalize is original


def test_imported_names_are_wrapped_where_they_are_looked_up():
    from nichols import cli, verdict
    original = verdict.decide
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.decide is verdict.decide is not original
    finally:
        t.uninstall()
    assert cli.decide is verdict.decide is original


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probes_are_subtracted_and_scale_the_work():
    probe = episode.Probe()
    ref = episode.PROBE_REFERENCE_S
    # 20 probes, each twice the reference, inside a 10 s span
    probe.runs = [(0.1 + 0.4 * i, 2 * ref) for i in range(20)]
    span = [(0.0, 10.0)]
    work = 10.0 - 20 * 2 * ref
    assert probe.work_s(span) == pytest.approx(work)
    assert probe.at_reference(span, span) == pytest.approx(work / 2)
    # too few probes inside a short span: scaled by the phase's probes
    short = [(0.05, 0.2)]
    assert probe.inside(short) == [2 * ref]
    assert probe.at_reference(short, span) == pytest.approx(
        (0.15 - 2 * ref) / 2)
