import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import nichols

PACKAGE_ROOT = str(pathlib.Path(nichols.__file__).resolve().parents[1])


def child_env() -> dict:
    """The environment with the imported package's root first on
    PYTHONPATH, so a child process runs the code these tests import."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))


def run_cli(*argv):
    cmd = [sys.executable, "-m", "nichols.cli"] + list(argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env())


def test_classify_json_negative_outcome():
    result = run_cli("classify", "--k", "2", "--n", "3",
                     "--rep", "chi=(1,1,1);mu=trivial", "--format", "json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["schema"] == "nichols.report/1"
    assert report["command"] == "classify"
    assert (report["k"], report["n"]) == (2, 3)
    assert report["rep"] == "chi=(1,1,1);mu=trivial"
    assert report["degree"] == 1
    assert report["q_pi"] == "-1"
    assert report["outcome"] == "NegativeBraiding"
    assert report["rule"] == "negative-exhaustive"
    witness = report["witness"]
    assert witness["symmetry_reduced"] is True
    assert witness["pairs_checked"] == len(witness["partners"]) > 0
    assert "elapsed:" in result.stderr


def test_classify_text_infinite_outcome():
    result = run_cli("classify", "--k", "2", "--n", "3",
                     "--rep", "chi=(1,1,1);mu=standard")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "outcome: InfiniteDim" in lines
    assert "rule: cartan-infinite" in lines
    assert "subrack: canonical-triple 1" in lines
    assert 'witness.label: "A5(1)"' in lines
    assert "witness.vertex_count: 6" in lines


def test_classify_dot_output():
    result = run_cli("classify", "--k", "2", "--n", "3",
                     "--rep", "chi=(1,1,1);mu=standard", "--format", "dot")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "// nichols.diagram/1"
    assert lines[1] == "graph diagram {"
    assert result.stdout.count("--") == 6


def test_classify_undecided_exit_code(monkeypatch, capsys):
    # starve the engine of candidate subracks so that no rule fires: that
    # is an engine defect, reported as an internal error
    import nichols.cli as cli
    import nichols.verdict as v

    monkeypatch.setattr(v, "candidate_subracks", lambda cls: iter(()))
    code = cli.main(["classify", "--k", "2", "--n", "3",
                     "--rep", "chi=(1,1,1);mu=standard"])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert "internal error" in captured.err


def test_classify_former_catalog_gap_exits_0():
    result = run_cli("classify", "--k", "2", "--n", "5",
                     "--rep", "chi=(1,1,1,1,1);mu=catalog:3+2", "--format", "json")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["outcome"] == "InfiniteDim"
    assert report["rule"] == "cartan-infinite"
    assert report["degree"] == 5


def test_classify_scalar_gate_on_odd_order():
    result = run_cli("classify", "--k", "3", "--n", "1",
                     "--rep", "chi=(1);mu=trivial", "--format", "json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["outcome"] == "InfiniteDim"
    assert report["rule"] == "scalar-gate"


@pytest.mark.parametrize("argv", [
    ("classify", "--k", "1", "--n", "2", "--rep", "chi=(1,1);mu=trivial"),
    ("classify", "--k", "2", "--n", "0", "--rep", "chi=();mu=trivial"),
    ("classify", "--k", "2", "--n", "3", "--rep", "chi=bogus"),
    ("classify", "--k", "2", "--n", "3", "--rep",
     "chi=(1,1,1);mu=trivial", "--format", "yaml"),
    ("table", "--k", "2"),
    ("table", "--k", "2", "--n", "2", "--jobs", "0"),
    ("diagram", "--k", "2", "--n", "3", "--rep",
     "chi=(1,1,1);mu=standard", "--subrack", "hexagon"),
    ("bogus",),
    ("classify", "--k", "2", "--n", "3", "--rep", "chi=2:4"),
    ("classify", "--k", "2", "--n", "3", "--rep", "chi=(1,1,1)",
     "--max-subracks", "-5"),
    ("table", "--k", "2", "--n", "2", "--max-class-size", "0"),
    ("table", "--k", "2", "--n", "2", "--no-symmetry-reduction"),
])
def test_usage_errors_exit_64(argv):
    result = run_cli(*argv)
    assert result.returncode == 64
    assert "error" in result.stderr


@pytest.mark.parametrize("rep", ["chi=2:2", "chi=k:2"])
def test_weight_shorthand(rep):
    result = run_cli("classify", "--k", "2", "--n", "3", "--rep", rep,
                     "--format", "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["rep"] == "chi=(1,1,0);mu=trivial"


def test_table_json_small_case():
    result = run_cli("table", "--k", "2", "--n", "3", "--format", "json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["schema"] == "nichols.report/1"
    assert report["command"] == "table"
    rows = report["rows"]
    assert len(rows) == 10
    assert all(row["agree"] == "yes" for row in rows)
    negatives = [row["rep"] for row in rows
                 if row["outcome"] == "NegativeBraiding"]
    assert negatives == ["chi=(1,1,1);mu=trivial", "chi=(1,1,1);mu=sign"]
    assert all(row["outcome"] == "InfiniteDim"
               for row in rows if row["rep"] not in negatives)


def test_table_text_format():
    result = run_cli("table", "--k", "4", "--n", "1")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 5
    head = lines[0].split()
    assert head == ["rep", "degree", "q_pi", "outcome", "rule", "oracle", "agree"]
    assert all(" yes" in line or line is lines[0] for line in lines)


def test_table_parallel_output_is_identical():
    one = run_cli("table", "--k", "2", "--n", "3", "--format", "json",
                  "--jobs", "1")
    two = run_cli("table", "--k", "2", "--n", "3", "--format", "json",
                  "--jobs", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_diagram_default_shows_witness():
    result = run_cli("diagram", "--k", "2", "--n", "4",
                     "--rep", "chi=(1,0,0,0);mu=standard")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "// nichols.diagram/1"
    assert result.stdout.count("--") == 6


def test_diagram_negative_case_prints_raw_diagram():
    result = run_cli("diagram", "--k", "2", "--n", "3",
                     "--rep", "chi=(1,1,1);mu=trivial")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "// nichols.diagram/1"
    assert lines[1] == "graph diagram {"
    assert result.stdout.count("--") == 0


def test_diagram_without_subracks_prints_empty_graph():
    # odd k with n >= 2 has no candidate subrack: the scalar gate decides
    # and the diagram is the empty graph `classify --format dot` prints
    result = run_cli("diagram", "--k", "3", "--n", "2", "--rep", "chi=(0,0)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "// nichols.diagram/1", "graph diagram {", "}"]
    dot = run_cli("classify", "--k", "3", "--n", "2", "--rep", "chi=(0,0)",
                  "--format", "dot")
    assert dot.stdout == result.stdout


@pytest.mark.parametrize("k,n,rep,selector", [
    (2, 5, "chi=(1,1,1,1,1);mu=trivial", "canonical"),
    (2, 5, "chi=(1,1,1,1,1);mu=trivial", "triple:2"),
    (4, 2, "chi=(1,1);mu=trivial", "rotation"),
    (4, 2, "chi=(1,1);mu=trivial", "quadruple:1,2"),
    (6, 1, "chi=(1);mu=trivial", "powers"),
])
def test_diagram_subrack_selectors(k, n, rep, selector):
    result = run_cli("diagram", "--k", str(k), "--n", str(n),
                     "--rep", rep, "--subrack", selector)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "// nichols.diagram/1"


def test_repeat_runs_are_byte_identical():
    first = run_cli("classify", "--k", "2", "--n", "4",
                    "--rep", "chi=(1,1,1,0);mu=standard", "--format", "json")
    second = run_cli("classify", "--k", "2", "--n", "4",
                     "--rep", "chi=(1,1,1,0);mu=standard", "--format", "json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


CONSOLE_SCRIPT_ARGS = ["classify", "--k", "2", "--n", "2",
                       "--rep", "chi=(1,1);mu=trivial", "--format", "json"]


def test_console_script_is_installed(tmp_path):
    # Build the wrapper an installer generates for the `nichols` entry of
    # [project.scripts], so the declared command is checked from a checkout.
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["nichols"]
    module, attr = target.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "nichols"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)
    path = shutil.which("nichols", path=str(bin_dir))
    assert path is not None
    result = subprocess.run([path] + CONSOLE_SCRIPT_ARGS,
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0
    assert json.loads(result.stdout)["schema"] == "nichols.report/1"


@pytest.mark.skipif(shutil.which("nichols") is None,
                    reason="nichols console script not on PATH (pip install -e .)")
def test_installed_console_script_runs():
    path = shutil.which("nichols")
    result = subprocess.run([path] + CONSOLE_SCRIPT_ARGS,
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["schema"] == "nichols.report/1"
