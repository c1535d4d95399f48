import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import nichols
from nichols import cli
from nichols.reps import enumerate_irreps

import oracles

PACKAGE_ROOT = str(pathlib.Path(nichols.__file__).resolve().parents[1])


def child_env() -> dict:
    """The environment with the imported package's root first on
    PYTHONPATH, so a child process runs the code these tests import."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))


def run_cli(*argv):
    cmd = [sys.executable, "-m", "nichols.cli"] + list(argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env())


# A child starts as a copy of the process that spawns it, and Linux folds
# that copy's high-water mark into the child's peak RSS when it execs, so
# wait4 on a child of this test process reads at least this process's own
# peak: 487 MB for every child once the sweeps of tests/test_golden.py have
# run in this process.
# So the command is started by a small Python process, which waits for it
# and writes its exit code and wait4 peak RSS (KB) as its last stderr line
MEASURED = ("import os, sys\n"
            "pid = os.posix_spawn(sys.executable, [sys.executable]"
            " + sys.argv[1:], os.environ)\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss,"
            " file=sys.stderr)\n")


def measured_cli(argv, stdout) -> subprocess.Popen:
    """`python -m nichols.cli argv`, started under MEASURED, with stderr
    piped; read its outcome with measured_outcome."""
    return subprocess.Popen(
        [sys.executable, "-c", MEASURED, "-m", "nichols.cli"] + list(argv),
        stdout=stdout, stderr=subprocess.PIPE, env=child_env())


def measured_outcome(child: subprocess.Popen) -> tuple:
    """The command's exit code, its own peak RSS in KB and the rest of its
    stderr, once its stdout has been read."""
    head, _, last = child.communicate()[1].rstrip(b"\n").rpartition(b"\n")
    code, peak = map(int, last.split())
    return code, peak, head


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


def test_classify_text_lines_end_without_whitespace():
    # the rotation quadruple has no param, so its subrack line ends at
    # its kind
    result = run_cli("classify", "--k", "6", "--n", "3",
                     "--rep", "chi=(5,5,5);mu=trivial")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "subrack: quadruple-rotation" in lines
    assert [line for line in lines if line != line.rstrip()] == []


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

    empty = v.ClassPlan(2, 3)
    empty._unplanned = iter(())
    monkeypatch.setattr(v, "class_plan", lambda k, n: empty)
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


def test_classify_scalar_gate_reads_nothing_of_its_class(monkeypatch, capsys):
    # a row that the scalar gate decides looks up no class plan and names
    # only the root it prints, so a modulus of 10^8 costs what a small one
    # does: the basepoint alone would move 10^8 points
    import nichols.verdict as v

    def refuse(k, n):
        raise AssertionError("the scalar gate looked up the class plan")
    monkeypatch.setattr(v, "class_plan", refuse)
    code = cli.main(["classify", "--k", "100000000", "--n", "1",
                     "--rep", "chi=(1)", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)["q_pi"] == "z(100000000,1)"


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
    ("classify", "--k", "2", "--n", "3", "--rep",
     "chi=(1,1,1);mu=sign;mu=trivial"),
    ("classify", "--k", "2", "--n", "3", "--rep", "chi=(1,1,1);mu=catalog:"),
])
def test_usage_errors_exit_64(argv):
    result = run_cli(*argv)
    assert result.returncode == 64
    assert "error" in result.stderr


def test_in_process_usage_errors_repeat_on_one_parser(capsys):
    # a second usage error in one process reads as the first and as one in
    # a fresh process
    argv = ["classify", "--k", "2", "--n", "3", "--rep", "chi=(1,1,1)",
            "--format", "yaml"]
    printed = []
    for _ in range(2):
        assert cli.main(argv) == 64
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].err == run_cli(*argv).stderr


# argv in the documented forms: a command, then options in any order, each
# as "--opt value" or "--opt=value", some repeated, some not of the command,
# some without their value; integers as str(int), negative ones included
INTEGER_TEXT = st.integers(-3, 12).map(str)
OPTION_VALUES = {
    "--k": INTEGER_TEXT, "--n": INTEGER_TEXT, "--jobs": INTEGER_TEXT,
    "--rep": st.sampled_from(["chi=(1,1,1)", "chi=(1,1,1);mu=standard",
                              "chi=2:1", "", "x"]),
    "--format": st.sampled_from(["text", "json", "dot", "yaml"]),
    "--subrack": st.sampled_from(["canonical", "quadruple:1,2", "hexagon"]),
    "--bogus": st.just("1"),
}
ARGS_FIELDS = ("command", "k", "n", "rep", "format", "jobs", "subrack")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["classify", "table", "diagram", "bogus"]))
    needed = ["--k", "--n"] + (["--rep"] if command != "table" else [])
    more = draw(st.lists(st.sampled_from(sorted(OPTION_VALUES)), max_size=4))
    argv = [command]
    for name in draw(st.permutations(needed + more)):
        value = draw(OPTION_VALUES[name])
        argv += [name + "=" + value] if draw(st.booleans()) else [name, value]
    # now and then cut short: no command, or an option or value missing
    if draw(st.integers(0, 9)) == 0:
        argv = argv[:draw(st.integers(0, len(argv) - 1))]
    return argv


def _read(parse, argv) -> tuple:
    """The fields parse reads from argv, or None, and the exit code and
    stderr of a refusal."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = parse(argv)
    except (SystemExit, cli.UsageError) as exc:
        return None, getattr(exc, "code", cli.EXIT_USAGE), err.getvalue()
    return tuple(getattr(args, name, None) for name in ARGS_FIELDS), None, ""


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_the_option_table_reads_argv_as_argparse_did(argv):
    # the argparse parser the package used to build is the reference: both
    # read the same values, or both refuse, and then main exits 64 with
    # the error on stderr, as argparse's parser did
    want, code, err = _read(oracles.build_parser().parse_args, argv)
    assert _read(cli.parse_args, argv)[0] == want
    if want is None:
        assert code == 64 and "error" in err
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv) == 64
        assert err.getvalue().startswith("nichols: error: ")


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["classify", "-h"], ["table", "--help"],
    ["diagram", "--k", "2", "-h"]])
def test_help_names_every_option_and_exits_0(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    commands = [argv[0]] if argv[0] in cli.COMMANDS else list(cli.COMMANDS)
    for command in commands:
        assert command in out
        for option in cli.COMMANDS[command][2]:
            assert option in out


@pytest.mark.parametrize("argv", [
    # an abbreviation of an option name
    ["table", "--k", "2", "--n", "3", "--form", "json"],
    ["table", "--k", "2", "--n", "3", "--jo", "2"],
    # integer spellings that int() reads and the rep grammar refuses
    ["table", "--k", "+2", "--n", "3"],
    ["table", "--k", "2", "--n", "1_0"],
    ["table", "--k", "2", "--n", "3", "--jobs", "\u0662"],
])
def test_the_intended_departures_from_argparse(argv, capsys):
    # argparse took these; the option table refuses them
    reference = oracles.build_parser().parse_args(argv)
    assert reference.command == "table"
    assert cli.main(argv) == 64
    assert capsys.readouterr().err.startswith("nichols: error: ")


@pytest.mark.parametrize("part", ["", "a"])
def test_catalog_part_error_names_the_part(part):
    result = run_cli("classify", "--k", "2", "--n", "3",
                     "--rep", "chi=(1,1,1);mu=catalog:" + part)
    assert result.returncode == 64
    assert result.stderr == (
        "nichols: error: %r is not a partition of block size 3\n" % part)


@pytest.mark.parametrize("argv,message", [
    (("classify", "--k", "2", "--n", "3", "--rep", "chi=(1,,1,1)"),
     "character vector '1,,1,1' has an empty entry"),
    (("classify", "--k", "2", "--n", "3", "--rep", "chi=(1,1,x)"),
     "'x' is not an integer"),
    (("classify", "--k", "2", "--n", "3", "--rep", "chi=(1,1,1.5)"),
     "'1.5' is not an integer"),
    (("diagram", "--k", "4", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "quadruple:1,2,3"),
     "bad subrack selector 'quadruple:1,2,3': quadruple needs <i>,<j>"),
    (("diagram", "--k", "4", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "quadruple:a,2"),
     "bad subrack selector 'quadruple:a,2': quadruple needs <i>,<j>"),
    (("diagram", "--k", "2", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "triple:1,2"),
     "bad subrack selector 'triple:1,2': triple needs <l>"),
    (("diagram", "--k", "3", "--n", "2", "--rep", "chi=(1,1)",
      "--subrack", "rotation"),
     "bad subrack selector 'rotation': the rotation quadruple needs even "
     "k >= 4"),
    (("classify", "--k", "4", "--n", "2", "--rep", "chi=(1_0,0)"),
     "'1_0' is not an integer"),
    # a selector's integers are read as the rep grammar reads them
    (("diagram", "--k", "4", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "quadruple:+1,2"),
     "bad subrack selector 'quadruple:+1,2': quadruple needs <i>,<j>"),
    (("diagram", "--k", "4", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "quadruple:1_0,2"),
     "bad subrack selector 'quadruple:1_0,2': quadruple needs <i>,<j>"),
    (("diagram", "--k", "4", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "quadruple:\u0661,2"),
     "bad subrack selector 'quadruple:\u0661,2': quadruple needs <i>,<j>"),
    # a colon belongs to a selector that takes integers: on one that takes
    # none it is refused, not read as if it were not there
    (("diagram", "--k", "4", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "rotation:"),
     "unknown subrack selector 'rotation:'"),
    (("diagram", "--k", "2", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "canonical:"),
     "unknown subrack selector 'canonical:'"),
    (("diagram", "--k", "6", "--n", "1", "--rep", "chi=(1)",
      "--subrack", "powers:"),
     "unknown subrack selector 'powers:'"),
    (("diagram", "--k", "2", "--n", "3", "--rep", "chi=(1,1,1)",
      "--subrack", "triple:"),
     "bad subrack selector 'triple:': triple needs <l>"),
])
def test_malformed_spec_or_selector_is_named(argv, message):
    # an empty entry used to be skipped, and the others reported Python's
    # own int() or unpacking messages; the rotation quadruple names its own
    # condition rather than the block reflection's
    result = run_cli(*argv)
    assert result.returncode == 64
    assert result.stdout == ""
    assert result.stderr == "nichols: error: %s\n" % message


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


def test_table_jobs_output_is_byte_identical_past_the_gate():
    # (4,4) rows pass the scalar gate and use the class plan, which each
    # worker builds for itself
    one = run_cli("table", "--k", "4", "--n", "4", "--format", "json")
    two = run_cli("table", "--k", "4", "--n", "4", "--format", "json",
                  "--jobs", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_table_starts_no_more_workers_than_rows(monkeypatch, capsys):
    # the pool is replaced by one that records its size and runs in-process,
    # so no worker is started however large --jobs is; the CLI imports the
    # pool from multiprocessing when it needs one, so it is replaced there.
    # The machine has 8 CPUs here, more than any table below asks for
    import multiprocessing

    import nichols.cli as cli

    sizes = []
    chunks = []

    class RecordingPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, parts):
            # the parts are consecutive slices of one width
            chunks.append(parts[0].stop)
            assert [part.start for part in parts] == [
                chunks[-1] * i for i in range(len(parts))]
            return map(fn, parts)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli.main(["table", "--k", "2", "--n", "2", "--jobs", "64"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sizes == [len(rows)] == [5]
    assert cli.main(["table", "--k", "2", "--n", "2", "--jobs", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == rows
    assert sizes == [5, 3]
    # about four parts per worker: ceil(rows / (4 * workers)) rows a task
    assert cli.main(["table", "--k", "2", "--n", "5", "--jobs", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sizes == [5, 3, 2]
    assert len(rows) == 36
    assert chunks == [1, 1, 5]
    # and no more workers than CPUs: 2 of them for 36 rows
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.main(["table", "--k", "2", "--n", "5", "--jobs", "64"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == rows
    assert sizes == [5, 3, 2, 2]
    assert chunks == [1, 1, 5, 5]


def test_cli_import_leaves_the_process_pool_out():
    # only table --jobs N needs multiprocessing
    probe = ("import sys, nichols.cli; "
             "print('multiprocessing' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def _printed_report(monkeypatch, capsys, argv) -> dict:
    """The report a --format json run hands to the encoder."""
    reports = []
    monkeypatch.setattr(cli, "_dumps",
                        lambda value, memo: reports.append(value) or "")
    assert cli.main(argv) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert len(reports) == 1
    return reports[0]


def _kept_ids(value, seen) -> set:
    # the ids of the objects reachable from value that the encoder keeps:
    # each distinct dict, and each distinct list that is a dict's value
    if isinstance(value, dict):
        if id(value) in seen:
            return seen
        seen.add(id(value))
        seen.update(id(item) for item in value.values() if type(item) is list)
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _kept_ids(item, seen)
    return seen


def _table_report(k, n, rows) -> dict:
    return {"schema": "nichols.report/1", "command": "table", "k": k, "n": n,
            "rows": rows}


def _rows(k, n) -> list:
    return [cli._table_row(spec) for spec in enumerate_irreps(k, n)]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("k,n", [(2, 6), (4, 5), (6, 3)])
def test_table_report_encodes_as_json_dumps(k, n, jobs, capsys):
    # the streamed report, with --jobs 2 encoded row by row in the workers,
    # is json.dumps of the report that the same rows make
    assert cli.main(["table", "--k", str(k), "--n", str(n), "--format",
                     "json", "--jobs", jobs]) == 0
    assert capsys.readouterr().out == json.dumps(
        _table_report(k, n, _rows(k, n)), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("k,n", [(2, 6), (4, 5), (6, 3)])
def test_table_rows_encode_each_witness_once(k, n, monkeypatch):
    # one memo for the report: rows that share a witness dict share its text
    specs = enumerate_irreps(k, n)
    rows = dict(zip(specs, map(cli._table_row, specs)))
    monkeypatch.setattr(cli, "_table_row", rows.__getitem__)
    memo = {}
    for spec in specs:
        cli._printed_row(memo, True, spec)
    witnesses = [row["witness"] for row in rows.values()]
    assert len({id(witness) for witness in witnesses}) < len(witnesses)
    # and the lists of the witness fields, each once, however many
    # witnesses share it; no row's own flags
    assert len(memo) == len(_kept_ids(witnesses, set()))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_table_text_format_is_unchanged(jobs, capsys):
    # the seven cells of each row, each column as wide as its widest cell
    assert cli.main(["table", "--k", "4", "--n", "4", "--jobs", jobs]) == 0
    heads = ("rep", "degree", "q_pi", "outcome", "rule", "oracle", "agree")
    cells = [heads] + [tuple(str(row[head]) for head in heads)
                       for row in _rows(4, 4)]
    widths = [max(len(line[c]) for line in cells) for c in range(len(heads))]
    assert capsys.readouterr().out == "".join(
        "  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() + "\n"
        for line in cells)


@pytest.mark.parametrize("fmt,jobs", [
    ("json", "1"), ("text", "1"), ("json", "2"), ("text", "2")],
    ids=["json", "text", "json-jobs2", "text-jobs2"])
def test_a_row_that_fails_mid_table_exits_70(fmt, jobs, monkeypatch, capsys):
    # the rows decided before the fault are already written: the json report
    # stops after the last of them, with no closing brackets, and the text
    # table, printed once every row is in, prints nothing; with --jobs 2
    # each of the 8 rows is a part of its own, so the same rows come first
    specs = enumerate_irreps(2, 3)
    rows = _rows(2, 3)
    decide = cli.decide

    def failing(k, n, spec):
        if spec == specs[2]:
            raise RuntimeError("no rule decides " + spec.label())
        return decide(k, n, spec)

    monkeypatch.setattr(cli, "decide", failing)
    assert cli.main(["table", "--k", "2", "--n", "3", "--format", fmt,
                     "--jobs", jobs]) == 70
    captured = capsys.readouterr()
    assert captured.err == (
        "nichols: internal error: RuntimeError: no rule decides %s\n"
        % specs[2].label())
    whole = json.dumps(_table_report(2, 3, rows[:2]), sort_keys=True, indent=2)
    assert captured.out == (whole[:whole.rindex("\n  ]")] if fmt == "json"
                            else "")


@pytest.mark.parametrize("k,n,rep,rule", [
    (6, 3, "chi=(3,3,3);mu=trivial", "negative-exhaustive"),
    (2, 3, "chi=(1,1,1);mu=standard", "cartan-infinite"),
])
def test_classify_report_encodes_as_json_dumps(k, n, rep, rule, monkeypatch,
                                               capsys):
    report = _printed_report(monkeypatch, capsys, [
        "classify", "--k", str(k), "--n", str(n), "--rep", rep,
        "--format", "json"])
    assert report["rule"] == rule
    assert cli._dumps(report, {}) == json.dumps(report, sort_keys=True,
                                                indent=2)


def test_scalar_gate_rows_share_their_witness():
    # one scalar-gate verdict per (basepoint scalar, element order), so the
    # encoder writes each of their witnesses once
    rows = [cli._table_row(spec) for spec in enumerate_irreps(4, 4)]
    gated = [row["witness"] for row in rows if row["rule"] == "scalar-gate"]
    assert len(gated) == 76
    assert len({id(witness) for witness in gated}) <= 3


# strings with what json must escape: quotes, backslashes, control and
# non-ASCII characters, surrogates included
JSON_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9\u20ac\ud800')
                    | st.characters())
JSON_SCALARS = (JSON_TEXT | st.integers() | st.integers(-2 ** 200, 2 ** 200)
                | st.booleans() | st.none() | st.just(0.5))


@st.composite
def json_values(draw):
    # random nested values in which one sub-dict and one list are placed
    # several times, the list at several depths as a dict's value (which
    # the encoder keeps) and as an item of a list (which it does not)
    shared = draw(st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=3))
    listed = draw(st.lists(JSON_SCALARS | st.just(shared), max_size=3))
    value = draw(st.recursive(
        JSON_SCALARS | st.just(shared) | st.just(listed),
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(JSON_TEXT, inner, max_size=4)),
        max_leaves=20))
    return [value, shared, {"again": shared, "list": listed}, listed,
            {"deeper": {"list": listed}}]


@settings(max_examples=200, deadline=None)
@given(json_values())
def test_the_encoder_is_json_dumps(value):
    memo = {}
    assert cli._dumps(value, memo) == json.dumps(value, sort_keys=True,
                                                 indent=2)
    assert len(memo) == len(_kept_ids(value, set()))


@pytest.mark.parametrize("value", [
    {1: "a"}, {"a": {None: 1}}, [{True: 1}], {"a": 1, 2.5: "b"}])
def test_the_encoder_refuses_a_key_that_is_not_a_str(value):
    with pytest.raises(TypeError):
        cli._dumps(value, {})


def test_the_encoder_keeps_one_entry_per_dict_object():
    witness = {"label": "A2(1)", "firing": [[0, 1], [1, 2], [2, 0]]}
    report = {"rows": [{"rep": str(i), "witness": witness}
                       for i in range(500)]}
    memo = {}
    assert cli._dumps(report, memo) == json.dumps(report, sort_keys=True,
                                                  indent=2)
    # the report, its list of rows, its 500 rows, the one witness they
    # share and the witness's firing list
    assert len(memo) == 504


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_table_disagreement_exits_70_after_the_last_row(jobs, monkeypatch,
                                                       capsys):
    # the closed form is made to disagree on two rows: the report is still
    # written whole, and the two labels are named once the last row is in
    from nichols.verdict import closed_form_verdict
    specs = enumerate_irreps(2, 3)
    flipped = (specs[1], specs[4])

    def oracle(k, n, spec):
        verdict = closed_form_verdict(k, n, spec)
        return verdict._replace(outcome="NegativeBraiding") \
            if spec in flipped else verdict

    monkeypatch.setattr(cli, "closed_form_verdict", oracle)
    assert cli.main(["table", "--k", "2", "--n", "3", "--format", "json",
                     "--jobs", jobs]) == 70
    captured = capsys.readouterr()
    rows = _rows(2, 3)
    assert [row["rep"] for row in rows if row["agree"] == "no"] == list(
        map(str, flipped))
    assert captured.out == json.dumps(_table_report(2, 3, rows),
                                      sort_keys=True, indent=2) + "\n"
    assert captured.err == (
        "oracle disagreement on: %s, %s\nnichols: internal error: classifier "
        "disagrees with the closed-form oracle\n" % tuple(map(str, flipped)))


@pytest.mark.slow
def test_table_streams_in_bounded_memory():
    # the report is written row by row, so the 112 MB of (4,12) never sit
    # in memory at once (a process that held the report peaked at 485 MB);
    # the command's own peak is read (measured_cli), where RUSAGE_CHILDREN
    # would give the largest child that the test process ever waited for
    code, peak, stderr = measured_outcome(measured_cli(
        ["table", "--k", "4", "--n", "12", "--format", "json"],
        subprocess.DEVNULL))
    assert code == 0, stderr
    assert peak < 200 * 1024


@pytest.mark.slow
def test_a_large_k_row_plans_its_characters_on_the_cosets_of_pi():
    # the rotation quadruple at (100,2) has |H| = 5,000 and |H| / k = 50
    # cosets of <pi>: the plan closes H on those, and the sum lists the 50
    # characters with psi(pi) = -1 only, each with its phases at the coset
    # representatives.  The row peaks at 17 MB, where a plan of all |H|
    # characters took 19 MB, and phases at every element of H 116 MB
    code, peak, stderr = measured_outcome(measured_cli(
        ["classify", "--k", "100", "--n", "2", "--rep", "chi=(26,24)",
         "--format", "json"], subprocess.DEVNULL))
    assert code == 0, stderr
    assert peak < 60 * 1024


@pytest.mark.slow
def test_a_k_400_row_closes_h_on_the_cosets_of_pi():
    # the rotation quadruple at (400,2) has |H| = 80,000 and 200 cosets of
    # <pi>: the plan makes its products per coset, and the row sums the
    # 200 characters with psi(pi) = -1.  It peaks at 17 MB in 0.3-0.7 s
    # on 2 vCPUs; closing all of H and listing its 80,000 characters took
    # 130 MB and 3.1-4.6 s for the same report
    child = measured_cli(["classify", "--k", "400", "--n", "2", "--rep",
                          "chi=(101,99)", "--format", "json"],
                         subprocess.PIPE)
    digest = hashlib.sha256(child.stdout.read()).hexdigest()
    code, peak, stderr = measured_outcome(child)
    assert code == 0, stderr
    assert digest == ("d624b2fa8d10f907951726c4bbe348015baf1b2b5676aa7c0bb5"
                      "03daf43d4aa0")
    assert peak < 40 * 1024


def _timed_digest(argv) -> tuple:
    # the sha256 of the command's stdout, its wall time in seconds, from
    # start to exit, and its wait4 peak RSS in KB
    start = time.perf_counter()
    child = measured_cli(argv, subprocess.PIPE)
    digest = hashlib.sha256(child.stdout.read()).hexdigest()
    code, peak, stderr = measured_outcome(child)
    assert code == 0, stderr
    return digest, time.perf_counter() - start, peak


@pytest.mark.slow
def test_a_k_1000_row_reads_its_multiplicities_on_a_basis():
    # 500 multiplicities of the rotation quadruple at (1000,2), each read
    # on the basis of Q(zeta_1000): the row takes 0.3-0.5 s and 23 MB on
    # 2 vCPUs, where testing each sum against phi(1000) - 1 shifted
    # Ramanujan sums took 4.3-6.5 s
    digest, seconds, peak = _timed_digest(
        ["classify", "--k", "1000", "--n", "2", "--rep", "chi=(251,249)",
         "--format", "json"])
    assert digest == ("e6038c48873c7e7c059f5c5389c98c1ec1e8b67bba983b0dae"
                      "d0dee71667df63")
    assert seconds < 2
    assert peak < 100 * 1024


@pytest.mark.slow
def test_a_k_1000_negative_row_reads_its_values_as_terms():
    # 80,399 partner classes, two character values each, held as their
    # nonzero terms and multiplied term by term: the row takes 3.0-5.2 s
    # and 130 MB on 2 vCPUs, where dense values of 1,000 entries took
    # 46-58 s and 732 MB
    digest, seconds, peak = _timed_digest(
        ["classify", "--k", "1000", "--n", "2", "--rep",
         "chi=(250,250);mu=trivial", "--format", "json"])
    assert digest == ("fc011ddbecd989d1d43bc4b6c2561243e4e9b53f976db12592"
                      "507523529198ab")
    assert seconds < 10
    assert peak < 150 * 1024


def test_a_closed_stdout_exits_74_with_nothing_on_stderr():
    # the reader goes away after a few bytes, as head -c 100 does; the
    # report is far larger than the pipe holds, so the writer meets the
    # closed pipe, and neither main nor the flush at exit prints anything
    child = subprocess.Popen(
        [sys.executable, "-m", "nichols.cli", "table", "--k", "2", "--n", "8",
         "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env())
    assert child.stdout.read(100).startswith(b'{\n  "command": "table"')
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait() == 74


@pytest.mark.slow
def test_a_closed_stdout_stops_the_workers():
    # with --jobs 2 the parent writes the first part's rows, meets the
    # closed pipe and leaves the pool, which drops the parts still running
    # or waiting: the (2,22) sweep takes 3.6-4.3 s whole on 2 vCPUs, and
    # 1.2-1.5 s up to the closed pipe, where a pool that ran every part
    # first took 3.6 s, and one that fed the workers each part's specs,
    # larger than the pipe to them, never stopped.  The bound is a share
    # of the whole sweep timed in the same run, so that a loaded machine
    # slows both alike
    command = [sys.executable, "-m", "nichols.cli", "table", "--k", "2",
               "--n", "22", "--format", "json", "--jobs", "2"]
    started = time.monotonic()
    whole = subprocess.run(command, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, env=child_env(),
                           timeout=120)
    assert whole.returncode == 0
    reference = time.monotonic() - started
    started = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env=child_env())
    assert child.stdout.read(100).startswith(b'{\n  "command": "table"')
    child.stdout.close()
    try:
        code = child.wait(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        raise
    assert child.stderr.read() == b""
    assert code == 74
    assert time.monotonic() - started < 0.6 * reference, reference


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
    # odd k with n >= 2, and every n = 1, has no candidate subrack: the
    # scalar gate or the negativity check decides, and the diagram is the
    # empty graph `classify --format dot` prints
    for k, n, rep in ((3, 2, "chi=(0,0)"), (6, 1, "chi=(3)")):
        args = ("--k", str(k), "--n", str(n), "--rep", rep)
        result = run_cli("diagram", *args)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "// nichols.diagram/1", "graph diagram {", "}"]
        dot = run_cli("classify", *args, "--format", "dot")
        assert dot.stdout == result.stdout


# the sha256 of each diagram's stdout, the first eight pinned from the
# builders as they stood before twist, block_swap and the block reflections
# were put together from normal forms and sigma_block; the rest, on each
# selector, on a witness row, on a negative row (the first candidate
# subrack's diagram) and on a class with no candidate subrack (the empty
# graph), recorded before the diagram was written as it is drawn
SUBRACK_DIAGRAMS = {
    (2, 5, "chi=(1,1,1,1,1);mu=trivial", "canonical"):
        "b3ef41c3157bc0f7e8bc61416476bbf7e44e8e68b63e9c3987f17643872b9051",
    (2, 5, "chi=(1,1,1,1,1);mu=trivial", "triple:2"):
        "dabd5e88c472a5894b6843219a9823049acf66a51b0cbe4e0b5300c890621055",
    (4, 2, "chi=(1,1);mu=trivial", "rotation"):
        "98d347d618a2ad25e151b36b64e385daf55cb812063e401ca6ce50780b3facbb",
    (4, 2, "chi=(1,1);mu=trivial", "quadruple:1,2"):
        "98d347d618a2ad25e151b36b64e385daf55cb812063e401ca6ce50780b3facbb",
    (6, 1, "chi=(1);mu=trivial", "powers"):
        "8678b76ca2882e2a13c0945bf10bcb5719487e46a3da2fc6aed8e4ea4dd53ef3",
    (4, 3, "chi=(1,1,1);mu=standard", "rotation"):
        "43eb5c085f8e986e87cd6577ec395ae43c8da2cdb967bc534a785f2af97b4944",
    (6, 3, "chi=(1,1,1);mu=standard", "quadruple:1,3"):
        "31a6b2f2e24e0afe0aa8e370172b5cc091e7bc4e5eb5fd930dc2e1b236a51dc5",
    (8, 3, "chi=(1,1,1);mu=standard", "rotation"):
        "df2c035a01cbfc69cb9d8f608e118491e3ccb19ff5cf3cc963e0750165bed1e0",
    (2, 6, "chi=(1,1,1,0,0,0);mu=trivial", "canonical"):
        "dba594112b3772ec3ccefe1b98aa5040f5526b4fe0b822fce288d62da23276a5",
    (2, 6, "chi=(1,1,1,0,0,0);mu=trivial", "triple:3"):
        "69f6329dbbd062aee01e4ff34402143d5b05d464435b1d6f91026d62a2e3c213",
    (4, 3, "chi=(3,3,0);mu=trivial", "quadruple:1,3"):
        "a107c952255f17ebde25d47dd60f6a7a30f2d96d76120733005c80b6dcb2f680",
    (6, 2, "chi=(1,2);mu=trivial", "rotation"):
        "ae9e4ca628f8a8626c7fc3218090146677de6afa81143b590b0f2dd5747d15ba",
    (10, 1, "chi=(3);mu=trivial", "powers"):
        "36d74a3322f027ca3e4dea99bd236230fb9c6816661237a2574732aea4e9ef81",
    (2, 6, "chi=(1,1,1,1,1,0);mu=standard", None):
        "5a7f6118bf5a9d00b7081575679cc9f2bc5786d7b3a882a702c4afeb71b0f089",
    (6, 3, "chi=(3,3,3);mu=trivial", None):
        "98d347d618a2ad25e151b36b64e385daf55cb812063e401ca6ce50780b3facbb",
    (3, 2, "chi=(1,2)", None):
        "d6a71db6e5487918ece23f6a4f7322c205071314dfed172d29b3baa95a22ef4f",
}


@pytest.mark.parametrize("k,n,rep,selector", list(SUBRACK_DIAGRAMS))
def test_diagram_subrack_selectors(k, n, rep, selector):
    subrack = () if selector is None else ("--subrack", selector)
    result = run_cli("diagram", "--k", str(k), "--n", str(n),
                     "--rep", rep, *subrack)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "// nichols.diagram/1"
    assert (hashlib.sha256(result.stdout.encode()).hexdigest()
            == SUBRACK_DIAGRAMS[k, n, rep, selector])


BIG_DIAGRAM = ["diagram", "--k", "2", "--n", "8", "--rep",
               "chi=(1,1,1,1,0,0,0,0);mu=trivial", "--subrack", "canonical"]


@pytest.mark.slow
def test_a_large_diagram_is_written_as_it_is_drawn():
    # 264 MB of DOT on 81 columns of 70 vertices: the lines are written
    # node by node, so the text is never held whole, and the edges are
    # read off the labels as they are drawn, so no neighbor map is held
    # either.  The process peaks at about 21 MB, where one that held every
    # edge in a neighbor map peaked at 353 MB and one that joined the text
    # before printing it at 1,579 MB.  The command's own peak is read
    # (measured_cli), where RUSAGE_CHILDREN would give the largest child
    # that the test process ever waited for
    child = measured_cli(BIG_DIAGRAM, subprocess.PIPE)
    digest = hashlib.sha256()
    for block in iter(lambda: child.stdout.read(1 << 20), b""):
        digest.update(block)
    code, peak, stderr = measured_outcome(child)
    assert code == 0, stderr
    assert digest.hexdigest() == (
        "dc1cc3968375cdd271653acdabd7ae9be5923135b27d8c99f500afde7ef131fa")
    assert peak < 100 * 1024


@pytest.mark.slow
def test_a_closed_stdout_stops_a_large_diagram():
    # the first lines are written as soon as the diagram is built (2.5-2.9
    # s on 2 vCPUs), so the closed pipe is met then; a process that drew
    # the whole text first took 8-10 s
    started = time.monotonic()
    child = subprocess.Popen([sys.executable, "-m", "nichols.cli"] + BIG_DIAGRAM,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=child_env())
    assert child.stdout.read(100).startswith(
        b"// nichols.diagram/1\ngraph diagram {\n")
    child.stdout.close()
    try:
        code = child.wait(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        raise
    assert child.stderr.read() == b""
    assert code == 74
    assert time.monotonic() - started < 5


def test_diagram_of_adjacent_twins():
    # before the scalar gate two twins of one column can be adjacent: here
    # every vertex label is z(4,3), so each product q_ab q_ba is z(4,3)^2 =
    # -1, and the rotation quadruple's 8 vertices form the complete graph
    result = run_cli("diagram", "--k", "4", "--n", "3",
                     "--rep", "chi=(1,1,1);mu=standard", "--subrack", "rotation")
    assert result.returncode == 0, result.stderr
    names = ["t%d.v%d" % (j, s) for j in range(4) for s in range(2)]
    assert result.stdout.splitlines() == (
        ["// nichols.diagram/1", "graph diagram {"]
        + ['  %s [label="z(4,3)"];' % name for name in names]
        + ['  %s -- %s [label="-1"];' % pair
           for pair in itertools.combinations(names, 2)]
        + ["}"])


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
