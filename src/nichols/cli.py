"""Command-line front end: classify one representation, sweep a table of
all centralizer irreps, or print a braiding diagram in DOT form.

    nichols {classify,table,diagram} --k K --n N [options]

The command line is read against one table of options per command
(COMMANDS): `--opt value` or `--opt=value`, the last of a repeated option
winning, and -h or --help prints the usage read from that table.  Option
names are matched whole, so an abbreviation such as --form is refused, and
the integers of --k, --n and --jobs, like those of a --subrack selector,
are read as the representation grammar reads them: ASCII digits with an
optional "-".  A colon follows only a selector that takes integers.

Exit codes: 0 for a decided outcome, 64 for usage errors, 70 for internal
invariant violations: table/oracle disagreement, or a representation that
no rule decides; 74 when stdout is closed before the report is written
(a table piped to head), with nothing printed on stderr.
Timing goes to stderr so stdout stays byte-identical between runs.
A JSON report is byte-identical to json.dumps(report, sort_keys=True,
indent=2).  `classify` encodes its report in one pass that writes each
dict object, and each list object that is a dict's value, once (_dumps).
`table` streams its report: the keys of the report and of a row are
fixed, so the report's head and tail are fixed text and each row is
written, as soon as it is decided, through one format string, its flags
and witness through _dumps with one memo for the report.  Rows that share
a verdict (those whose characters restrict alike, and the scalar-gate
rows of one basepoint scalar) share one witness dict, which is encoded
once, and the witnesses of one capped pattern share every field but
their vertices and DOT text, so the subrack's image lists, the q_matrix
and the other field lists are encoded once per report.  With --jobs N
each worker is handed the table once as it starts and is then sent
parts of it as slices; it encodes the rows of each part with one memo,
and the parent writes the text in order.  A closed stdout or a row that
fails terminates the pool, dropping the parts still running or waiting.
`diagram` writes a subrack's DOT text as it is drawn, node by node
(GeneralizedDynkinDiagram.dot_lines), so the text is never held whole and
a closed stdout stops it at the first lines.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from functools import partial
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .braidspace import FAMILIES, dynkin_diagram, subrack_plan
from .exactfield import root_name
from .permgroup import UnmixedClass
from .reps import (RepSpec, _integer, enumerate_irreps, parse_rep_spec,
                   pi_scalar)
from .verdict import class_plan, closed_form_verdict, decide

PROG = "nichols"
JSON_SCHEMA = "nichols.report/1"
DOT_SCHEMA = "nichols.diagram/1"
# printed where a verdict has no diagram and no subrack provides one
EMPTY_DOT = "graph diagram {\n}"

EXIT_DECIDED = 0
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_IOERR = 74

# witness fields too bulky for the text format; json carries everything
TEXT_SKIP = frozenset((
    "q_matrix", "diagram_dot", "element_images", "transporter_images",
    "partners", "vertices", "subrack"))


# exact type to encoder; str goes through the C quoter
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: lambda value: "true" if value else "false",
            type(None): lambda value: "null"}


def _dumps(value, memo: dict, indent: str = "\n",
           keep_list: bool = False) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for a
    value whose lines start with indent (a newline and the spaces of its
    depth).  Each dict object, and each list object that is the value of a
    dict's key (keep_list), is encoded once and kept in memo, keyed by id()
    with the object held so that its id stays taken, together with the
    indent it was encoded at.  An object met again at another depth is
    re-indented by replacing that indent with its own, which is safe
    because an encoded string holds no raw newline.  A list elsewhere,
    such as a row's own flags, is not kept, so the memo does not grow with
    the rows.  A dict key that is not a str raises TypeError (json.dumps
    would convert it)."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return json.dumps(value)
    kept = is_dict or (keep_list and type(value) is list)
    hit = memo.get(id(value)) if kept else None
    if hit is None:
        inner = indent + "  "
        if is_dict:
            text = _block("{", [encode_basestring_ascii(key) + ": "
                                + _dumps(value[key], memo, inner, True)
                                for key in sorted(value)], "}", indent)
        else:
            text = _block("[", [_dumps(item, memo, inner) for item in value],
                          "]", indent)
        if not kept:
            return text
        hit = memo[id(value)] = (value, indent, text)
    return hit[2] if hit[1] == indent else hit[2].replace(hit[1], indent)


def _block(opening: str, items: list, closing: str, indent: str) -> str:
    if not items:
        return opening + closing
    inner = indent + "  "
    return opening + inner + ("," + inner).join(items) + indent + closing


class UsageError(Exception):
    pass


class InternalError(Exception):
    pass


def _check_class(args: SimpleNamespace):
    if args.k < 2:
        raise UsageError("--k must be at least 2")
    if args.n < 1:
        raise UsageError("--n must be at least 1")


def _parse_spec(args: SimpleNamespace):
    try:
        return parse_rep_spec(args.k, args.n, args.rep)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# classify

def _verdict_fields(spec: RepSpec, verdict) -> dict:
    # the keys a classify report and a table row share
    return {
        "rep": spec.label(),
        "degree": spec.degree(),
        "q_pi": root_name(spec.k, pi_scalar(spec)),
        "outcome": verdict.outcome,
        "rule": verdict.rule,
        "witness": verdict.witness,
        "flags": list(verdict.flags),
    }


def classify_report(args: SimpleNamespace, spec, verdict) -> dict:
    return {"schema": JSON_SCHEMA, "command": "classify", "k": args.k,
            "n": args.n, **_verdict_fields(spec, verdict)}


def _text_lines(report: dict) -> list:
    lines = []
    for key in ("rep", "degree", "q_pi", "outcome", "rule"):
        lines.append("%s: %s" % (key, report[key]))
    witness = report["witness"]
    sub = witness.get("subrack")
    if sub:
        # a family with no param, such as quadruple-rotation, ends at its kind
        lines.append(("subrack: %s %s" % (
            sub["kind"], ",".join(str(x) for x in sub["param"]))).rstrip())
    for key in sorted(witness):
        if key in TEXT_SKIP:
            continue
        lines.append("witness.%s: %s" % (key, json.dumps(witness[key], sort_keys=True)))
    if "vertices" in witness:
        lines.append("witness.vertex_count: %d" % len(witness["vertices"]))
    return lines


def cmd_classify(args: SimpleNamespace) -> int:
    _check_class(args)
    spec = _parse_spec(args)
    verdict = decide(args.k, args.n, spec)
    report = classify_report(args, spec, verdict)
    if args.format == "json":
        print(_dumps(report, {}))
    elif args.format == "dot":
        print("// %s\n%s" % (DOT_SCHEMA,
                             verdict.witness.get("diagram_dot", EMPTY_DOT)))
    else:
        print("\n".join(_text_lines(report)))
    return EXIT_DECIDED


# table

TABLE_HEADS = ("rep", "degree", "q_pi", "outcome", "rule", "oracle", "agree")
# a table report and its rows have fixed keys; in sorted order, the report
# is this head, its rows, and this tail
REPORT_HEAD = '{\n  "command": "table",\n  "k": %d,\n  "n": %d,\n  "rows": ['
REPORT_TAIL = '\n  ],\n  "schema": %s\n}\n' % encode_basestring_ascii(JSON_SCHEMA)
ROW_KEYS = ("agree", "degree", "flags", "oracle", "outcome", "q_pi", "rep",
            "rule", "witness")
ROW_INDENT = "\n      "
ROW_JSON = "{%s\n    }" % ",".join(
    '%s%s: %%s' % (ROW_INDENT, encode_basestring_ascii(key)) for key in ROW_KEYS)


def _table_row(spec: RepSpec) -> dict:
    verdict = decide(spec.k, spec.n, spec)
    oracle = closed_form_verdict(spec.k, spec.n, spec)
    agree = "yes" if verdict.outcome == oracle.outcome else "no"
    return {**_verdict_fields(spec, verdict), "oracle": oracle.outcome,
            "agree": agree}


def _printed_row(memo: dict, as_json: bool, spec: RepSpec) -> tuple:
    """One decided row as the table prints it, its JSON text (flags and
    witness encoded through memo) or its text cells, and whether it agrees
    with the closed form."""
    row = _table_row(spec)
    if as_json:
        out = ROW_JSON % tuple(_dumps(row[key], memo, ROW_INDENT)
                               for key in ROW_KEYS)
    else:
        out = tuple(str(row[head]) for head in TABLE_HEADS)
    return out, row["agree"] == "yes"


def _write_table(args: SimpleNamespace, specs: list, printed) -> list:
    """Writes the printed rows in order, each JSON row as soon as it comes
    and the text table once its widths are known, and returns the labels
    of the rows that disagree with the closed form."""
    as_json = args.format == "json"
    write = sys.stdout.write
    if as_json:
        write(REPORT_HEAD % (args.k, args.n))
    cells = [TABLE_HEADS]
    broken = []
    separator = "\n    "
    for spec, (out, agrees) in zip(specs, printed):
        if not agrees:
            broken.append(spec.label())
        if as_json:
            write(separator + out)
            separator = ",\n    "
        else:
            cells.append(out)
    if as_json:
        write(REPORT_TAIL)
    else:
        widths = [max(map(len, column)) for column in zip(*cells)]
        print("\n".join("  ".join(map(str.ljust, line, widths)).rstrip()
                        for line in cells))
    return broken


# the irreps of the table that a worker process sweeps, set as it starts
_specs: list = []


def _share(specs: list) -> None:
    global _specs
    _specs = specs


def _printed_part(printed, part: slice) -> list:
    # run in a worker: the rows of one part of its table, printed
    return list(map(printed, _specs[part]))


def cmd_table(args: SimpleNamespace) -> int:
    _check_class(args)
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    specs = enumerate_irreps(args.k, args.n)
    # one memo for the report in this process; a worker unpickles the
    # function afresh, empty memo included, with each part it is sent
    printed = partial(_printed_row, {}, args.format == "json")
    # the pool starts all of its workers at once, so at most one per row
    # and one per CPU
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a one-process run does not need multiprocessing
        from multiprocessing import Pool
        # one row per task costs more in pickling than a row takes to
        # decide; about four parts per worker still share out uneven rows
        chunk = -(-len(specs) // (4 * workers))
        parts = [slice(i, i + chunk) for i in range(0, len(specs), chunk)]
        # a worker gets its table once and then only slices of it, so each
        # task is a few bytes: leaving the block terminates the pool, which
        # drops the parts still running or waiting on a closed stdout or a
        # failed row, and does not hang on a task too large for the pipe
        with Pool(workers, _share, (specs,)) as pool:
            rows = pool.imap(partial(_printed_part, printed), parts)
            broken = _write_table(args, specs,
                                  itertools.chain.from_iterable(rows))
    else:
        broken = _write_table(args, specs, map(printed, specs))
    if broken:
        print("oracle disagreement on: %s" % ", ".join(broken), file=sys.stderr)
        raise InternalError("classifier disagrees with the closed-form oracle")
    return EXIT_DECIDED


# diagram

# each --subrack selector: the kind of its family (nichols.braidspace.FAMILIES)
# and the integers it takes after a colon, None for a selector that takes none
SELECTORS = {"canonical": ("canonical", None),
             "triple": ("canonical-triple", "<l>"),
             "quadruple": ("quadruple-swap", "<i>,<j>"),
             "rotation": ("quadruple-rotation", None),
             "powers": ("powers", None)}


def _build_subrack(cls: UnmixedClass, selector: str):
    name, colon, arg = selector.partition(":")
    kind, shape = SELECTORS.get(name, (None, None))
    if kind is None or (colon and shape is None):
        raise UsageError("unknown subrack selector %r" % selector)
    try:
        params = [_integer(tok) for tok in arg.split(",")] if shape else []
        if shape and len(params) != shape.count(",") + 1:
            raise ValueError
    except ValueError:
        raise UsageError("bad subrack selector %r: %s needs %s"
                         % (selector, name, shape)) from None
    try:
        return FAMILIES[kind](cls, *params)
    except ValueError as exc:
        raise UsageError("bad subrack selector %r: %s" % (selector, exc)) from None


def cmd_diagram(args: SimpleNamespace) -> int:
    _check_class(args)
    spec = _parse_spec(args)
    if args.subrack is not None:
        plan = subrack_plan(_build_subrack(UnmixedClass(args.k, args.n),
                                           args.subrack))
    else:
        dot = decide(args.k, args.n, spec).witness.get("diagram_dot")
        # no witness diagram: show the first candidate subrack, if any
        plan = None if dot else next(class_plan(args.k, args.n).plans(), None)
        chunks = [dot or EMPTY_DOT]
    if plan is not None:
        chunks = dynkin_diagram(plan, spec.character()).dot_lines()
    print("// " + DOT_SCHEMA)
    for chunk in chunks:
        print(chunk)
    return EXIT_DECIDED


# the command line

# an option: (converter, required, default, help); the converter is
# _integer, str, or the tuple of the values accepted
CLASS_OPTIONS = {"--k": (_integer, True, None, "cycle length"),
                 "--n": (_integer, True, None, "number of cycles")}
REP_OPTION = {"--rep": (str, True, None,
                        'representation spec, e.g. "chi=(1,1,1);mu=standard"')}

# each command: its function, what it does, and its options
COMMANDS = {
    "classify": (cmd_classify, "classify a single representation", {
        **CLASS_OPTIONS, **REP_OPTION,
        "--format": (("text", "json", "dot"), False, "text", "output format")}),
    "table": (cmd_table, "classify every centralizer irrep", {
        **CLASS_OPTIONS,
        "--format": (("text", "json"), False, "text", "output format"),
        "--jobs": (_integer, False, 1, "worker processes")}),
    "diagram": (cmd_diagram, "print a braiding diagram as DOT", {
        **CLASS_OPTIONS, **REP_OPTION,
        "--subrack": (str, False, None, " | ".join(
            name + (":" + shape if shape else "")
            for name, (_, shape) in SELECTORS.items()))}),
}
HELP = ("-h", "--help")


def usage(command=None) -> str:
    """The usage of one command, or of every command, read from COMMANDS."""
    if command is None:
        return "usage: %s {%s} ...\n\n%s" % (
            PROG, ",".join(COMMANDS), "\n\n".join(map(usage, COMMANDS)))
    _, about, options = COMMANDS[command]
    words = []
    lines = []
    for name, (convert, required, default, text) in options.items():
        meta = name + " " + ("{%s}" % ",".join(convert) if isinstance(convert, tuple)
                             else name[2:].upper())
        words.append(meta if required else "[%s]" % meta)
        if default is not None:
            text += " (default: %s)" % default
        lines.append("  %-24s %s" % (meta, text))
    return "usage: %s %s %s\n  %s\n%s" % (PROG, command, " ".join(words), about,
                                        "\n".join(lines))


def parse_args(argv) -> SimpleNamespace:
    """The command and the value of each of its options, read from argv:
    `--opt value` or `--opt=value`, each value converted as it is read, the
    last of a repeated option kept.  Prints the usage and returns None on
    -h or --help; raises UsageError on anything else it cannot read."""
    command = argv[0] if argv else None
    if command in HELP:
        print(usage())
        return None
    if command not in COMMANDS:
        raise UsageError("the command must be one of %s%s" % (
            ", ".join(COMMANDS), "" if command is None else ", not %r" % command))
    options = COMMANDS[command][2]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP:
            print(usage(command))
            return None
        name, eq, value = token.partition("=")
        if name not in options:
            raise UsageError("unrecognized argument %r" % token)
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError("argument %s needs a value" % name)
        convert = options[name][0]
        if isinstance(convert, tuple):
            if value not in convert:
                raise UsageError("argument %s: %r is not one of %s"
                                 % (name, value, ", ".join(convert)))
        else:
            try:
                value = convert(value)
            except ValueError as exc:
                raise UsageError("argument %s: %s" % (name, exc)) from None
        given[name] = value
    missing = [name for name, option in options.items()
               if option[1] and name not in given]
    if missing:
        raise UsageError("the following arguments are required: %s"
                         % ", ".join(missing))
    return SimpleNamespace(command=command, **{
        name[2:]: given.get(name, option[2]) for name, option in options.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            # the usage was asked for, and printed
            return EXIT_DECIDED
        started = time.monotonic()
        code = COMMANDS[args.command][0](args)
    except UsageError as exc:
        print("%s: error: %s" % (PROG, exc), file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # stdout was closed, as when the table is piped to head: what is
        # left in its buffer goes to the null device, so that the flush at
        # exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IOERR
    except InternalError as exc:
        print("%s: internal error: %s" % (PROG, exc), file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print("%s: internal error: %s: %s" % (
            PROG, type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL
    print("elapsed: %.3fs" % (time.monotonic() - started), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
