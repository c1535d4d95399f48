"""Command-line front end: classify one representation, sweep a table of
all centralizer irreps, or print a braiding diagram in DOT form.

Exit codes: 0 for a decided outcome, 64 for usage errors, 70 for internal
invariant violations: table/oracle disagreement, or a representation that
no rule decides.
Timing goes to stderr so stdout stays byte-identical between runs.
A JSON report is byte-identical to json.dumps(report, sort_keys=True,
indent=2), encoded in one pass that writes each dict object once: rows
that share a verdict (those whose characters restrict alike, and the
scalar-gate rows of one basepoint scalar) share one witness dict, and it
is encoded once per report (_dumps).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from json.encoder import encode_basestring_ascii

from .braidspace import FAMILIES, dynkin_diagram, subrack_plan
from .permgroup import UnmixedClass
from .reps import RepSpec, enumerate_irreps, parse_rep_spec, pi_scalar
from .verdict import class_plan, closed_form_verdict, decide

JSON_SCHEMA = "nichols.report/1"
DOT_SCHEMA = "nichols.diagram/1"
# printed where a verdict has no diagram and no subrack provides one
EMPTY_DOT = "graph diagram {\n}"

EXIT_DECIDED = 0
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# witness fields too bulky for the text format; json carries everything
TEXT_SKIP = frozenset((
    "q_matrix", "diagram_dot", "element_images", "transporter_images",
    "partners", "vertices", "subrack"))


# exact type to encoder; str goes through the C quoter
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: lambda value: "true" if value else "false",
            type(None): lambda value: "null"}


def _dumps(value, memo: dict, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for a
    value whose lines start with indent (a newline and the spaces of its
    depth).  Each dict object is encoded once and kept in memo, keyed by
    id() with the object held so that its id stays taken, together with the
    indent it was encoded at.  A dict met again at another depth is
    re-indented by replacing that indent with its own, which is safe
    because an encoded string holds no raw newline.  A dict key that is not
    a str raises TypeError (json.dumps would convert it)."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        hit = memo.get(id(value))
        if hit is None:
            items = [encode_basestring_ascii(key) + ": " + _dumps(value[key], memo, inner)
                     for key in sorted(value)]
            hit = memo[id(value)] = (value, indent, _block("{", items, "}", indent))
        return hit[2] if hit[1] == indent else hit[2].replace(hit[1], indent)
    if isinstance(value, (list, tuple)):
        return _block("[", [_dumps(item, memo, inner) for item in value], "]", indent)
    return json.dumps(value)


def _block(opening: str, items: list, closing: str, indent: str) -> str:
    if not items:
        return opening + closing
    inner = indent + "  "
    return opening + inner + ("," + inner).join(items) + indent + closing


class UsageError(Exception):
    pass


class InternalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: an in-process caller
    of main does not build it again on every call."""
    parser = _Parser(prog="nichols", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep_required: bool):
        p.add_argument("--k", type=int, required=True, help="cycle length")
        p.add_argument("--n", type=int, required=True, help="number of cycles")
        if rep_required:
            p.add_argument("--rep", required=True,
                           help='representation spec, e.g. "chi=(1,1,1);mu=standard"')

    p = sub.add_parser("classify", help="classify a single representation")
    common(p, rep_required=True)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = sub.add_parser("table", help="classify every centralizer irrep")
    common(p, rep_required=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = sub.add_parser("diagram", help="print a braiding diagram as DOT")
    common(p, rep_required=True)
    p.add_argument("--subrack", default=None, help=" | ".join(
        name + (":" + shape if shape else "")
        for name, (_, shape) in SELECTORS.items()))
    return parser


def _check_class(args: argparse.Namespace):
    if args.k < 2:
        raise UsageError("--k must be at least 2")
    if args.n < 1:
        raise UsageError("--n must be at least 1")


def _parse_spec(args: argparse.Namespace):
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
        "q_pi": str(pi_scalar(spec)),
        "outcome": verdict.outcome,
        "rule": verdict.rule,
        "witness": verdict.witness,
        "flags": list(verdict.flags),
    }


def classify_report(args: argparse.Namespace, spec, verdict) -> dict:
    return {"schema": JSON_SCHEMA, "command": "classify", "k": args.k,
            "n": args.n, **_verdict_fields(spec, verdict)}


def _text_lines(report: dict) -> list:
    lines = []
    for key in ("rep", "degree", "q_pi", "outcome", "rule"):
        lines.append("%s: %s" % (key, report[key]))
    witness = report["witness"]
    sub = witness.get("subrack")
    if sub:
        lines.append("subrack: %s %s" % (
            sub["kind"], ",".join(str(x) for x in sub["param"])))
    for key in sorted(witness):
        if key in TEXT_SKIP:
            continue
        lines.append("witness.%s: %s" % (key, json.dumps(witness[key], sort_keys=True)))
    if "vertices" in witness:
        lines.append("witness.vertex_count: %d" % len(witness["vertices"]))
    for flag in report["flags"]:
        lines.append("flag: %s" % flag)
    return lines


def cmd_classify(args: argparse.Namespace) -> int:
    _check_class(args)
    spec = _parse_spec(args)
    verdict = decide(args.k, args.n, spec)
    report = classify_report(args, spec, verdict)
    if args.format == "json":
        print(_dumps(report, {}))
    elif args.format == "dot":
        dot = verdict.witness.get("diagram_dot", EMPTY_DOT)
        print("// %s" % DOT_SCHEMA)
        print(dot)
    else:
        print("\n".join(_text_lines(report)))
    return EXIT_DECIDED


# table

def _table_row(spec: RepSpec) -> dict:
    verdict = decide(spec.k, spec.n, spec)
    oracle = closed_form_verdict(spec.k, spec.n, spec)
    agree = "yes" if verdict.outcome == oracle.outcome else "no"
    return {**_verdict_fields(spec, verdict), "oracle": oracle.outcome,
            "agree": agree}


def _format_table(rows: list) -> list:
    heads = ("rep", "degree", "q_pi", "outcome", "rule", "oracle", "agree")
    cells = [heads] + [
        tuple(str(row[h]) for h in heads) for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(heads))]
    lines = []
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return lines


def cmd_table(args: argparse.Namespace) -> int:
    _check_class(args)
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    specs = enumerate_irreps(args.k, args.n)
    # a fork-based pool starts all of its workers at the first submit
    workers = min(args.jobs, len(specs))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # one-process run does not need
        from concurrent.futures import ProcessPoolExecutor
        # one row per task costs more in pickling than a row takes to
        # decide; about four chunks per worker still share out uneven rows
        chunk = -(-len(specs) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_table_row, specs, chunksize=chunk))
    else:
        rows = [_table_row(spec) for spec in specs]
    if args.format == "json":
        report = {
            "schema": JSON_SCHEMA,
            "command": "table",
            "k": args.k,
            "n": args.n,
            "rows": rows,
        }
        print(_dumps(report, {}))
    else:
        print("\n".join(_format_table(rows)))
    broken = [row["rep"] for row in rows if row["agree"] == "no"]
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
    name, _, arg = selector.partition(":")
    kind, shape = SELECTORS.get(name, (None, None))
    if kind is None or (arg and shape is None):
        raise UsageError("unknown subrack selector %r" % selector)
    try:
        params = [int(tok) for tok in arg.split(",")] if shape else []
        if shape and len(params) != shape.count(",") + 1:
            raise ValueError
    except ValueError:
        raise UsageError("bad subrack selector %r: %s needs %s"
                         % (selector, name, shape)) from None
    try:
        return FAMILIES[kind](cls, *params)
    except ValueError as exc:
        raise UsageError("bad subrack selector %r: %s" % (selector, exc)) from None


def cmd_diagram(args: argparse.Namespace) -> int:
    _check_class(args)
    spec = _parse_spec(args)

    def draw(plan) -> str:
        return dynkin_diagram(plan, spec.character()).to_dot()

    if args.subrack is not None:
        cls = UnmixedClass(args.k, args.n)
        dot = draw(subrack_plan(_build_subrack(cls, args.subrack)))
    else:
        dot = decide(args.k, args.n, spec).witness.get("diagram_dot")
        if dot is None:
            # no witness diagram: show the first candidate subrack, if any
            plan = next(class_plan(args.k, args.n).plans(), None)
            dot = EMPTY_DOT if plan is None else draw(plan)
    print("// %s" % DOT_SCHEMA)
    print(dot)
    return EXIT_DECIDED


COMMANDS = {
    "classify": cmd_classify,
    "table": cmd_table,
    "diagram": cmd_diagram,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    started = time.monotonic()
    try:
        code = COMMANDS[args.command](args)
    except UsageError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print("%s: internal error: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print("%s: internal error: %s: %s" % (
            parser.prog, type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL
    print("elapsed: %.3fs" % (time.monotonic() - started), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
