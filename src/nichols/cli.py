"""Command-line front end: classify one representation, sweep a table of
all centralizer irreps, or print a braiding diagram in DOT form.

Exit codes: 0 for a decided outcome, 64 for usage errors, 70 for internal
invariant violations: table/oracle disagreement, or a representation that
no rule decides.
Timing goes to stderr so stdout stays byte-identical between runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NamedTuple, Optional

from .braidspace import canonical_subrack, diagonal_subspace, dynkin_diagram, \
    powers_subrack, quadruple_subrack, rotation_subrack, triple_subrack
from .permgroup import UnmixedClass
from .reps import enumerate_irreps, parse_rep_spec, pi_scalar
from .verdict import candidate_subracks, closed_form_verdict, decide

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


class UsageError(Exception):
    pass


class InternalError(Exception):
    pass


class RunConfig(NamedTuple):
    """One CLI invocation; identical configs must print identical stdout."""

    command: str
    k: int
    n: int
    rep: Optional[str] = None
    fmt: str = "text"
    subrack: Optional[str] = None
    jobs: int = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
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
    p.add_argument("--subrack", default=None,
                   help="canonical | triple:<l> | quadruple:<i>,<j> | rotation | powers")
    return parser


def run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        k=args.k,
        n=args.n,
        rep=getattr(args, "rep", None),
        fmt=getattr(args, "format", "text"),
        subrack=getattr(args, "subrack", None),
        jobs=getattr(args, "jobs", 1))


def _check_class(cfg: RunConfig):
    if cfg.k < 2:
        raise UsageError("--k must be at least 2")
    if cfg.n < 1:
        raise UsageError("--n must be at least 1")


def _parse_spec(cfg: RunConfig):
    try:
        return parse_rep_spec(cfg.k, cfg.n, cfg.rep)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# classify

def classify_report(cfg: RunConfig, spec, verdict) -> dict:
    return {
        "schema": JSON_SCHEMA,
        "command": "classify",
        "k": cfg.k,
        "n": cfg.n,
        "rep": spec.label(),
        "degree": spec.degree(),
        "q_pi": str(pi_scalar(spec)),
        "outcome": verdict.outcome,
        "rule": verdict.rule,
        "witness": verdict.witness,
        "flags": list(verdict.flags),
    }


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


def cmd_classify(cfg: RunConfig) -> int:
    _check_class(cfg)
    spec = _parse_spec(cfg)
    verdict = decide(cfg.k, cfg.n, spec)
    report = classify_report(cfg, spec, verdict)
    if cfg.fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    elif cfg.fmt == "dot":
        dot = verdict.witness.get("diagram_dot", EMPTY_DOT)
        print("// %s" % DOT_SCHEMA)
        print(dot)
    else:
        print("\n".join(_text_lines(report)))
    return EXIT_DECIDED


# table

def _table_row(k: int, n: int, label: str) -> dict:
    spec = parse_rep_spec(k, n, label)
    verdict = decide(k, n, spec)
    oracle = closed_form_verdict(k, n, spec)
    agree = "yes" if verdict.outcome == oracle.outcome else "no"
    return {
        "rep": spec.label(),
        "degree": spec.degree(),
        "q_pi": str(pi_scalar(spec)),
        "outcome": verdict.outcome,
        "rule": verdict.rule,
        "oracle": oracle.outcome,
        "agree": agree,
        "witness": verdict.witness,
        "flags": list(verdict.flags),
    }


def _table_worker(task: tuple) -> dict:
    return _table_row(*task)


def _format_table(rows: list) -> list:
    heads = ("rep", "degree", "q_pi", "outcome", "rule", "oracle", "agree")
    cells = [heads] + [
        tuple(str(row[h]) for h in heads) for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(heads))]
    lines = []
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return lines


def cmd_table(cfg: RunConfig) -> int:
    _check_class(cfg)
    if cfg.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    labels = [spec.label() for spec in enumerate_irreps(cfg.k, cfg.n)]
    tasks = [(cfg.k, cfg.n, label) for label in labels]
    # a fork-based pool starts all of its workers at the first submit
    workers = min(cfg.jobs, len(tasks))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # one-process run does not need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_table_worker, tasks))
    else:
        rows = [_table_worker(task) for task in tasks]
    if cfg.fmt == "json":
        report = {
            "schema": JSON_SCHEMA,
            "command": "table",
            "k": cfg.k,
            "n": cfg.n,
            "rows": rows,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(_format_table(rows)))
    broken = [row["rep"] for row in rows if row["agree"] == "no"]
    if broken:
        print("oracle disagreement on: %s" % ", ".join(broken), file=sys.stderr)
        raise InternalError("classifier disagrees with the closed-form oracle")
    return EXIT_DECIDED


# diagram

def _selector_indices(name: str, arg: str, shape: str) -> list:
    # the integers of "<i>,<j>,...", as many as shape names
    tokens = arg.split(",")
    try:
        if len(tokens) == shape.count(",") + 1:
            return [int(tok) for tok in tokens]
    except ValueError:
        pass
    raise ValueError("%s needs %s" % (name, shape))


def _build_subrack(cls: UnmixedClass, selector: str):
    name, _, arg = selector.partition(":")
    try:
        if name == "canonical" and not arg:
            return canonical_subrack(cls)
        if name == "triple":
            l, = _selector_indices(name, arg, "<l>")
            return triple_subrack(cls, l)
        if name == "quadruple":
            i, j = _selector_indices(name, arg, "<i>,<j>")
            return quadruple_subrack(cls, i, j)
        if name == "rotation" and not arg:
            return rotation_subrack(cls)
        if name == "powers" and not arg:
            return powers_subrack(cls)
    except ValueError as exc:
        raise UsageError("bad subrack selector %r: %s" % (selector, exc)) from None
    raise UsageError("unknown subrack selector %r" % selector)


def cmd_diagram(cfg: RunConfig) -> int:
    _check_class(cfg)
    spec = _parse_spec(cfg)
    cls = UnmixedClass(cfg.k, cfg.n)

    def draw(subrack) -> str:
        return dynkin_diagram(diagonal_subspace(subrack, spec.character())).to_dot()

    if cfg.subrack is not None:
        dot = draw(_build_subrack(cls, cfg.subrack))
    else:
        dot = decide(cfg.k, cfg.n, spec).witness.get("diagram_dot")
        if dot is None:
            # no witness diagram: show the first candidate subrack, if any
            subrack = next(candidate_subracks(cls), None)
            dot = EMPTY_DOT if subrack is None else draw(subrack)
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
    cfg = run_config(args)
    started = time.monotonic()
    try:
        code = COMMANDS[cfg.command](cfg)
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
