"""One benchmark episode in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/episode.py --workload NAME --seed N \
        --launched T [--probe] [--trace] [--spans FILE] [--setup-only]

`--launched` is the `time.monotonic()` reading taken by the parent just
before it started this interpreter, so set-up time covers interpreter start,
the import of `nichols` and the enumeration of the irreps.  The episode then
submits every call of the workload, one at a time, through the public CLI
entry `nichols.cli.main(... --format json)`, checks every row it printed
and prints one JSON object with its measurements as the last line of
stdout.  The CLI's own stdout is captured, not printed.

A row fails, and is counted rather than stopping the episode, when its call
raises, its exit code does not match its outcome, a decided outcome differs
from `closed_form_verdict`, or an InfiniteDim witness does not re-verify
through `verify_witness` from the printed JSON.

With `--probe`, the times are also given at a reference speed of the
machine.  Other tenants of a shared machine slow it down by up to 2x, in
spells that come and go within seconds and in phases that last minutes.
So every PROBE_INTERVAL_S a timer signal interrupts the program and times
one fixed chunk of exact arithmetic, `probe_chunk`.  A span's work is its
wall time less the probes inside it; at the reference speed it is that work
times PROBE_REFERENCE_S over the mean probe time inside it.  With
`--setup-only`, SET_UP_PROBES probes run right after the set-up, which is
scaled by their mean.
"""

from __future__ import annotations

import time

LAUNCH_CLOCK = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

# Each workload is a list of CLI calls (command, k, n, rep).  The seed
# shuffles the calls; rows inside one `table` call keep the program's order.
WORKLOADS = {
    # dense diagonalization and Dynkin/Cartan analysis: 65 rows, degree up
    # to 80, all braiding values +-1, 20 catalog gaps, no centralizer walk
    "sweep-k2n6": [("table", 2, 6, None)],
    # the (4,4), (6,3), (8,2) tables: arithmetic over Q(zeta_4), Q(zeta_6),
    # Q(zeta_8), rotation and swap quadruples, 192 of 247 rows at the scalar
    # gate; plus two degree-1 negative rows at (4,5) whose cost is the
    # centralizer walk (122,880 elements, 4,671 partners each)
    "evenk-negative": [
        ("table", 4, 4, None), ("table", 6, 3, None), ("table", 8, 2, None),
        ("classify", 4, 5, "chi=(2,2,2,2,2);mu=trivial"),
        ("classify", 4, 5, "chi=(2,2,2,2,2);mu=sign"),
    ],
    # seconds-long smoke workload for the benchmark's own tests
    "smoke-k2n4": [("table", 2, 4, None),
                   ("classify", 2, 3, "chi=(1,1,1);mu=trivial")],
}

PROBE_INTERVAL_S = 0.025
SET_UP_PROBES = 10
# seconds a probe takes at the reference speed: about its mean on a shared
# 2-vCPU machine, so that times at the reference speed read close to wall
# times there
PROBE_REFERENCE_S = 0.0015
# a span with fewer probes inside is scaled by the probes of its phase
MIN_PROBES = 20

# the documented report and exit-code contract, spelled out here rather than
# imported, so that the gate checks the program against it
INFINITE = "InfiniteDim"
UNDECIDED = "Undecided"
OUTCOMES = (INFINITE, "NegativeBraiding", UNDECIDED)
EXIT_DECIDED = 0
EXIT_UNDECIDED = 2


def set_up(workload: str, seed: int) -> tuple:
    """Import the CLI, as every user run does, and enumerate the irreps:
    the workload's calls in submission order and the row labels each must
    print."""
    import nichols.cli  # noqa: F401
    calls = list(WORKLOADS[workload])
    random.Random(seed).shuffle(calls)
    return calls, [expected_labels(call) for call in calls]


def row_key(k: int, n: int, label: str) -> str:
    return "%d,%d:%s" % (k, n, label)


def expected_labels(call) -> list:
    """Row labels a call must print, in order."""
    from nichols.reps import enumerate_irreps, parse_rep_spec
    command, k, n, rep = call
    if command == "table":
        return [spec.label() for spec in enumerate_irreps(k, n)]
    return [parse_rep_spec(k, n, rep).label()]


def run_call(call) -> tuple:
    """(exit code or None, captured stdout, error text or None)."""
    from nichols import cli
    command, k, n, rep = call
    argv = [command, "--k", str(k), "--n", str(n), "--format", "json"]
    if rep is not None:
        argv += ["--rep", rep]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        return None, out.getvalue(), "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), None


def report_rows(call, code, stdout: str, labels: list):
    """The printed rows of one call, each tagged with its call and exit
    code, or an error text when the report is unusable."""
    command, k, n, _ = call
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, "stdout is not JSON: %s" % exc
    rows = report["rows"] if command == "table" else [report]
    if [row.get("rep") for row in rows] != labels:
        return None, "printed rows do not match the irreps of (%d,%d)" % (k, n)
    return [dict(row, command=command, k=k, n=n, code=code) for row in rows], None


def check_row(row: dict, spans: list):
    """None when the row passes the gate, else the reason it fails.

    Appends the (start, end) of its `verify_witness` call, if any, to
    spans."""
    from nichols import verdict
    outcome = row.get("outcome")
    if outcome not in OUTCOMES:
        return "unknown outcome %r" % (outcome,)
    want = EXIT_DECIDED
    if row["command"] == "classify" and outcome == UNDECIDED:
        want = EXIT_UNDECIDED
    if row["code"] != want:
        return "exit code %r, want %d" % (row["code"], want)
    k, n, rep = row["k"], row["n"], row["rep"]
    if outcome == UNDECIDED:
        return None
    oracle = verdict.closed_form_verdict(k, n, rep)
    if oracle.outcome != outcome:
        return "outcome %s, closed form says %s" % (outcome, oracle.outcome)
    if outcome != INFINITE:
        return None
    claim = verdict.Verdict(outcome, row["rule"], row["witness"],
                            tuple(row.get("flags", ())))
    start = perf_counter()
    try:
        ok = verdict.verify_witness(k, n, rep, claim)
    except Exception as exc:
        return "verify_witness raised %s: %s" % (type(exc).__name__, exc)
    finally:
        spans.append((start, perf_counter()))
    return None if ok else "witness does not verify"


def gate(rows: list) -> tuple:
    """(failure reasons keyed by row label, (start, end) of each
    `verify_witness` call)."""
    spans = []
    failures = {}
    for row in rows:
        reason = check_row(row, spans)
        if reason is not None:
            failures[row_key(row["k"], row["n"], row["rep"])] = reason
    return failures, spans


def _time_rows(spans: list) -> None:
    # one timer around `decide` as the CLI looks it up: (start, end) of
    # each row
    from nichols import cli
    decide = cli.decide

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return decide(*args, **kwargs)
        finally:
            spans.append((start, perf_counter()))
    cli.decide = timed


def probe_chunk() -> Fraction:
    """About a millisecond of the work the program does most: exact
    elimination of a fixed 8x8 rational matrix."""
    n = 8
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, i + j + 1) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows[-1][-1]


class Probe:
    """Runs `probe_chunk` every PROBE_INTERVAL_S of wall time, from a
    SIGALRM handler, and keeps the (start, seconds) of each run."""

    def __init__(self) -> None:
        self.runs = []
        self._running = False

    def _run(self, signum, frame) -> None:
        if self._running:   # a signal that arrived during a probe
            return
        self._running = True
        start = perf_counter()
        probe_chunk()
        self.runs.append((start, perf_counter() - start))
        self._running = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.runs:
            self._run(None, None)

    def inside(self, spans: list) -> list:
        """Seconds of each probe run inside one of spans."""
        return [took for at, took in self.runs
                if any(start <= at < end for start, end in spans)]

    def work_s(self, spans: list) -> float:
        """Wall time of spans less the probes run inside them."""
        return sum(end - start for start, end in spans) - sum(self.inside(spans))

    def at_reference(self, spans: list, phase: list) -> float:
        """Work in spans at the reference speed, scaled by the probes
        inside them; by those inside phase when fewer than MIN_PROBES ran
        in spans, and by all when fewer ran in phase too."""
        probes = self.inside(spans)
        if len(probes) < MIN_PROBES:
            probes = self.inside(phase)
        if len(probes) < MIN_PROBES:
            probes = [took for _, took in self.runs]
        return self.work_s(spans) * PROBE_REFERENCE_S * len(probes) / sum(probes)


def run_episode(workload: str, seed: int, launched: float, tracer=None,
                probe=None) -> dict:
    calls, labels = set_up(workload, seed)
    if tracer is not None:
        tracer.install()
    decided = []
    _time_rows(decided)
    if probe is not None:
        probe.start()

    # each phase starts with no collection pending from the one before
    gc.collect()
    if tracer is not None:
        tracer.phase = "sweep"
    first = time.monotonic()
    start = perf_counter()
    rows = []
    failures = {}
    digests = []
    for call, want in zip(calls, labels):
        code, stdout, error = run_call(call)
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        got = None
        if error is None:
            got, error = report_rows(call, code, stdout, want)
        if error is not None:
            for label in want:
                failures[row_key(call[1], call[2], label)] = error
            continue
        rows.extend(got)
    sweep = [(start, perf_counter())]

    gc.collect()
    if tracer is not None:
        tracer.phase = "verify"
    row_failures, verified = gate(rows)
    failures.update(row_failures)
    if tracer is not None:
        tracer.phase = "done"
    if probe is None:
        probe = Probe()     # no runs: work is wall time
    else:
        probe.stop()

    rules = {}
    for row in rows:
        rules[row["rule"]] = rules.get(row["rule"], 0) + 1
    decide_s = [probe.work_s([span]) for span in decided]
    result = {
        "setup_s": first - launched,
        "sweep_s": probe.work_s(sweep),
        "verify_s": probe.work_s(verified),
        "row_max_s": max(decide_s, default=0.0),
        "decide_s": decide_s,
        "probes": len(probe.runs),
        "probe_mean_s": (sum(took for _, took in probe.runs) / len(probe.runs)
                         if probe.runs else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": sum(len(want) for want in labels),
        "failed": len(failures),
        "failures": sorted("%s: %s" % item for item in failures.items())[:10],
        "decided": sum(1 for row in rows if row["outcome"] != UNDECIDED),
        "rules": rules,
        "stdout_sha256": digests,
    }
    if probe.runs:
        result["at_reference"] = {
            "sweep_s": probe.at_reference(sweep, sweep),
            "verify_s": probe.at_reference(verified, verified),
            "row_max_s": max((probe.at_reference([span], sweep)
                              for span in decided), default=0.0),
        }
    return result


def trace_summary(tracer) -> dict:
    sweep_spans, sweep_counters = tracer.summary("sweep")
    verify_spans, _ = tracer.summary("verify")
    return {"sweep": sweep_spans, "counters": sweep_counters,
            "verify": verify_spans, "absent": tracer.absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, default=LAUNCH_CLOCK)
    parser.add_argument("--probe", action="store_true",
                        help="also give the times at the reference speed")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="with --trace, write every span here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        set_up(args.workload, args.seed)
        setup_s = time.monotonic() - args.launched
        probes = []
        for _ in range(SET_UP_PROBES):
            start = perf_counter()
            probe_chunk()
            probes.append(perf_counter() - start)
        print(json.dumps({"setup_s": setup_s, "at_reference": {
            "setup_s": setup_s * PROBE_REFERENCE_S * len(probes) / sum(probes)}}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    result = run_episode(args.workload, args.seed, args.launched, tracer,
                         Probe() if args.probe else None)
    if tracer is not None:
        result["trace"] = trace_summary(tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
