"""Benchmark for the `nichols` CLI: whole class sweeps timed end to end, and
a traced run that splits the cost by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `nichols` from `src/` and
needs nothing else.  Every episode is a fresh interpreter
(`perfbench/episode.py`), because the package keeps process-wide caches
that CLI users pay cold on every invocation.  Episodes run one after the
other, each a closed loop that submits one class or rep at a time.

With `--trace 0` the run repeats `episode_count` times: start SET_UP_RUNS
interpreters that only set up, then one untraced episode with probes
(`episode.py --probe`).  It reports the medians over the run of peak
memory and of the times at the reference speed of the machine, set-up time
from the set-up-only interpreters.  With `--trace 1` it runs one untraced
and one traced episode, neither with probes, and reports the per-layer
metrics of the traced one.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
workload, seed, machine and episodes.  Operations are rows: every row each
episode printed counts as attempted, and a row that fails the correctness
gate in `episode.py` counts as failed.  The exit code is 0 when a result was
printed; without `src/nichols` or when an episode crashes it is 2 and no
result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from episode import WORKLOADS  # noqa: E402

SET_UP_RUNS = 5
MIN_EPISODES = 2
MAX_EPISODES = 8
DEADLINE_S = 170.0   # a run must end within 180 s

# seconds one untraced episode and its set-up runs take on a shared
# 2-vCPU machine; fixes how many episodes a run of --seconds makes, the same
# for every version of the program
NOMINAL_EPISODE_S = {"sweep-k2n6": 16.0, "evenk-negative": 17.0,
                     "smoke-k2n4": 0.5}

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "verify_s": "s",
    "row_max_s": "s",
    "peak_rss_mb": "MB",
    "decided_rows": "count",
}

RULES = ("scalar-gate", "fixed-vector", "cartan-infinite", "alternating-cycle",
         "negative-exhaustive", "catalog-gap", "exhausted")


def layer_metrics(trace: dict, rules: dict, overhead: float) -> dict:
    """Per-layer metrics of one traced episode, as (value, unit) pairs."""
    sweep = trace["sweep"]
    counters = trace["counters"]

    def span(name, key):
        return sweep.get(name, {}).get(key, 0)

    out = {
        "permgroup.centralizer_walk.items":
            (counters.get("permgroup.centralizer_walk.items", 0), "count"),
        "permgroup.centralizer_walk.s": (span("permgroup.centralizer_walk", "s"), "s"),
        "permgroup.normal_form.calls": (span("permgroup.normal_form", "calls"), "count"),
        "permgroup.transporter.calls": (span("permgroup.transporter", "calls"), "count"),
        "reps.resolve.calls": (span("reps.resolve", "calls"), "count"),
        "reps.resolve.s": (span("reps.resolve", "s"), "s"),
        "reps.evaluate.calls": (span("reps.evaluate", "calls"), "count"),
        "reps.evaluate.s": (span("reps.evaluate", "s"), "s"),
        "reps.evaluate.entries": (span("reps.evaluate", "measure"), "count"),
        "reps.pi_scalar.s": (span("reps.pi_scalar", "s"), "s"),
        "exactla.simultaneous_diagonalize.calls":
            (span("exactla.simultaneous_diagonalize", "calls"), "count"),
        "exactla.simultaneous_diagonalize.s":
            (span("exactla.simultaneous_diagonalize", "s"), "s"),
        "exactla.simultaneous_diagonalize.max_dim":
            (span("exactla.simultaneous_diagonalize", "measure"), "count"),
        "exactfield.cyclotomic.created":
            (counters.get("exactfield.cyclotomic.created", 0), "count"),
        "braidspace.subrack.calls": (span("braidspace.subrack", "calls"), "count"),
        "braidspace.subrack.s": (span("braidspace.subrack", "s"), "s"),
        "braidspace.diagonal_subspace.calls":
            (span("braidspace.diagonal_subspace", "calls"), "count"),
        "braidspace.diagonal_subspace.s": (span("braidspace.diagonal_subspace", "s"), "s"),
        "braidspace.diagonal_subspace.vertices":
            (span("braidspace.diagonal_subspace", "measure"), "count"),
        "braidspace.dynkin_diagram.calls":
            (span("braidspace.dynkin_diagram", "calls"), "count"),
        "braidspace.dynkin_diagram.s": (span("braidspace.dynkin_diagram", "s"), "s"),
        "braidspace.dynkin_diagram.edges":
            (span("braidspace.dynkin_diagram", "measure"), "count"),
        "verdict.decide.calls": (span("verdict.decide", "calls"), "count"),
        "verdict.decide.self_s": (span("verdict.decide", "self_s"), "s"),
        "verdict.cartan_type.s": (span("verdict.cartan_type", "s"), "s"),
        "verdict.finite_type.s": (span("verdict.finite_type", "s"), "s"),
        "verdict.cycle_rule.s": (span("verdict.cycle_rule", "s"), "s"),
        "verdict.negativity_check.s": (span("verdict.negativity_check", "s"), "s"),
        "verdict.negativity_check.pairs":
            (span("verdict.negativity_check", "measure"), "count"),
        "verdict.verify_witness.s":
            (trace["verify"].get("verdict.verify_witness", {}).get("s", 0), "s"),
        "cli.self_s": (span("cli.main", "self_s"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    for rule in RULES:
        out["verdict.rule." + rule] = (rules.get(rule, 0), "count")
    return out


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_rev": git_rev(ROOT)}


def git_rev(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def episode_count(workload: str, seconds: int) -> int:
    """Untraced episodes in a run of --seconds: fixed by the workload's
    nominal episode time, not by how fast this run goes, so that every
    version of the program is measured over as many samples."""
    return max(MIN_EPISODES,
               min(MAX_EPISODES, int(seconds // NOMINAL_EPISODE_S[workload])))


class EpisodeError(Exception):
    pass


def run_child(args: list, deadline: float) -> dict:
    """Start episode.py in a fresh interpreter and return its JSON result."""
    # a fixed hash seed, so that episodes of one seed lay out and iterate
    # their dicts and sets alike
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise EpisodeError("out of time before starting an episode")
    cmd = [sys.executable, str(HERE / "episode.py")] + args
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise EpisodeError("episode did not finish in time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise EpisodeError("episode exited with code %d" % proc.returncode)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise EpisodeError("episode printed no result") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the traced episode's spans "
                             "here as JSON lines")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nichols" / "cli.py").is_file():
        print("perfbench: no src/nichols under %s" % ROOT, file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            plain = run_child(base, deadline)
            extra = ["--spans", str(Path(args.spans).resolve())] if args.spans else []
            traced = run_child(base + ["--trace"] + extra, deadline)
            episodes = [plain, traced]
            setups = []
        else:
            setups = []
            episodes = []
            # fewer than planned only when the next would overrun the deadline
            while len(episodes) < episode_count(args.workload, args.seconds):
                now = time.monotonic()
                if len(episodes) >= MIN_EPISODES and \
                        now + (now - started) / len(episodes) > deadline:
                    break
                setups += [run_child(base + ["--setup-only"], deadline)
                           for _ in range(SET_UP_RUNS)]
                episodes.append(run_child(base + ["--probe"], deadline))
    except EpisodeError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    if args.trace:
        overhead = traced["sweep_s"] / plain["sweep_s"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in layer_metrics(traced["trace"], traced["rules"], overhead).items()}
    else:
        values = {
            "setup_s": statistics.median(run["at_reference"]["setup_s"]
                                         for run in setups),
            "peak_rss_mb": statistics.median(ep["peak_rss_mb"] for ep in episodes),
            "decided_rows": statistics.median(ep["decided"] for ep in episodes),
        }
        for name in ("sweep_s", "verify_s", "row_max_s"):
            values[name] = statistics.median(ep["at_reference"][name]
                                             for ep in episodes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    failed = sum(ep["failed"] for ep in episodes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "episodes": [dict({key: ep[key] for key in
                           ("setup_s", "sweep_s", "verify_s", "row_max_s",
                            "peak_rss_mb", "rows", "failed", "decided", "rules",
                            "probes", "probe_mean_s")},
                          at_reference=ep.get("at_reference"),
                          decide_s=sum(ep["decide_s"]))
                     for ep in episodes],
        "set_up_runs": setups,
        "absent": traced["trace"]["absent"] if args.trace else [],
        "failures": sorted({f for ep in episodes for f in ep["failures"]})[:10],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(ep["rows"] for ep in episodes),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
