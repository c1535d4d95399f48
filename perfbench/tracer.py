"""In-memory span tracer that wraps the public functions of `nichols` from
outside the package.

Each wrapped call records one span (id, parent, name, phase, start, end) in a
list kept in memory; nothing is written until the episode ends.  A span's
self time is its duration minus the durations of its direct children.
Functions are wrapped at every place they are looked up: a name imported
into a sibling module (`verdict` imports `pi_scalar`, `cli` imports
`decide`, ...) is rebound there too, so no call path escapes the tracer.  A
name that no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

PACKAGE = "nichols"

SUBRACKS = ("canonical_subrack", "triple_subrack", "quadruple_subrack",
            "rotation_subrack", "powers_subrack")


def _entries(result):
    return result.nrows * result.nrows


def _basis_size(result):
    return len(result[0])


def _vertices(result):
    return len(result.vertices)


def _edges(result):
    return len(result.edges)


def _pairs(result):
    return result.pairs_checked


# (defining module, attribute path, span name, measure of the result); the
# measures are summed per span name, except those in MAX_MEASURES
CALLS = (
    ("permgroup", "UnmixedClass.normal_form", "permgroup.normal_form", None),
    ("permgroup", "UnmixedClass.transporter", "permgroup.transporter", None),
    ("reps", "RepSpec.resolve", "reps.resolve", None),
    ("reps", "InducedRep.evaluate", "reps.evaluate", _entries),
    ("reps", "pi_scalar", "reps.pi_scalar", None),
    ("exactla", "simultaneous_diagonalize", "exactla.simultaneous_diagonalize",
     _basis_size),
    ("braidspace", "diagonal_subspace", "braidspace.diagonal_subspace",
     _vertices),
    ("braidspace", "dynkin_diagram", "braidspace.dynkin_diagram", _edges),
    ("verdict", "decide", "verdict.decide", None),
    ("verdict", "cartan_type", "verdict.cartan_type", None),
    ("verdict", "finite_type", "verdict.finite_type", None),
    ("verdict", "cycle_rule", "verdict.cycle_rule", None),
    ("verdict", "negativity_check", "verdict.negativity_check", _pairs),
    ("verdict", "verify_witness", "verdict.verify_witness", None),
    ("cli", "main", "cli.main", None),
) + tuple(("braidspace", name, "braidspace.subrack", None) for name in SUBRACKS)

MAX_MEASURES = frozenset(("exactla.simultaneous_diagonalize",))

# generator methods: one span per next(), one item counted per value yielded
GENERATORS = (
    ("permgroup", "UnmixedClass.centralizer_elements",
     "permgroup.centralizer_walk"),
)

# constructors counted but not timed: at this grain a span per call would
# mostly measure the wrapper
COUNTERS = (
    ("exactfield", "Cyclotomic.__init__", "exactfield.cyclotomic"),
)


def _lookup(module_name: str, path: str):
    """(owner, attribute, value) for module.path, or None when absent."""
    try:
        owner = importlib.import_module("%s.%s" % (PACKAGE, module_name))
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    value = vars(owner).get(attr)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Spans and counters of one process; `install()` patches the package,
    `uninstall()` restores it."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans = []     # (id, parent, name, phase, start, end, children_s, measure)
        self.counters = {}  # (phase, name) -> count
        self.absent = []
        self._stack = []    # open spans: [id, children_s]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    def _open(self):
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return parent, frame, perf_counter()

    def _close(self, name, parent, frame, start, measure) -> None:
        end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append(
            (frame[0], parent, name, self.phase, start, end, frame[1], measure))

    def _count(self, name: str) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + 1

    def _wrap_call(self, fn, name, measure):
        def traced(*args, **kwargs):
            parent, frame, start = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                value = measure(result) if measure and result is not None else 0
                self._close(name, parent, frame, start, value)
        return traced

    def _wrap_generator(self, fn, name):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent, frame, start = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, parent, frame, start, 0)
                self._count(name + ".items")
                yield item
        return traced

    def _wrap_counter(self, fn, name):
        def counted(*args, **kwargs):
            self._count(name + ".created")
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module_name: str, path: str, wrap) -> None:
        found = _lookup(module_name, path)
        if found is None:
            self.absent.append("%s.%s" % (module_name, path))
            return
        owner, attr, original = found
        wrapper = wrap(original)
        places = [(owner, attr)]
        if "." not in path:
            # the same function object imported by name into sibling modules
            for mod_name, mod in list(sys.modules.items()):
                if mod is not owner and mod_name.startswith(PACKAGE + "."):
                    places += [(mod, alias) for alias, value in vars(mod).items()
                               if value is original]
        for place, alias in places:
            self._patched.append((place, alias, original))
            setattr(place, alias, wrapper)

    def install(self) -> None:
        importlib.import_module(PACKAGE + ".cli")
        for module_name, path, name, measure in CALLS:
            self._patch(module_name, path,
                        lambda fn, n=name, m=measure: self._wrap_call(fn, n, m))
        for module_name, path, name in GENERATORS:
            self._patch(module_name, path,
                        lambda fn, n=name: self._wrap_generator(fn, n))
        for module_name, path, name in COUNTERS:
            self._patch(module_name, path,
                        lambda fn, n=name: self._wrap_counter(fn, n))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self, phase: str) -> tuple:
        """({span name: {calls, s, self_s, measure}}, {counter: count}) for
        one phase.  `s` counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice."""
        by_id = {span[0]: span for span in self.spans}
        spans = {}
        for sid, parent, name, ph, start, end, children, measure in self.spans:
            if ph != phase:
                continue
            entry = spans.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "measure": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children
            if name in MAX_MEASURES:
                entry["measure"] = max(entry["measure"], measure)
            else:
                entry["measure"] += measure
            up = by_id.get(parent)
            while up is not None and up[2] != name:
                up = by_id.get(up[1])
            if up is None:
                entry["s"] += end - start
        counters = {name: count for (ph, name), count in self.counters.items()
                    if ph == phase}
        return spans, counters

    def write_spans(self, path: str) -> None:
        """All spans as JSON lines, in closing order."""
        with open(path, "w") as fh:
            for sid, parent, name, ph, start, end, children, measure in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "phase": ph,
                    "start": start, "end": end,
                    "self_s": (end - start) - children,
                    "measure": measure}) + "\n")
