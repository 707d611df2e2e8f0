"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: the public function at each
layer boundary is replaced, in every module that bound the name, by a
wrapper that opens a span (name, start, end, parent span, request id)
around the call.  Spans nest through a stack, so a span's parent is the
span open when it started.  system.boundary_data runs thousands of times
per solve, so it is recorded as a leaf count and time on the enclosing
span instead of as spans of its own.

A span's self time is its duration minus its children's durations and its
leaf time; children of one span never overlap, since the program is
single-threaded.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from time import perf_counter

VERIFY_CHECKS = (
    "check_domain_preservation",
    "check_algebra",
    "check_degeneracy_pairing",
    "check_lower_bound",
    "susy_boundary_form",
    "witten_parity_search",
    "deficiency_indices",
)


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "leaves", "attrs")

    def __init__(self, id, name, parent, request, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.leaves = {}
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, origin: float) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "request": self.request,
            "start": self.start - origin,
            "end": self.end - origin,
        }
        if self.leaves:
            out["leaves"] = self.leaves
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.request = None
        self.origin = perf_counter()
        self._stack = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.request, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """fn inside a span; annotate(span, bound_args, result) adds attrs."""
        signature = inspect.signature(fn) if annotate else None

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                annotate(span, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        """fn counted, and its time summed, on the enclosing span."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    totals = stack[-1].leaves.setdefault(name, [0, 0.0])
                    totals[0] += 1
                    totals[1] += perf_counter() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list:
        """Self time of every span, indexed like self.spans."""
        own = [s.duration - sum(t for _, t in s.leaves.values()) for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(self.origin)) + "\n")


def _solve_attrs(span, args, result):
    report = result.solver_report
    span.attrs.update(
        brackets=report.get("bracket_count", 0),
        window_extensions=report.get("window_extensions", 0),
        window_exhausted=int(bool(report.get("window_exhausted"))),
        requested=args["n_levels"],
        returned=len(result.levels),
    )


def _verify_attrs(span, args, result):
    span.attrs["checks_failed"] = sum(1 for c in result.checks if not c.passed)


class Patches:
    """Install the recorder's wrappers at every layer boundary; restore the
    originals on exit.  A name a module no longer has fails the run, rather
    than reading as a layer that costs nothing."""

    def __init__(self, recorder: SpanRecorder, modules: dict):
        cli, classify, spectra, verify = (modules[k] for k in ("cli", "classify", "spectra", "verify"))
        r = recorder
        self._targets = [
            ([spectra], "solve_interval_spectrum", lambda f: r.wrap("spectra.solve_interval", f, _solve_attrs)),
            ([spectra], "solve_line_bound_states", lambda f: r.wrap("spectra.solve_line", f)),
            ([spectra], "boundary_data", lambda f: r.leaf("system.boundary_data", f)),
            ([classify], "diagonalize_u2", lambda f: r.wrap("matkit.diagonalize_u2", f)),
            ([verify, cli], "classify_system", lambda f: r.wrap("classify", f)),
            ([verify, cli], "run_verification", lambda f: r.wrap("verify.run", f, _verify_attrs)),
            ([cli], "load_system", lambda f: r.wrap("cli.load_system", f)),
            ([cli], "main", lambda f: r.wrap("cli.main", f)),
        ] + [([verify], name, lambda f, n=name: r.wrap("verify.check." + n, f)) for name in VERIFY_CHECKS]
        self._saved = []

    def __enter__(self):
        for mods, attr, make in self._targets:
            for mod in mods:
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, make(fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False


def layer_metrics(recorder: SpanRecorder, n_requests: int) -> dict:
    """Per-request means of the per-layer metrics from the recorded spans."""
    spans = recorder.spans
    own = recorder.self_times()
    by_id = {s.id: s for s in spans}
    total, count, self_total = {}, {}, {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        count[s.name] = count.get(s.name, 0) + 1
        self_total[s.name] = self_total.get(s.name, 0.0) + own[s.id]
    interval = [s for s in spans if s.name == "spectra.solve_interval"]
    solves = interval + [s for s in spans if s.name == "spectra.solve_line"]
    bd_calls = sum(s.leaves.get("system.boundary_data", (0, 0.0))[0] for s in spans)
    bd_time = sum(s.leaves.get("system.boundary_data", (0, 0.0))[1] for s in spans)
    brackets = sum(s.attrs["brackets"] for s in interval)
    returned = sum(s.attrs["returned"] for s in interval)
    goodness = sum(s.duration for s in solves if s.parent is not None and by_id[s.parent].name == "classify")
    n = max(n_requests, 1)

    def ms(name):
        return 1e3 * total.get(name, 0.0) / n

    def self_ms(*names):
        return 1e3 * sum(self_total.get(k, 0.0) for k in names) / n

    def calls(name):
        return count.get(name, 0) / n

    out = {
        "spectra.solve.ms": ms("spectra.solve_interval") + ms("spectra.solve_line"),
        "spectra.solve.calls": len(solves) / n,
        "spectra.solve_interval.ms": ms("spectra.solve_interval"),
        "spectra.self_ms": self_ms("spectra.solve_interval", "spectra.solve_line"),
        "spectra.brackets": brackets / n,
        "spectra.window_extensions": sum(s.attrs["window_extensions"] for s in interval) / n,
        "spectra.window_exhausted": sum(s.attrs["window_exhausted"] for s in interval) / n,
        "spectra.roots_per_bracket": returned / brackets if brackets else 0.0,
        "spectra.levels_used_ratio": sum(s.attrs["requested"] for s in interval) / returned if returned else 0.0,
        "system.boundary_data.calls": bd_calls / n,
        "system.boundary_data.ms": 1e3 * bd_time / n,
        "solve_line.ms": ms("spectra.solve_line"),
        "classify.ms": ms("classify"),
        "classify.self_ms": self_ms("classify"),
        "classify.goodness_solve_ms": 1e3 * goodness / n,
        "matkit.diagonalize_u2.calls": calls("matkit.diagonalize_u2"),
        "matkit.diagonalize_u2.ms": ms("matkit.diagonalize_u2"),
        "cli.main.ms": ms("cli.main"),
        "cli.self_ms": self_ms("cli.main"),
        "cli.load_system.calls": calls("cli.load_system"),
        "cli.load_system.ms": ms("cli.load_system"),
        "verify.run.ms": ms("verify.run"),
        "verify.self_ms": self_ms("verify.run"),
        "verify.checks_failed": sum(s.attrs.get("checks_failed", 0) for s in spans if s.name == "verify.run") / n,
    }
    for name in VERIFY_CHECKS:
        out["verify.check.%s.ms" % name] = ms("verify.check." + name)
    return out
