"""Spans around the calls into fracburst's layers, recorded from outside it.

A Tracer replaces a public function by a timing wrapper in the module that
calls it (the `solve` that `detect` and `cli` import, the `detect` that
`cli` imports, the package attributes the benchmark itself calls), so the
program's own files stay untouched. Each span keeps its layer, the layer
of its caller, the thread it ran on, its interval, its parent span and a
few counts read off the result. Spans stay in memory until the benchmark
aggregates them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

import numpy as np


class Span:
    __slots__ = ("layer", "name", "caller", "tid", "t0", "t1", "parent",
                 "steps", "levels", "fired", "failed")

    def __init__(self, layer, name, caller, parent):
        self.layer, self.name, self.caller, self.parent = layer, name, caller, parent
        self.tid = threading.get_ident()
        self.t0 = self.t1 = 0.0
        self.steps = self.levels = 0
        self.fired = self.failed = False

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _note_solve(span, trajectory):
    span.steps = trajectory.states.shape[0] - 1


def _note_detect(span, result):
    span.levels = len(result.runs)
    span.fired = bool(getattr(result, "converged", False))


# (module, attribute, layer, caller layer, result reader). One row per
# place a layer is called from, so a call is traced where its caller sees it.
CALL_SITES = (
    ("fracburst.cli", "cmd_reproduce", "cli", "bench", None),
    ("fracburst.cli", "_reproduce_row", "cli", "cli", None),
    ("fracburst.cli", "detect", "detect", "cli", _note_detect),
    ("fracburst.cli", "solve", "solver", "cli", _note_solve),
    ("fracburst.detect", "solve", "solver", "detect", _note_solve),
    ("fracburst.scenarios", "theorem_bound", "bounds", "scenarios", None),
    ("fracburst", "detect", "detect", "bench", _note_detect),
    ("fracburst", "solve", "solver", "bench", _note_solve),
    ("fracburst", "theorem_bound", "bounds", "bench", None),
    ("fracburst", "mittag_leffler", "special", "bench", None),
)


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[Span] = []
        self._saved = []

    def install(self, sites=CALL_SITES):
        for module_name, attr, layer, caller, note in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, attr, caller, note))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self):
        with self._lock:
            self.spans = []

    def _wrap(self, original, layer, name, caller, note):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._start(layer, name, caller)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._end(span)
            if note is not None:
                note(span, result)
            return result
        return traced

    def _start(self, layer, name, caller) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            # a span opened on a pool thread with nothing open there belongs
            # to the oldest span still open, the call that fanned out
            parent = stack[-1] if stack else (self._open[0] if self._open else None)
            span = Span(layer, name, caller, parent)
            self._open.append(span)
            self.spans.append(span)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _end(self, span: Span):
        span.t1 = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self._open.remove(span)


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """id(span) -> its duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.t0, s.t1))
    return {id(s): s.duration - _union_length(children.get(id(s), ())) for s in spans}


def fit_step_costs(spans) -> tuple[float, float]:
    """Least-squares duration = a*steps + b*steps^2 over solve calls, a, b >= 0."""
    steps = np.array([s.steps for s in spans if s.steps > 0], dtype=float)
    dur = np.array([s.duration for s in spans if s.steps > 0])
    if len(steps) == 0:
        return 0.0, 0.0
    a, b = np.linalg.lstsq(np.column_stack([steps, steps ** 2]), dur, rcond=None)[0]
    if len(set(steps)) < 2 or b < 0.0:
        return float(dur @ steps / (steps @ steps)), 0.0
    if a < 0.0:
        return 0.0, float(dur @ steps ** 2 / (steps ** 2 @ steps ** 2))
    return float(a), float(b)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one round of spans."""
    own = self_times(spans)
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    cli = by_layer.get("cli", [])
    det = by_layer.get("detect", [])
    sol = by_layer.get("solver", [])
    bnd = by_layer.get("bounds", [])
    ml = by_layer.get("special", [])
    sol_steps = sum(s.steps for s in sol)
    sol_busy = sum(s.duration for s in sol)
    a, b = fit_step_costs(sol)
    fixed = a * sol_steps
    history = b * sum(s.steps ** 2 for s in sol)
    bnd_busy = sum(s.duration for s in bnd)
    ml_busy = sum(s.duration for s in ml)
    return {
        "cli.self_s": sum(own[id(s)] for s in cli),
        "cli.resolve_steps": sum(s.steps for s in sol if s.caller == "cli"),
        "detect.calls": len(det),
        "detect.levels": sum(s.levels for s in det),
        "detect.steps": sum(s.steps for s in sol if s.caller == "detect"),
        "detect.busy_s": sum(s.duration for s in det),
        "detect.stop_fired_ratio": _ratio(sum(s.fired for s in det), len(det)),
        "solver.calls": len(sol),
        "solver.steps": sol_steps,
        "solver.busy_s": sol_busy,
        "solver.us_per_step": 1e6 * _ratio(sol_busy, sol_steps),
        "solver.fixed_us_per_step": 1e6 * a,
        "solver.history_share": _ratio(history, fixed + history),
        "bounds.calls": len(bnd),
        "bounds.busy_s": bnd_busy,
        "bounds.ms_per_call": 1e3 * _ratio(bnd_busy, len(bnd)),
        "special.ml_calls": len(ml),
        "special.ml_failed": sum(s.failed for s in ml),
        "special.ml_busy_s": ml_busy,
        "special.ml_us_per_call": 1e6 * _ratio(ml_busy, len(ml)),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
