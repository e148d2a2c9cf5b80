"""In-memory span recorder that wraps flatplate's public functions from outside.

A span is (name, start, end, parent, op); the parent is the span that was
open when this one started, so nesting follows the call stack, and every span
of one benchmark operation carries that operation's number.  Counters sit at
the same boundaries (``<span>_calls`` per span name, plus the quantities a
layer reports about its own work: shooting iterations and comparison grid
points).  ``Tracer.metrics()`` names every value as BENCHMARK.json does.

The program is not modified: ``Tracer.installed()`` replaces module and
class attributes with timing wrappers and restores the originals on exit.
Callers must look functions up through the module at call time
(``hpm.build_series(...)``) for the wrappers to take effect.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name); each wrapped function is also wrapped where
# flatplate.cli imported it, so the CLI's own calls are traced too.
WRAPPED_FUNCTIONS = (
    ("flatplate.hpm", "recurrence_step_f", "hpm.recurrence_f"),
    ("flatplate.hpm", "recurrence_step_theta", "hpm.recurrence_theta"),
    ("flatplate.hpm", "build_series", "hpm.build_series"),
    ("flatplate.cli", "build_series", "hpm.build_series"),
    ("flatplate.cli", "series_to_document", "hpm.document"),
    ("flatplate.shooting", "solve_shooting", "shooting.solve"),
    ("flatplate.cli", "solve_shooting", "shooting.solve"),
    ("flatplate.shooting", "integrate_blasius", "shooting.integrate"),
    ("flatplate.shooting", "theta_profile", "shooting.theta_profile"),
    ("flatplate.report", "theta_profile", "shooting.theta_profile"),
    ("flatplate.shooting", "write_trajectory_csv", "shooting.trajectory_csv"),
    ("flatplate.cli", "write_trajectory_csv", "shooting.trajectory_csv"),
    ("flatplate.report", "compare", "report.compare"),
    ("flatplate.cli", "compare", "report.compare"),
    ("flatplate.report", "emit_csv", "report.emit_csv"),
    ("flatplate.cli", "emit_csv", "report.emit_csv"),
    ("flatplate.report", "emit_svg_figure", "report.emit_svg"),
    ("flatplate.cli", "emit_svg_figure", "report.emit_svg"),
)

WRAPPED_METHODS = (
    ("__mul__", "exact.mul"),
    ("eval_float", "exact.eval_float"),
)


def _result_counts(name: str, result) -> dict[str, int]:
    """Work a layer reports in its result, counted where the work happens."""
    if name == "shooting.solve":
        return {"shooting.iterations": result.iterations}
    if name == "report.compare":
        return {"report.points": len(result.rows)}
    return {}


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    Functions called thousands of times per op (the exact layer's multiply
    and float evaluation) are *folded*: instead of a span per call they add
    their time to a per-name total and to the child time of the span that
    called them, which keeps self times exact at a fraction of the cost.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, op
        self.counts: dict[str, int] = defaultdict(int)
        self.folded: dict[str, float] = defaultdict(float)  # seconds per folded name
        self.folded_into: dict[int, float] = defaultdict(float)  # span index -> folded seconds
        self.seconds: dict[str, float] = defaultdict(float)  # metric -> seconds timed outside any span
        self.op = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> tuple[int, int, float]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op)
        self.counts[name + "_calls"] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        token = self._open(name)
        try:
            yield
        finally:
            self._close(name, *token)

    def wrap(self, func, name: str, fold: bool = False):
        calls = name + "_calls"

        def folded(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.counts[calls] += 1
                self.folded[name] += elapsed
                if self._stack:
                    self.folded_into[self._stack[-1]] += elapsed

        def traced(*args, **kwargs):
            token = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(name, *token)
            for key, value in _result_counts(name, result).items():
                self.counts[key] += value
            return result

        return functools.wraps(func)(folded if fold else traced)

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced attributes with wrappers; restore them on exit."""
        from flatplate.exact import RationalPolynomial

        saved = []
        try:
            for module_name, attr, name in WRAPPED_FUNCTIONS:
                module = importlib.import_module(module_name)
                func = getattr(module, attr)
                saved.append((module, attr, func))
                setattr(module, attr, self.wrap(func, name))
            for attr, name in WRAPPED_METHODS:
                method = getattr(RationalPolynomial, attr)
                saved.append((RationalPolynomial, attr, method))
                setattr(RationalPolynomial, attr, self.wrap(method, name, fold=True))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def absorb(self, obj: dict) -> None:
        """Append the spans and counts a child process wrote with ``to_obj``."""
        offset = len(self.spans)
        for span in obj["spans"]:
            parent = span["parent"] + offset if span["parent"] >= 0 else -1
            self.spans.append((span["name"], span["start"], span["end"], parent, self.op))
        for key, value in obj["counts"].items():
            self.counts[key] += value
        for key, value in obj["folded"].items():
            self.folded[key] += value
        for index, value in obj["folded_into"].items():
            self.folded_into[int(index) + offset] += value
        for key, value in obj["seconds"].items():
            self.seconds[key] += value

    # -- summaries -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every traced value under its metric name: ``<span>_s`` (summed
        duration), ``<span>.self_s`` (duration minus direct children),
        ``<layer>.self_s`` (self time summed over the layer's spans, the
        layer being the name up to the first dot), the counters and the
        seconds timed outside spans.
        """
        child_time = [self.folded_into.get(i, 0.0) for i in range(len(self.spans))]
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            own = end - start - child_time[i]
            out[name + "_s"] += end - start
            out[name + ".self_s"] += own
            out[name.split(".", 1)[0] + ".self_s"] += own
        for name, seconds in self.folded.items():
            out[name + "_s"] += seconds
            out[name + ".self_s"] += seconds
            out[name.split(".", 1)[0] + ".self_s"] += seconds
        out.update(self.counts)
        out.update(self.seconds)
        return dict(out)

    def to_obj(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "counts": dict(self.counts),
            "folded": dict(self.folded),
            "folded_into": {str(i): v for i, v in self.folded_into.items()},
            "seconds": dict(self.seconds),
        }
