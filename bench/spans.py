"""Span tracing of starpal's public functions, installed from outside the package.

The tracer replaces each traced function in every starpal module namespace
that binds it (``search``, ``audit`` and ``cli`` import ``is_good`` and
friends by name), so calls between layers are seen too.  A span is recorded
at every call: its id, its parent span, the op it belongs to, its name and
its start and end.  A span's self time is its duration minus the durations
of its child spans.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# Traced functions per module; a span is named "<module>.<function>".
TRACED = {
    "goodness": ("is_good", "brute_force_is_good"),
    "palette": ("canonical_form", "compute_stats"),
    "search": ("search",),
    "digraphs": ("iter_loopless_digraphs", "is_tk_free", "caro_wei_check",
                 "tk_square_check", "brute_max_arcs", "aux_digraph", "tripartite_report"),
    "audit": ("audit_chain", "x_sets", "g_inequality_check"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.latency: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._refused: type[BaseException] = sys.modules["starpal.errors"].BudgetExceeded

    def install(self) -> None:
        """Wrap every traced function wherever a starpal module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "starpal" or name.startswith("starpal.")]
        for short, names in TRACED.items():
            mod = sys.modules[f"starpal.{short}"]
            for fn_name in names:
                original = getattr(mod, fn_name)
                span = f"{short}.{fn_name}"
                if inspect.isgeneratorfunction(original):
                    wrapped = self._wrap_generator(span, original)
                else:
                    wrapped = self._wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def _enter(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, time.perf_counter(), 0.0])
        return span_id

    def _exit(self, name: str) -> float:
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((span_id, parent, self.op, name, start, end))
        self.calls[name] += 1
        self.self_s[name] += duration - child
        return duration

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._observe(name, tracer._exit(name), result, exc)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.enabled:
                return gen
            return tracer._timed_iter(name, gen)

        return wrapper

    def _timed_iter(self, name: str, gen):
        """Each next() on the generator is one span; the consumer's work between
        items is not inside it."""
        while True:
            self._enter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(name)
            self.counts[f"{name}.yielded"] += 1
            yield item

    def run_op(self, index: int, call):
        """Run one benchmark op inside a root span named "op"."""
        self.op = index
        self._enter()
        try:
            return call()
        finally:
            self._exit("op")

    def _observe(self, name: str, duration: float, result, exc) -> None:
        """Layer counters that the public return values expose."""
        if name == "goodness.is_good":
            if isinstance(exc, self._refused):
                self.counts["goodness.is_good.refused"] += 1
            elif exc is None:
                self.latency["good" if result is not None else "bad"].append(duration)
        elif name == "search.search" and exc is None:
            self.counts["search.examined"] += result.num_candidates_examined
            self.counts["search.bad_found"] += result.num_bad_found
        elif name == "audit.g_inequality_check" and exc is None:
            self.counts["audit.g_inequality_check.points"] += len(result.entries)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values keyed by metric name (see BENCHMARK.json)."""
        out: dict[str, float] = {}
        for short, names in TRACED.items():
            for fn_name in names:
                span = f"{short}.{fn_name}"
                out[f"{span}.calls"] = self.calls[span]
                out[f"{span}.self_s"] = self.self_s[span]
        out.update(self.counts)
        for verdict in ("good", "bad"):
            lat = self.latency[verdict]
            out[f"goodness.is_good.{verdict}_p50_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
        examined = self.counts["search.examined"]
        out["search.useful_ratio"] = self.counts["search.bad_found"] / examined if examined else 0.0
        points = self.counts["audit.g_inequality_check.points"]
        out["audit.g_inequality_check.us_per_point"] = (
            self.self_s["audit.g_inequality_check"] / points * 1e6 if points else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
