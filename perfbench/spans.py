"""Spans recorded by the benchmark around its own calls into pairpulse.

A span carries a name, a start and an end time, the index of its parent
span and the id of the op it belongs to.  Spans stay in memory; the runner
aggregates them per pass and writes one pass out when the run ends.
Nothing here reaches inside the package: a span covers exactly one call
made by the benchmark.
"""

from __future__ import annotations

import time


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    op_id = None

    def wrap(self, name, fn):
        return fn

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call made through ``call`` or a ``wrap``ped function."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self._open = []
        self.op_id = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(span)
        self._open.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict:
    """Per span name: (calls, self seconds).

    A span's self time is its duration minus the durations of its direct
    children.  Calls here are sequential on one thread, so children never
    overlap and their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child)
    return out
