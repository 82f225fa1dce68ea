"""In-memory span recorder for the traced run.

One span per proxied call: name, layer, start, end, parent span and the
(cell, step) the call belongs to.  Call and byte counts are taken at the
same boundaries.  A layer's *self* time is a span's duration minus the part
its child spans cover; because the driver is single-threaded children never
overlap, so self time is folded into per-(layer, name) totals as each span
closes and the layer self-times of a step add up to the step span exactly.

Raw spans are kept only for the first ``keep_steps`` traced steps of each
cell (a fused small-tensor step makes thousands of calls); totals cover
every traced step.  Nothing is written until the run is over.
"""

from __future__ import annotations

import json
import time

LAYERS = ("trainer", "ndl", "memory", "compressors", "comm")


class Totals:
    """Per-(layer, name) aggregate: calls, inclusive and self seconds, bytes."""

    __slots__ = ("calls", "seconds", "self_seconds", "nbytes")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.nbytes = 0


class SpanRecorder:
    """Collects spans of one cell; see the module docstring."""

    def __init__(self, cell: str, keep_steps: int = 1):
        self.cell = cell
        self.keep_steps = int(keep_steps)
        self.totals: dict[tuple[str, str], Totals] = {}
        self.spans: list[tuple] = []
        self.steps = 0  # traced steps closed so far
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._clock = time.perf_counter

    def call(self, key: tuple, fn, args=(), kwargs=None, nbytes: int = 0):
        """Run ``fn(*args, **kwargs)`` inside a ``(layer, name)`` span."""
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [span_id, 0.0]
        parent = stack[-1][0] if stack else -1
        stack.append(frame)
        clock = self._clock
        start = clock()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            end = clock()
            stack.pop()
            seconds = end - start
            totals = self.totals.get(key)
            if totals is None:
                totals = self.totals[key] = Totals()
            totals.calls += 1
            totals.seconds += seconds
            totals.self_seconds += seconds - frame[1]
            totals.nbytes += nbytes
            step = self.steps
            if step < self.keep_steps:
                self.spans.append(
                    (span_id, parent, key[0], key[1], start, end, step, nbytes)
                )
            if stack:
                stack[-1][1] += seconds
            else:
                self.steps = step + 1  # the root span of a step closed

    # -- read side ---------------------------------------------------------

    def total(self, field: str, layer: str, *names: str):
        """Sum of one ``Totals`` field over a layer's (optionally named) spans."""
        return sum(
            getattr(totals, field)
            for (lay, name), totals in self.totals.items()
            if lay == layer and (not names or name in names)
        )

    def seconds(self, layer: str, *names: str) -> float:
        """Inclusive seconds: nested spans of other layers are counted."""
        return self.total("seconds", layer, *names)

    def self_seconds(self, layer: str, *names: str) -> float:
        return self.total("self_seconds", layer, *names)

    def calls(self, layer: str) -> int:
        return self.total("calls", layer)

    def nbytes(self, layer: str, *names: str) -> int:
        return self.total("nbytes", layer, *names)

    def layer_self_seconds(self) -> dict[str, float]:
        return {layer: self.self_seconds(layer) for layer in LAYERS}

    def table(self) -> list[dict]:
        """One row per (layer, name), for the per-layer table file."""
        return [
            {
                "cell": self.cell, "layer": layer, "name": name,
                "calls": t.calls, "seconds": t.seconds,
                "self_seconds": t.self_seconds, "nbytes": t.nbytes,
            }
            for (layer, name), t in sorted(self.totals.items())
        ]


def chrome_trace(recorders: list[SpanRecorder]) -> dict:
    """The kept spans of every cell as one Chrome-trace document.

    Each cell is a ``tid`` so cells stack as rows; ``args`` carries the span
    id, its parent and the (cell, step) all spans of one step share.
    """
    events = []
    origin = min(
        (span[4] for rec in recorders for span in rec.spans), default=0.0
    )
    for tid, rec in enumerate(recorders):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": rec.cell},
        })
        for span_id, parent, layer, name, start, end, step, nbytes in rec.spans:
            events.append({
                "name": f"{layer}.{name}", "cat": layer, "ph": "X",
                "pid": 0, "tid": tid,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {
                    "id": span_id, "parent": parent, "cell": rec.cell,
                    "step": step, "nbytes": nbytes,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorders: list[SpanRecorder], path) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(recorders), handle)
