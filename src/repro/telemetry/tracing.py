"""Hierarchical spans over the training/comm pipeline.

A :class:`Tracer` produces :class:`Span` trees following the pipeline's
phase taxonomy (``iteration`` → ``compute`` / ``memory_compensate`` /
``compress`` / ``collective`` / ``decompress`` / ``aggregate`` /
``apply_update``).  Every span carries two clocks:

* **wall** (``ts`` / ``dur``): measured ``time.perf_counter`` seconds —
  what the in-process simulator actually spent;
* **simulated** (``sim``): seconds charged by the analytical cost models
  (network + kernel), attached via :meth:`Span.add_sim`.  Parallel
  phases (the per-rank loops the simulator executes serially) charge
  their simulated time once per phase, on the rank-0 span, because the
  modeled cluster runs ranks concurrently.

The default tracer everywhere is :data:`NULL_TRACER`: its ``span`` call
returns one shared no-op span, so the disabled hot path performs no
per-span allocation and no timing syscalls.
"""

from __future__ import annotations

import time
from typing import Any, Iterable


class Span:
    """One timed phase; usable as a context manager."""

    __slots__ = ("name", "id", "parent_id", "ts", "dur", "sim", "sim_ts",
                 "attrs", "_tracer", "_start")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, attrs: dict[str, Any]):
        self.name = name
        self.id = span_id
        self.parent_id = parent_id
        self.ts = 0.0  # seconds since the tracer's epoch
        self.dur = 0.0  # measured wall seconds
        self.sim = 0.0  # simulated seconds
        self.sim_ts: float | None = None  # simulated start offset (overlap)
        self.attrs = attrs
        self._tracer = tracer
        self._start = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes (rank, tensor, nbytes, ...)."""
        self.attrs.update(attrs)

    def add_sim(self, seconds: float) -> None:
        """Charge simulated-clock seconds to this span."""
        if seconds < 0:
            raise ValueError("simulated seconds must be non-negative")
        self.sim += seconds

    def set_sim_window(self, start: float, end: float) -> None:
        """Place this span on the simulated clock (overlap-aware runs).

        Sets :attr:`sim_ts` to ``start`` and *replaces* :attr:`sim` with
        the window duration, so exporters can render true concurrency —
        spans whose simulated windows intersect really did overlap on
        the event timeline.
        """
        if start < 0 or end < start:
            raise ValueError(
                f"invalid sim window [{start}, {end}]: needs 0 <= start <= end"
            )
        self.sim_ts = start
        self.sim = end - start

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = time.perf_counter()
        self.ts = self._start - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur = time.perf_counter() - self._start
        self._tracer._pop(self)
        return False

    def to_event(self) -> dict[str, Any]:
        """The span's JSONL event dict."""
        event = {
            "type": "span",
            "id": self.id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "sim": self.sim,
            "attrs": self.attrs,
        }
        if self.sim_ts is not None:
            event["sim_ts"] = self.sim_ts
        return event

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Span({self.name!r}, dur={self.dur:.6f}, "
                f"sim={self.sim:.6f}, attrs={self.attrs})")


class Tracer:
    """Collects finished spans (in completion order) plus a metrics home.

    ``tracer.metrics`` is the :class:`MetricsRegistry` instrumented code
    should count into; sharing it with the trainer keeps spans and
    metrics of one run in one export.
    """

    enabled = True

    def __init__(self, metrics=None):
        from repro.telemetry.metrics import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a child span of whatever span is currently active."""
        parent = self._stack[-1].id if self._stack else None
        self._next_id += 1
        return Span(self, name, self._next_id, parent, attrs)

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        """Drop all spans and re-anchor the epoch (metrics untouched)."""
        self.spans.clear()
        self._stack.clear()
        self._next_id = 0
        self.epoch = time.perf_counter()

    # -- span bookkeeping ---------------------------------------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )
        self._stack.pop()
        self.spans.append(span)


def span_events(spans_or_events: Iterable) -> list[dict]:
    """The span event dicts among spans, JSONL events or both."""
    events = (item if isinstance(item, dict) else item.to_event()
              for item in spans_or_events)
    return [event for event in events if event.get("type") == "span"]


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    name = "null"
    id = 0
    parent_id = None
    ts = 0.0
    dur = 0.0
    sim = 0.0
    sim_ts = None
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass

    def add_sim(self, seconds: float) -> None:
        pass

    def set_sim_window(self, start: float, end: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Allocation-free tracer: every span is the shared no-op span."""

    enabled = False

    def __init__(self):
        from repro.telemetry.metrics import NULL_REGISTRY

        self.metrics = NULL_REGISTRY
        self.spans: tuple = ()

    def span(self, name: str | None = None, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span (no allocation, no clock read)."""
        return _NULL_SPAN

    @property
    def current(self) -> None:
        return None

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
