"""What ``repro profile`` adds to reading a trace.

The phase attribution, kernel percentiles and memory table are
:class:`~repro.telemetry.summary.TraceSummary`'s, shared with
``repro report``.  This module holds the rest:

* :class:`ProfilingTracer`, a tracer that also records memory
  high-water marks (``tracemalloc`` peak plus the OS ``ru_maxrss``);
* flamegraph-ready folded stacks (``a;b;c <µs>`` lines for
  ``flamegraph.pl`` / speedscope);
* the JSON writer behind ``profile --out``.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path
from typing import Iterable

from repro.telemetry.summary import TraceSummary, exclusive_wall
from repro.telemetry.tracing import Tracer, span_events

# -- flamegraph-compatible folded stacks -----------------------------------


def folded_stacks(spans_or_events: Iterable) -> list[str]:
    """Collapse the span forest to ``root;child;leaf <µs>`` lines.

    Weights are each span's *exclusive* wall time in integer
    microseconds (flamegraph.pl's expected unit), merged across
    identical stacks; zero-weight stacks are kept so short phases stay
    visible in the tree, matching Brendan Gregg's collapsed format.
    """
    spans = span_events(spans_or_events)
    by_id = {event.get("id"): event for event in spans}
    weights: dict[str, int] = {}
    for event, exclusive in zip(spans, exclusive_wall(spans)):
        names = [event["name"]]
        parent = event.get("parent")
        guard = 0
        while parent is not None and parent in by_id and guard < 1000:
            names.append(by_id[parent]["name"])
            parent = by_id[parent].get("parent")
            guard += 1
        stack = ";".join(reversed(names))
        weights[stack] = weights.get(stack, 0) + int(round(exclusive * 1e6))
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def write_folded(path: str | Path, spans_or_events: Iterable) -> int:
    """Write folded stacks; returns the number of lines."""
    lines = folded_stacks(spans_or_events)
    Path(path).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return len(lines)


def write_profile_json(path: str | Path, summary: TraceSummary,
                       meta: dict | None = None) -> None:
    """Serialize a summary (with the shared metadata stamp) to JSON."""
    from repro.bench.metadata import run_metadata

    payload = summary.to_dict()
    payload["meta"] = meta if meta is not None else run_metadata()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- memory-aware tracer ----------------------------------------------------


class ProfilingTracer(Tracer):
    """A Tracer that also watches the process's memory high-water mark.

    ``tracemalloc`` is started on construction (if not already running)
    and stopped by :meth:`finalize`, which records the traced peak and
    the OS ``ru_maxrss`` into :attr:`memory_high_water`.  Tracemalloc
    costs real time per allocation, which is why this lives behind
    ``repro profile`` instead of ``--trace``.
    """

    def __init__(self, metrics=None):
        super().__init__(metrics=metrics)
        self.memory_high_water: dict[str, int] = {}
        self._owns_tracemalloc = not tracemalloc.is_tracing()
        if self._owns_tracemalloc:
            tracemalloc.start()

    def finalize(self) -> dict[str, int]:
        """Capture the high-water marks; returns them (idempotent)."""
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.memory_high_water["tracemalloc_peak_bytes"] = int(peak)
            if self._owns_tracemalloc:
                tracemalloc.stop()
                self._owns_tracemalloc = False
        rss = max_rss_bytes()
        if rss is not None:
            self.memory_high_water["ru_maxrss_bytes"] = rss
        return dict(self.memory_high_water)


def max_rss_bytes() -> int | None:
    """This process's OS ``ru_maxrss`` in bytes (None off POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1 if usage.ru_maxrss > (1 << 32) else 1024
    return int(usage.ru_maxrss * scale)
