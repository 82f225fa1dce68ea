"""Trace/metric exporters: JSONL, Chrome ``trace_event`` and Prometheus.

* **JSONL** is the canonical interchange format (one event per line;
  span events followed by a metrics snapshot).  ``repro train --trace``
  writes it and ``repro report`` reads it back.
* **Chrome trace** (``trace_event`` JSON) opens directly in
  ``chrome://tracing`` or https://ui.perfetto.dev — spans become ``"X"``
  (complete) events with microsecond timestamps, one track per rank.
* **Prometheus text** is a scrape-style dump of the metrics registry
  (histograms as summaries with exact quantiles).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterable

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracing import Tracer, span_events

JSONL_VERSION = 1

_HISTOGRAM_QUANTILES = (50.0, 90.0, 99.0)


# -- JSONL -----------------------------------------------------------------


def telemetry_events(spans: Tracer | Iterable | None = None,
                     metrics: MetricsRegistry | None = None) -> list[dict]:
    """All events of one run: meta, spans, then a metrics snapshot.

    ``spans`` is a :class:`Tracer` (whose registry ``metrics`` defaults
    to), its spans, or span events (a parallel run's merged shards).
    """
    events: list[dict] = [{"type": "meta", "version": JSONL_VERSION,
                           "clock": "perf_counter"}]
    if isinstance(spans, Tracer):
        if metrics is None:
            metrics = spans.metrics
        spans = spans.spans
    events.extend(span_events(spans or ()))
    if isinstance(metrics, MetricsRegistry):
        events.extend(metric_event(m) for m in metrics)
    return events


def metric_event(instrument) -> dict:
    """One instrument's JSONL snapshot event."""
    base = {
        "type": instrument.kind,
        "name": instrument.name,
        "labels": dict(instrument.labels),
        "unit": instrument.unit,
    }
    if isinstance(instrument, Histogram):
        base.update(
            count=instrument.count,
            sum=instrument.sum,
            min=instrument.min,
            max=instrument.max,
            **{f"p{q:g}": instrument.percentile(q)
               for q in _HISTOGRAM_QUANTILES},
        )
    else:
        base["value"] = instrument.value
    return base


def write_jsonl(path: str | Path, spans: Tracer | Iterable | None = None,
                metrics: MetricsRegistry | None = None) -> int:
    """Write one event per line; returns the number of events."""
    events = telemetry_events(spans, metrics)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return len(events)


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL trace back into event dicts (blank lines skipped)."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSONL "
                    f"(truncated or corrupt trace? {error})"
                ) from error
            if not isinstance(event, dict):
                raise ValueError(
                    f"{path}:{lineno}: not a telemetry event (expected a "
                    f"JSON object, got {type(event).__name__})"
                )
            events.append(event)
    return events


# -- Chrome trace_event ----------------------------------------------------


def chrome_trace(spans_or_events: Iterable, clock: str = "wall") -> dict:
    """Convert spans (or JSONL span events) to a ``trace_event`` dict.

    Each span becomes a complete ("X") event; ``ts``/``dur`` are
    microseconds as the format requires; the rank attribute (when
    present) selects the thread track so per-rank phases stack visually.

    ``clock="sim"`` renders the *simulated* timeline instead: only spans
    carrying a simulated window (``sim_ts``, set by overlap-aware runs)
    are emitted, positioned at their event-timeline offsets — phases
    that overlapped in simulated time visibly overlap in the trace.
    """
    if clock not in ("wall", "sim"):
        raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")
    trace_events = []
    for event in span_events(spans_or_events):
        attrs = dict(event.get("attrs") or {})
        args = dict(attrs)
        if event.get("sim"):
            args["sim_seconds"] = event["sim"]
        if clock == "sim":
            sim_ts = event.get("sim_ts")
            if sim_ts is None:
                continue
            ts, dur = float(sim_ts), float(event.get("sim", 0.0))
            args["wall_seconds"] = event["dur"]
        else:
            ts, dur = event["ts"], event["dur"]
        trace_events.append({
            "name": event["name"],
            "cat": "repro",
            "ph": "X",
            "ts": ts * 1e6,
            "dur": dur * 1e6,
            "pid": 0,
            "tid": int(attrs.get("rank", 0)),
            "args": args,
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry", "clock": clock},
    }


def write_chrome_trace(path: str | Path, spans_or_events: Iterable,
                       clock: str = "wall") -> int:
    """Write ``trace_event`` JSON; returns the number of trace events."""
    trace = chrome_trace(spans_or_events, clock=clock)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return len(trace["traceEvents"])


# -- Prometheus text -------------------------------------------------------

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name: str) -> str:
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels, extra: dict[str, str] | None = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_prom_name(k)}="{_escape_label(v)}"' for k, v in pairs
    )
    return "{" + rendered + "}"


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render the registry as a Prometheus exposition-format dump.

    Counters/gauges map directly; histograms are emitted as summaries
    (exact quantiles plus ``_sum`` / ``_count``).
    """
    by_name: dict[str, list] = {}
    for instrument in metrics:
        by_name.setdefault(instrument.name, []).append(instrument)
    lines: list[str] = []
    for name in sorted(by_name):
        family = by_name[name]
        prom = _prom_name(name)
        first = family[0]
        prom_type = {"counter": "counter", "gauge": "gauge",
                     "histogram": "summary"}[first.kind]
        help_text = first.help
        if not help_text:
            help_text = f"{name} ({first.unit})" if first.unit else name
        lines.append(f"# HELP {prom} {help_text}")
        lines.append(f"# TYPE {prom} {prom_type}")
        for instrument in family:
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(
                    f"{prom}{_prom_labels(instrument.labels)} "
                    f"{instrument.value:g}"
                )
            elif isinstance(instrument, Histogram):
                for q in _HISTOGRAM_QUANTILES:
                    labels = _prom_labels(
                        instrument.labels, {"quantile": f"{q / 100:g}"}
                    )
                    lines.append(
                        f"{prom}{labels} {instrument.percentile(q):g}"
                    )
                base = _prom_labels(instrument.labels)
                lines.append(f"{prom}_sum{base} {instrument.sum:g}")
                lines.append(f"{prom}_count{base} {instrument.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str | Path, metrics: MetricsRegistry) -> None:
    """Write the Prometheus text dump to ``path``."""
    Path(path).write_text(prometheus_text(metrics), encoding="utf-8")
