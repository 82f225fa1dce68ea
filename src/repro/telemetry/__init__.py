"""Unified tracing, metrics and export layer for the pipeline.

The subsystem has three parts (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.telemetry.tracing` — hierarchical spans over the
  training/communication pipeline, carrying measured *and* simulated
  durations; :data:`NULL_TRACER` is the allocation-free disabled
  default.
* :mod:`repro.telemetry.metrics` — the :class:`MetricsRegistry` of
  counters, gauges and histograms every byte/second/norm is counted
  into (the single source of truth the trainer's report and the comm
  layer's :class:`~repro.comm.collectives.CommRecord` read from).
* :mod:`repro.telemetry.exporters` — JSONL event logs, Chrome
  ``trace_event`` JSON (Perfetto-loadable) and Prometheus text dumps,
  read back by :mod:`repro.telemetry.summary` (``repro report`` and
  ``repro profile``).
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
)
from repro.telemetry.tracing import NULL_TRACER, NullTracer, Span, Tracer
from repro.telemetry.exporters import (
    chrome_trace,
    prometheus_text,
    read_events,
    telemetry_events,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.formatting import (
    format_seconds,
    render_fields,
    wire_stats_fields,
)
from repro.telemetry.profile import ProfilingTracer, folded_stacks, write_folded
from repro.telemetry.summary import LEAF_PHASES, TraceSummary

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullMetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "prometheus_text",
    "read_events",
    "telemetry_events",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
    "format_seconds",
    "render_fields",
    "wire_stats_fields",
    "LEAF_PHASES",
    "TraceSummary",
    "ProfilingTracer",
    "folded_stacks",
    "write_folded",
]
