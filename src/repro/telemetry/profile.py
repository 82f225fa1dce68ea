"""Phase-level run profiler (`repro profile`).

Attributes every training step to the pipeline's phases by walking the
span tree: each span contributes its *exclusive* wall time (duration
minus its children's) to its phase, and whatever an ``iteration`` span
spent outside any child span lands in an explicit ``(unattributed)``
bucket — so the attribution always sums to total step time exactly, by
construction, instead of silently dropping harness overhead.

On top of the attribution the profile carries:

* per-compressor kernel latency percentiles (from the
  ``compress_kernel_seconds`` histograms the tracer already records);
* memory high-water marks (``tracemalloc`` peak plus the OS
  ``ru_maxrss``) when the run used a :class:`ProfilingTracer`;
* two flamegraph-ready exports — folded stacks (``a;b;c <µs>`` lines
  for ``flamegraph.pl`` / speedscope) and the existing Chrome
  ``trace_event`` JSON.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.telemetry.summary import LEAF_PHASES, count_iterations
from repro.telemetry.tracing import Tracer, span_events

#: Display aliases: the span taxonomy's ``collective`` is the network
#: phase of the compress → encode → network → decompress → apply cycle.
PHASE_ALIASES = {"collective": "network"}

#: The explicit bucket for step time outside any child span.
UNATTRIBUTED = "(unattributed)"


@dataclass
class PhaseProfile:
    """Exclusive-time aggregate of every span sharing one phase name."""

    phase: str
    spans: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0


@dataclass
class RunProfile:
    """Everything ``repro profile`` reports for one run."""

    phases: dict[str, PhaseProfile] = field(default_factory=dict)
    iterations: int = 0
    step_wall_seconds: float = 0.0  # sum of iteration-span durations
    step_sim_seconds: float = 0.0
    kernel_percentiles: dict[str, dict] = field(default_factory=dict)
    memory: dict[str, int] | None = None

    @property
    def attributed_wall_seconds(self) -> float:
        """Sum over all phases (incl. unattributed) — equals step time."""
        return sum(p.wall_seconds for p in self.phases.values())

    def attribution_error(self) -> float:
        """Relative gap between attributed and total step wall time."""
        if self.step_wall_seconds <= 0:
            return 0.0
        return (abs(self.attributed_wall_seconds - self.step_wall_seconds)
                / self.step_wall_seconds)

    def phase_rows(self) -> list[list[object]]:
        """Table rows: pipeline phases first, extras after, sink last."""
        named = [PHASE_ALIASES.get(p, p) for p in LEAF_PHASES]
        ordered = [p for p in named if p in self.phases]
        ordered += sorted(
            p for p in self.phases
            if p not in named and p != UNATTRIBUTED
        )
        if UNATTRIBUTED in self.phases:
            ordered.append(UNATTRIBUTED)
        rows = []
        for phase in ordered:
            stats = self.phases[phase]
            share = (stats.wall_seconds / self.step_wall_seconds
                     if self.step_wall_seconds > 0 else 0.0)
            rows.append([
                phase, stats.spans, f"{stats.wall_seconds:.4f}",
                f"{100 * share:.1f}%", f"{stats.sim_seconds:.6f}",
            ])
        return rows

    def format(self) -> str:
        """The full ``repro profile`` text report."""
        from repro.bench.report import format_table

        sections = ["Phase attribution (exclusive wall time per step phase)"]
        sections.append(format_table(
            ["phase", "spans", "wall s", "step share", "sim s"],
            self.phase_rows(),
        ))
        totals = [
            ["iterations", self.iterations],
            ["total step wall seconds", f"{self.step_wall_seconds:.4f}"],
            ["attributed wall seconds",
             f"{self.attributed_wall_seconds:.4f}"],
            ["attribution error", f"{100 * self.attribution_error():.3f}%"],
            ["total step sim seconds", f"{self.step_sim_seconds:.6f}"],
        ]
        sections.append("")
        sections.append("Totals")
        sections.append(format_table(["quantity", "value"], totals))
        if self.kernel_percentiles:
            sections.append("")
            sections.append("Compressor kernel latency (per call)")
            sections.append(format_table(
                ["compressor", "calls", "p50 ms", "p90 ms", "p99 ms"],
                [[name, snap.get("count", 0),
                  f"{snap.get('p50', 0.0) * 1e3:.4f}",
                  f"{snap.get('p90', 0.0) * 1e3:.4f}",
                  f"{snap.get('p99', 0.0) * 1e3:.4f}"]
                 for name, snap in sorted(self.kernel_percentiles.items())],
            ))
        if self.memory is not None:
            sections.append("")
            sections.append("Memory high-water marks")
            sections.append(format_table(
                ["source", "bytes"],
                [[key, f"{value:,}"]
                 for key, value in sorted(self.memory.items())],
            ))
        return "\n".join(sections)

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "step_wall_seconds": self.step_wall_seconds,
            "step_sim_seconds": self.step_sim_seconds,
            "attributed_wall_seconds": self.attributed_wall_seconds,
            "attribution_error": self.attribution_error(),
            "phases": {
                name: {
                    "spans": stats.spans,
                    "wall_seconds": stats.wall_seconds,
                    "sim_seconds": stats.sim_seconds,
                }
                for name, stats in self.phases.items()
            },
            "kernel_percentiles": self.kernel_percentiles,
            "memory": self.memory,
        }


def _children_index(events: list[dict]) -> dict[Any, list[dict]]:
    children: dict[Any, list[dict]] = {}
    for event in events:
        children.setdefault(event.get("parent"), []).append(event)
    return children


def profile_events(events: Iterable,
                   metrics_events: Iterable[dict] | None = None,
                   memory: dict[str, int] | None = None) -> RunProfile:
    """Build a RunProfile from spans (Tracer objects or JSONL dicts).

    ``metrics_events`` supplies histogram snapshot events so kernel
    percentiles survive the JSONL round trip.
    """
    spans = span_events(events)
    children = _children_index(spans)
    profile = RunProfile(iterations=count_iterations(spans))

    def phase_of(event: dict) -> str:
        return PHASE_ALIASES.get(event["name"], event["name"])

    def child_wall(event: dict) -> float:
        return sum(float(c.get("dur", 0.0))
                   for c in children.get(event.get("id"), ()))

    for event in spans:
        dur = float(event.get("dur", 0.0))
        sim = float(event.get("sim", 0.0))
        exclusive = max(0.0, dur - child_wall(event))
        if event["name"] == "iteration":
            profile.step_wall_seconds += dur
            profile.step_sim_seconds += sim
            sink = profile.phases.setdefault(
                UNATTRIBUTED, PhaseProfile(UNATTRIBUTED)
            )
            sink.spans += 1
            sink.wall_seconds += exclusive
            continue
        stats = profile.phases.setdefault(
            phase_of(event), PhaseProfile(phase_of(event))
        )
        stats.spans += 1
        stats.wall_seconds += exclusive
        stats.sim_seconds += sim

    if profile.step_sim_seconds == 0.0:
        # Plain (non-overlap) runs charge simulated time on leaf spans
        # only; the step's simulated total is then their serialized sum.
        profile.step_sim_seconds = sum(
            stats.sim_seconds for stats in profile.phases.values()
        )

    for event in metrics_events or ():
        if (event.get("type") == "histogram"
                and event.get("name") == "compress_kernel_seconds"):
            labels = dict(event.get("labels") or {})
            compressor = labels.get("compressor", "unknown")
            profile.kernel_percentiles[compressor] = {
                "count": event.get("count", 0),
                "p50": event.get("p50", 0.0),
                "p90": event.get("p90", event.get("p99", 0.0)),
                "p99": event.get("p99", 0.0),
            }
    profile.memory = memory
    return profile


def profile_tracer(tracer: Tracer) -> RunProfile:
    """Build a RunProfile straight from a live Tracer."""
    from repro.telemetry.exporters import telemetry_events

    events = telemetry_events(tracer)
    memory = getattr(tracer, "memory_high_water", None)
    return profile_events(events, metrics_events=events,
                          memory=dict(memory) if memory else None)


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
    children = _children_index(spans)
    weights: dict[str, int] = {}
    for event in spans:
        names = [event["name"]]
        parent = event.get("parent")
        guard = 0
        while parent is not None and parent in by_id and guard < 1000:
            names.append(by_id[parent]["name"])
            parent = by_id[parent].get("parent")
            guard += 1
        stack = ";".join(reversed(names))
        exclusive = max(0.0, float(event.get("dur", 0.0)) - sum(
            float(c.get("dur", 0.0)) for c in children.get(event.get("id"), ())
        ))
        weights[stack] = weights.get(stack, 0) + int(round(exclusive * 1e6))
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def write_folded(path: str | Path, spans_or_events: Iterable) -> int:
    """Write folded stacks; returns the number of lines."""
    lines = folded_stacks(spans_or_events)
    Path(path).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return len(lines)


def write_profile_json(path: str | Path, profile: RunProfile,
                       meta: dict | None = None) -> None:
    """Serialize a profile (with the shared metadata stamp) to JSON."""
    from repro.bench.metadata import run_metadata

    payload = profile.to_dict()
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
        try:
            import resource

            usage = resource.getrusage(resource.RUSAGE_SELF)
            # ru_maxrss is KiB on Linux, bytes on macOS.
            scale = 1 if usage.ru_maxrss > (1 << 32) else 1024
            self.memory_high_water["ru_maxrss_bytes"] = int(
                usage.ru_maxrss * scale
            )
        except ImportError:  # pragma: no cover - non-POSIX
            pass
        return dict(self.memory_high_water)
