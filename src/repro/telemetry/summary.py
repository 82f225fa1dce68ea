"""The one reader of a run's trace (``repro report``, ``repro profile``).

Consumes the JSONL events written by
:func:`repro.telemetry.exporters.write_jsonl` (or a live run's
:func:`~repro.telemetry.exporters.telemetry_events`) and aggregates them
into the accounting the paper's evaluation asks for: where each step's
time went, per phase, on both clocks; how many bytes crossed the wire
per worker (total and per collective op); what each compressor's
kernel cost looked like; and, under the profiler, the memory
high-water marks.

Every span is charged its *exclusive* wall time (duration minus its
children's), and whatever an ``iteration`` span spent outside any child
lands in an explicit ``(unattributed)`` row, so the rows sum to total
step time.  Simulated seconds are counted once per step: on a parallel
trace the spans under another rank's ``iteration`` span do not count,
because every rank charges the same modeled collective on its own span
and the simulator charges it once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: Leaf phases of the span taxonomy, in pipeline order.
LEAF_PHASES = (
    "compute",
    "memory_compensate",
    "compress",
    "collective",
    "decompress",
    "aggregate",
    "apply_update",
)

#: The row for step time outside any child span.
UNATTRIBUTED = "(unattributed)"

#: Short labels for the table (``collective`` is the comm phase).
_PHASE_DISPLAY = {"collective": "collective (comm)"}


def exclusive_wall(spans: list[dict]) -> list[float]:
    """Each span's wall seconds minus its children's, in input order."""
    child_wall: dict = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_wall[parent] = (child_wall.get(parent, 0.0)
                                  + float(span.get("dur", 0.0)))
    return [max(0.0, float(span.get("dur", 0.0))
                - child_wall.get(span.get("id"), 0.0))
            for span in spans]


def _iteration_rank(span: dict, by_id: dict):
    """The ``rank`` of the ``iteration`` span ``span`` lies under."""
    while span is not None and span["name"] != "iteration":
        parent = span.get("parent")
        span = by_id.get(parent) if parent is not None else None
    return None if span is None else (span.get("attrs") or {}).get("rank")


@dataclass
class PhaseStats:
    """Aggregate of all spans sharing one phase name."""

    spans: int = 0
    wall_seconds: float = 0.0  # exclusive, summed over ranks
    sim_seconds: float = 0.0  # the lead rank's


@dataclass
class TraceSummary:
    """Everything ``repro report`` and ``repro profile`` print."""

    phases: dict[str, PhaseStats] = field(default_factory=dict)
    iterations: int = 0
    step_wall_seconds: float = 0.0  # sum of iteration-span durations
    counters: dict[tuple[str, tuple], float] = field(default_factory=dict)
    histograms: dict[tuple[str, tuple], dict] = field(default_factory=dict)
    memory: dict[str, int] | None = None  # ProfilingTracer high-water marks

    # -- construction -------------------------------------------------------

    @classmethod
    def from_events(cls, events: list[dict],
                    memory: dict[str, int] | None = None) -> "TraceSummary":
        """Aggregate raw JSONL event dicts (plus the profiler's marks)."""
        spans = [event for event in events if event.get("type") == "span"]
        # A parallel trace holds every rank's iterations, each with its
        # ``rank``: only the lowest rank's count.  The simulator's carry
        # no rank, so all of them count.
        ranks = [(span.get("attrs") or {}).get("rank") for span in spans
                 if span["name"] == "iteration"]
        lead = min((rank for rank in ranks if rank is not None),
                   default=None)
        summary = cls(iterations=ranks.count(lead), memory=memory)
        by_id = {span.get("id"): span for span in spans}
        for span, wall in zip(spans, exclusive_wall(spans)):
            name = span["name"]
            if name == "iteration":
                summary.step_wall_seconds += float(span.get("dur", 0.0))
                name = UNATTRIBUTED
            stats = summary.phases.setdefault(name, PhaseStats())
            stats.spans += 1
            stats.wall_seconds += wall
            # Every rank charges the same modeled step on its own spans;
            # the lead rank's (or a rank-less simulator step's) count.
            if (name != UNATTRIBUTED
                    and _iteration_rank(span, by_id) in (None, lead)):
                stats.sim_seconds += float(span.get("sim", 0.0))
        for event in events:
            kind = event.get("type")
            if kind not in ("counter", "gauge", "histogram"):
                continue
            key = (event["name"],
                   tuple(sorted((event.get("labels") or {}).items())))
            if kind == "histogram":
                summary.histograms[key] = event
            else:
                summary.counters[key] = float(event.get("value", 0.0))
        return summary

    # -- lookups ------------------------------------------------------------

    def counter(self, name: str, labels: dict | None = None,
                default: float = 0.0) -> float:
        """A counter/gauge snapshot value by name and exact labels."""
        key = (name, tuple(sorted((labels or {}).items())))
        return self.counters.get(key, default)

    def counters_by_label(self, name: str, label: str) -> dict[str, float]:
        """All values of one metric keyed by a label (e.g. bytes by op)."""
        out: dict[str, float] = {}
        for (metric, labels), value in self.counters.items():
            if metric != name:
                continue
            for key, label_value in labels:
                if key == label:
                    out[label_value] = out.get(label_value, 0.0) + value
        return out

    def histograms_by_label(self, name: str, label: str) -> dict[str, dict]:
        """Histogram snapshots of one metric keyed by a label value."""
        out: dict[str, dict] = {}
        for (metric, labels), snapshot in self.histograms.items():
            if metric != name:
                continue
            for key, label_value in labels:
                if key == label:
                    out[label_value] = snapshot
        return out

    @property
    def total_sim_seconds(self) -> float:
        """Simulated seconds summed over the leaf phases."""
        return sum(self.phases[p].sim_seconds
                   for p in LEAF_PHASES if p in self.phases)

    @property
    def total_wall_seconds(self) -> float:
        """Exclusive wall seconds summed over the leaf phases."""
        return sum(self.phases[p].wall_seconds
                   for p in LEAF_PHASES if p in self.phases)

    @property
    def attributed_wall_seconds(self) -> float:
        """Sum over every row, ``(unattributed)`` included."""
        return sum(stats.wall_seconds for stats in self.phases.values())

    @property
    def attribution_error(self) -> float:
        """Relative gap between attributed and total step wall time."""
        if self.step_wall_seconds <= 0:
            return 0.0
        return (abs(self.attributed_wall_seconds - self.step_wall_seconds)
                / self.step_wall_seconds)

    @property
    def makespan_seconds(self) -> float:
        """Event-timeline makespan (0 when the run did not overlap)."""
        return self.counter("train_sim_makespan_seconds_total")

    @property
    def overlap_fraction(self) -> float:
        """Share of simulated communication hidden under other phases."""
        hidden = self.counter("train_sim_hidden_comm_seconds_total")
        exposed = self.counter("train_sim_exposed_comm_seconds_total")
        total = hidden + exposed
        if total <= 0:
            return 0.0
        return hidden / total

    @property
    def kernels(self) -> dict[str, dict]:
        """``compress_kernel_seconds`` snapshots keyed by compressor."""
        return self.histograms_by_label("compress_kernel_seconds",
                                        "compressor")

    # -- rendering ----------------------------------------------------------

    def phase_rows(self) -> list[list[object]]:
        """Table rows: pipeline phases first, extras after, sink last."""
        ordered = [p for p in LEAF_PHASES if p in self.phases]
        ordered += sorted(p for p in self.phases
                          if p not in LEAF_PHASES and p != UNATTRIBUTED)
        if UNATTRIBUTED in self.phases:
            ordered.append(UNATTRIBUTED)
        total_sim = self.total_sim_seconds
        rows = []
        for phase in ordered:
            stats = self.phases[phase]
            rows.append([
                _PHASE_DISPLAY.get(phase, phase),
                stats.spans,
                f"{stats.wall_seconds:.4f}",
                _share(stats.wall_seconds, self.step_wall_seconds),
                f"{stats.sim_seconds:.6f}",
                _share(stats.sim_seconds, total_sim),
            ])
        return rows

    def format(self) -> str:
        """The full text both commands print."""
        # Deferred: repro.bench pulls in the trainer, which (through the
        # comm layer) imports this package — importing it lazily keeps
        # repro.telemetry a leaf the core/comm modules can depend on.
        from repro.bench.report import format_table

        sections = []
        rows = self.phase_rows()
        if rows:
            sections.append("Per-phase breakdown (exclusive wall time)")
            sections.append(format_table(
                ["phase", "spans", "wall s", "step share", "sim s",
                 "sim share"],
                rows,
            ))
            sections.append("")
        totals = [
            ["iterations", self.iterations],
            ["step wall seconds", f"{self.step_wall_seconds:.4f}"],
            ["attributed wall seconds",
             f"{self.attributed_wall_seconds:.4f}"],
            ["attribution error", f"{100 * self.attribution_error:.3f}%"],
            ["simulated seconds (leaf phases)",
             f"{self.total_sim_seconds:.6f}"],
        ]
        makespan = self.makespan_seconds
        if makespan > 0:
            totals += [
                ["simulated makespan seconds", f"{makespan:.6f}"],
                ["exposed comm seconds",
                 f"{self.counter('train_sim_exposed_comm_seconds_total'):.6f}"],
                ["hidden comm seconds",
                 f"{self.counter('train_sim_hidden_comm_seconds_total'):.6f}"],
                ["overlap fraction", f"{100.0 * self.overlap_fraction:.1f}%"],
            ]
        totals += [
            ["bytes on wire / worker",
             f"{self.counter('train_bytes_per_worker_total', default=self.counter('comm_bytes_per_worker_total')):,.0f}"],
            ["collective ops",
             f"{self.counter('comm_ops_total'):,.0f}"],
            ["framing overhead bytes",
             f"{self.counter('wire_framing_overhead_bytes_total'):,.0f}"],
        ]
        sections.append("Totals")
        sections.append(format_table(["quantity", "value"], totals))
        if makespan > 0 and self.total_sim_seconds > makespan:
            sections.append(
                "note: overlap active — leaf-phase sim seconds "
                f"({self.total_sim_seconds:.6f}) exceed the iteration "
                f"makespan ({makespan:.6f}) because phases ran "
                "concurrently; sim shares above are of serialized phase "
                "time, not of elapsed simulated time."
            )
        op_bytes = self.counters_by_label(
            "comm_op_bytes_per_worker_total", "op"
        )
        if op_bytes:
            op_seconds = self.counters_by_label(
                "comm_op_sim_seconds_total", "op"
            )
            sections.append("")
            sections.append("Bytes per collective op (per worker)")
            sections.append(format_table(
                ["op", "bytes", "sim s"],
                [[op, f"{value:,.0f}",
                  f"{op_seconds.get(op, 0.0):.6f}"]
                 for op, value in sorted(op_bytes.items())],
            ))
        faults = self.counters_by_label("faults_injected_total", "kind")
        if faults:
            # Only fault-injected runs carry these counters, so fault-free
            # runs print no resilience section at all.
            resilience = [
                ["retries", f"{self.counter('retries_total'):,.0f}"],
                ["retransmitted bytes",
                 f"{self.counter('retransmit_bytes_total'):,.0f}"],
                ["checksum failures (detected)",
                 f"{self.counter('comm_checksum_failures_total'):,.0f}"],
                ["degraded iterations",
                 f"{self.counter('degraded_iterations_total'):,.0f}"],
                ["aborted iterations",
                 f"{self.counter('aborted_iterations_total'):,.0f}"],
                ["recoveries",
                 f"{self.counter('recoveries_total'):,.0f}"],
                ["checkpoints captured",
                 f"{self.counter('checkpoints_total'):,.0f}"],
                ["recovery seconds",
                 f"{self.counter('train_sim_recovery_seconds_total'):.6f}"],
            ]
            sections.append("")
            sections.append("Faults & resilience")
            sections.append(format_table(
                ["fault kind", "injected"],
                [[kind, f"{count:,.0f}"]
                 for kind, count in sorted(faults.items())],
            ))
            sections.append(format_table(["quantity", "value"], resilience))
        kernels = self.kernels
        if kernels:
            sections.append("")
            sections.append("Compressor kernel latency (measured, per call)")
            sections.append(format_table(
                ["compressor", "calls", "mean ms", "p50 ms", "p90 ms",
                 "p99 ms"],
                [[name, snap.get("count", 0), f"{_mean_ms(snap):.4f}"]
                 + [f"{snap.get(q, 0.0) * 1e3:.4f}"
                    for q in ("p50", "p90", "p99")]
                 for name, snap in sorted(kernels.items())],
            ))
        if self.memory:
            sections.append("")
            sections.append("Memory high-water marks")
            sections.append(format_table(
                ["source", "bytes"],
                [[key, f"{value:,}"]
                 for key, value in sorted(self.memory.items())],
            ))
        return "\n".join(sections)

    def to_dict(self) -> dict:
        """The attribution, clocks, kernels and memory as plain JSON."""
        return {
            "iterations": self.iterations,
            "step_wall_seconds": self.step_wall_seconds,
            "attributed_wall_seconds": self.attributed_wall_seconds,
            "attribution_error": self.attribution_error,
            "sim_seconds": self.total_sim_seconds,
            "makespan_seconds": self.makespan_seconds,
            "phases": {name: asdict(stats)
                       for name, stats in self.phases.items()},
            "kernel_percentiles": {
                name: {key: snap.get(key, 0.0)
                       for key in ("count", "sum", "p50", "p90", "p99")}
                for name, snap in self.kernels.items()
            },
            "memory": self.memory,
        }


def _share(value: float, total: float) -> str:
    if total <= 0:
        return "-"
    return f"{100.0 * value / total:.1f}%"


def _mean_ms(snapshot: dict) -> float:
    count = snapshot.get("count", 0)
    if not count:
        return 0.0
    return snapshot.get("sum", 0.0) / count * 1e3

