"""Trace summarization for ``repro report``.

Consumes the JSONL events written by
:func:`repro.telemetry.exporters.write_jsonl` and aggregates them into
the accounting the paper's evaluation asks for: where the iteration time
went (per-phase wall and simulated shares), how many bytes crossed the
wire per worker (total and per collective op) and what each compressor's
kernel cost looked like.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Leaf phases of the span taxonomy, in pipeline order.  ``iteration``
#: spans are parents and are excluded from shares to avoid double counting.
LEAF_PHASES = (
    "compute",
    "memory_compensate",
    "compress",
    "collective",
    "decompress",
    "aggregate",
    "apply_update",
)

#: Short labels for the table (``collective`` is the comm phase).
_PHASE_DISPLAY = {"collective": "collective (comm)"}


def count_iterations(events) -> int:
    """Training iterations in a trace, each counted once.

    A parallel trace holds every rank's ``iteration`` spans, each with
    its ``rank``; only the lowest rank's count.  The simulator's carry
    no rank, so all of them count.
    """
    ranks = [(event.get("attrs") or {}).get("rank") for event in events
             if event.get("type") == "span" and event["name"] == "iteration"]
    lead = min((rank for rank in ranks if rank is not None), default=None)
    return ranks.count(lead)


@dataclass
class PhaseStats:
    """Aggregate of all spans sharing one phase name."""

    spans: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0


@dataclass
class TraceSummary:
    """Everything ``repro report`` prints, parsed from JSONL events."""

    phases: dict[str, PhaseStats] = field(default_factory=dict)
    iterations: int = 0
    counters: dict[tuple[str, tuple], float] = field(default_factory=dict)
    histograms: dict[tuple[str, tuple], dict] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_events(cls, events: list[dict]) -> "TraceSummary":
        """Aggregate raw JSONL event dicts."""
        summary = cls()
        for event in events:
            kind = event.get("type")
            if kind == "span":
                stats = summary.phases.setdefault(event["name"], PhaseStats())
                stats.spans += 1
                stats.wall_seconds += float(event.get("dur", 0.0))
                stats.sim_seconds += float(event.get("sim", 0.0))
            elif kind in ("counter", "gauge"):
                key = (event["name"],
                       tuple(sorted((event.get("labels") or {}).items())))
                summary.counters[key] = float(event.get("value", 0.0))
            elif kind == "histogram":
                key = (event["name"],
                       tuple(sorted((event.get("labels") or {}).items())))
                summary.histograms[key] = event
        summary.iterations = count_iterations(events)
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
        """Measured wall seconds summed over the leaf phases."""
        return sum(self.phases[p].wall_seconds
                   for p in LEAF_PHASES if p in self.phases)

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

    # -- rendering ----------------------------------------------------------

    def phase_rows(self) -> list[list[object]]:
        """Per-phase table rows in pipeline order (extras appended)."""
        total_sim = self.total_sim_seconds
        total_wall = self.total_wall_seconds
        ordered = [p for p in LEAF_PHASES if p in self.phases]
        ordered += sorted(p for p in self.phases
                          if p not in LEAF_PHASES and p != "iteration")
        rows = []
        for phase in ordered:
            stats = self.phases[phase]
            rows.append([
                _PHASE_DISPLAY.get(phase, phase),
                stats.spans,
                f"{stats.wall_seconds:.4f}",
                f"{stats.sim_seconds:.6f}",
                _share(stats.sim_seconds, total_sim),
                _share(stats.wall_seconds, total_wall),
            ])
        return rows

    def format(self) -> str:
        """The full ``repro report`` text."""
        # Deferred: repro.bench pulls in the trainer, which (through the
        # comm layer) imports this package — importing it lazily keeps
        # repro.telemetry a leaf the core/comm modules can depend on.
        from repro.bench.report import format_table

        sections = []
        rows = self.phase_rows()
        if rows:
            sections.append("Per-phase breakdown")
            sections.append(format_table(
                ["phase", "spans", "wall s", "sim s", "sim share",
                 "wall share"],
                rows,
            ))
        totals = [
            ["iterations", self.iterations],
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
        sections.append("")
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
            # Only fault-injected runs carry these counters, so golden
            # fault-free reports render byte-identically to before.
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
        kernels = self.histograms_by_label(
            "compress_kernel_seconds", "compressor"
        )
        if kernels:
            sections.append("")
            sections.append("Compression kernel latency (measured, per tensor)")
            sections.append(format_table(
                ["compressor", "calls", "mean ms", "p50 ms", "p99 ms"],
                [[name,
                  snap.get("count", 0),
                  f"{_mean_ms(snap):.4f}",
                  f"{snap.get('p50', 0.0) * 1e3:.4f}",
                  f"{snap.get('p99', 0.0) * 1e3:.4f}"]
                 for name, snap in sorted(kernels.items())],
            ))
        return "\n".join(sections)


def _share(value: float, total: float) -> str:
    if total <= 0:
        return "-"
    return f"{100.0 * value / total:.1f}%"


def _mean_ms(snapshot: dict) -> float:
    count = snapshot.get("count", 0)
    if not count:
        return 0.0
    return snapshot.get("sum", 0.0) / count * 1e3


def summarize_events(events: list[dict]) -> TraceSummary:
    """Convenience wrapper used by the CLI."""
    return TraceSummary.from_events(events)
