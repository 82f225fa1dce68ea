"""Event-driven simulated timeline for overlapped execution.

The additive cost accounting the trainer used through PR 2 sums phase
times — correct for a strictly sequential pipeline, but a systematic
overestimate once communication is launched *during* back-propagation
the way Horovod does.  :class:`SimTimeline` replaces the sum with a
small discrete-event scheduler: the iteration is a set of
:class:`SimEvent`\\ s placed on named resources (``compute``,
``kernel``, ``network``), each event starts no earlier than both its
dependency (``not_before``) and the moment its resource frees up, and
the iteration's simulated time is the **makespan** — the latest event
end.

From the same event set the timeline derives the two quantities the
overlap analysis needs *exactly*:

* ``hidden_comm_seconds`` — network occupancy that coincides with some
  non-network event (communication hidden behind compute/kernels);
* ``exposed_comm_seconds`` — the remainder, defined as
  ``comm - hidden`` so ``exposed + hidden == comm`` holds bitwise.

With a single resource (or a strict dependency chain) the makespan
degenerates to the additive sum, which is the property the sequential
path pins in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Canonical resource names used by the trainer and the bench harness.
COMPUTE = "compute"
KERNEL = "kernel"
NETWORK = "network"


@dataclass(frozen=True)
class SimEvent:
    """One scheduled occupancy of a resource on the simulated clock."""

    name: str
    resource: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Duration of the event."""
        return self.end - self.start


@dataclass(frozen=True)
class OverlapStats:
    """Exact decomposition of network time into hidden and exposed parts.

    ``comm_seconds`` is *defined* as ``hidden + exposed`` so the
    identity ``exposed_comm_seconds + hidden_comm_seconds ==
    comm_seconds`` holds exactly (no float re-summation on a different
    association order).
    """

    hidden_comm_seconds: float
    exposed_comm_seconds: float

    @property
    def comm_seconds(self) -> float:
        """Total network occupancy."""
        return self.hidden_comm_seconds + self.exposed_comm_seconds

    @property
    def overlap_fraction(self) -> float:
        """Fraction of communication hidden behind other resources."""
        total = self.comm_seconds
        if total <= 0:
            return 0.0
        return self.hidden_comm_seconds / total


class SimTimeline:
    """Discrete-event scheduler over named, serial resources.

    Each resource executes one event at a time (a GPU, a compression
    stream, a NIC); :meth:`schedule` places an event at
    ``max(resource_free_time, not_before)``.  Events on *different*
    resources may overlap — that is the whole point.
    """

    def __init__(self):
        self.events: list[SimEvent] = []
        self._free: dict[str, float] = {}

    def schedule(
        self,
        resource: str,
        seconds: float,
        *,
        not_before: float = 0.0,
        name: str = "",
        **attrs: Any,
    ) -> SimEvent:
        """Occupy ``resource`` for ``seconds`` once free and ready."""
        if seconds < 0:
            raise ValueError(f"event duration must be >= 0, got {seconds}")
        if not_before < 0:
            raise ValueError(f"not_before must be >= 0, got {not_before}")
        start = max(self._free.get(resource, 0.0), not_before)
        event = SimEvent(
            name=name or resource,
            resource=resource,
            start=start,
            end=start + seconds,
            attrs=dict(attrs),
        )
        self._free[resource] = event.end
        self.events.append(event)
        return event

    @property
    def makespan(self) -> float:
        """Simulated time of the whole event graph (latest end)."""
        if not self.events:
            return 0.0
        return max(event.end for event in self.events)

    def events_for(self, resource: str) -> list[SimEvent]:
        """Events scheduled on one resource, in schedule order."""
        return [e for e in self.events if e.resource == resource]

    def overlap_stats(self, resource: str = NETWORK) -> OverlapStats:
        """Split ``resource`` occupancy into hidden and exposed time.

        An interval of ``resource`` is *hidden* while any other resource
        is busy.  Other-resource busy intervals are merged first, so
        double-covered network time is never counted twice.
        """
        other = _merge_intervals([
            (e.start, e.end)
            for e in self.events
            if e.resource != resource and e.end > e.start
        ])
        hidden = 0.0
        total = 0.0
        for event in self.events_for(resource):
            total += event.seconds
            hidden += _covered(event.start, event.end, other)
        return OverlapStats(
            hidden_comm_seconds=hidden,
            exposed_comm_seconds=total - hidden,
        )


def _merge_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Merge overlapping/adjacent intervals into a disjoint sorted list."""
    if not intervals:
        return []
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _covered(
    start: float, end: float, intervals: list[tuple[float, float]]
) -> float:
    """Length of ``[start, end)`` covered by disjoint sorted intervals."""
    covered = 0.0
    for lo, hi in intervals:
        if hi <= start:
            continue
        if lo >= end:
            break
        covered += min(end, hi) - max(start, lo)
    return covered
