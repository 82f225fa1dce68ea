"""ArenaSanitizer — happens-before replay of arena protocol events.

The static rules (GR007/GR008) pin the *code shape* of the arena
protocol; this module pins its *executions*.  When an arena is created
with ``event_slots > 0`` every rank records its protocol transitions —
payload writes, publication stores, peer reads, drains, allocations,
heartbeats — into a per-rank shared-memory ring
(:meth:`repro.comm.shm.SharedArena._record`).  After the round the
parent replays the merged streams through a vector-clock happens-before
checker and reports typed :class:`ArenaViolation`\\ s:

* ``publish-before-write`` — a rank published a sequence number before
  (or without) writing the payload and metadata for it: the exact
  inversion GR007 forbids statically, observed at runtime;
* ``read-unpublished`` — a rank consumed a peer contribution whose
  publication store is not in the read's causal past;
* ``drain-unpublished`` — a rank advanced its drained counter past a
  sequence number it neither posted nor read;
* ``read-after-drain`` — a rank read a contribution to a sequence
  number its own drained counter had already passed (the counter is
  cumulative: with collectives finished out of issue order it may only
  rise to the lowest one still unread, or a peer is free to reclaim
  bytes this rank has yet to read);
* ``reuse-before-floor`` — the bump allocator handed out bytes still
  owned by a sequence number some active rank had not drained at
  allocation time (the wraparound bug class);
* ``heartbeat-gap`` — a rank went silent longer than the watchdog's
  stall budget between two recorded events (only checked when a
  threshold is supplied).

Event timestamps are CLOCK_MONOTONIC nanoseconds, which is system-wide
on the platforms we target, so cross-process merge order is sound; the
vector clocks layered on top make the publication edges explicit (a
read joins the clock snapshot of the publication it consumed).  Rings
wrap: when a rank reports dropped events the checker narrows its
claims to the surviving window instead of inventing violations about
evidence it never saw, and a kill-truncated stream (chaos runs) is
naturally consistent — events written before the SIGKILL persist in
shared memory and later events simply do not exist.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.comm.shm import (
    EV_ALLOC,
    EV_BEAT,
    EV_DRAIN,
    EV_POST,
    EV_READ,
    EV_WRITE,
    SharedArena,
)

_EVENT_NAMES = {
    EV_WRITE: "write",
    EV_POST: "post",
    EV_READ: "read",
    EV_DRAIN: "drain",
    EV_ALLOC: "alloc",
    EV_BEAT: "beat",
}


@dataclass(frozen=True)
class ArenaViolation:
    """One happens-before violation, naming the rank and sequence."""

    kind: str
    rank: int
    seq: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] rank {self.rank} seq {self.seq}: {self.detail}"


@dataclass
class SanitizerReport:
    """Outcome of one happens-before replay."""

    events_total: int = 0
    per_rank_events: dict[int, int] = field(default_factory=dict)
    dropped: dict[int, int] = field(default_factory=dict)
    violations: list[ArenaViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "SanitizerReport") -> None:
        """Fold another round's report into this one (recovery rounds)."""
        self.events_total += other.events_total
        for rank, count in other.per_rank_events.items():
            self.per_rank_events[rank] = (
                self.per_rank_events.get(rank, 0) + count
            )
        for rank, count in other.dropped.items():
            self.dropped[rank] = self.dropped.get(rank, 0) + count
        self.violations.extend(other.violations)


class ArenaSanitizerError(RuntimeError):
    """The sanitizer found happens-before violations in a round."""

    def __init__(self, report: SanitizerReport):
        self.report = report
        summary = "; ".join(str(v) for v in report.violations[:5])
        extra = len(report.violations) - 5
        if extra > 0:
            summary += f"; +{extra} more"
        super().__init__(
            f"arena sanitizer: {len(report.violations)} happens-before "
            f"violation(s) over {report.events_total} events: {summary}"
        )


class _DrainTimeline:
    """One rank's cumulative drained counter as a function of time."""

    def __init__(self):
        self._times: list[int] = []
        self._through: list[int] = []

    def record(self, t_ns: int, seq: int) -> None:
        through = seq + 1
        if self._through and through <= self._through[-1]:
            return
        self._times.append(t_ns)
        self._through.append(through)

    def drained_past(self, seq: int, t_ns: int) -> bool:
        """Whether the counter had passed ``seq`` by time ``t_ns``."""
        index = bisect_right(self._times, t_ns) - 1
        return index >= 0 and self._through[index] > seq


def check_streams(
    streams: dict[int, list[tuple[int, int, int, int, int]]],
    dropped: dict[int, int] | None = None,
    hb_gap_ns: int | None = None,
) -> SanitizerReport:
    """Replay per-rank event streams and report protocol violations.

    ``streams`` maps rank to ``(etype, seq, a, b, t_ns)`` tuples in
    program order (ring-window order); ``dropped`` carries each rank's
    wraparound loss so the checker can decline to flag missing evidence.
    """
    dropped = dropped or {}
    report = SanitizerReport(
        events_total=sum(len(s) for s in streams.values()),
        per_rank_events={r: len(s) for r, s in streams.items()},
        dropped={r: n for r, n in dropped.items() if n},
    )
    participants = sorted(r for r, s in streams.items() if s)
    if not participants:
        return report

    # --- per-rank program-order checks -----------------------------------
    posts: dict[tuple[int, int], int] = {}  # (rank, seq) -> t_ns
    post_clocks: dict[tuple[int, int], dict[int, int]] = {}
    drains: dict[int, _DrainTimeline] = {}
    for rank in participants:
        lossy = bool(dropped.get(rank))
        written: set[int] = set()
        observed: set[int] = set()  # seqs this rank posted or read
        timeline = drains.setdefault(rank, _DrainTimeline())
        drained_through = 0
        last_t: int | None = None
        for etype, seq, a, b, t_ns in streams[rank]:
            if (
                hb_gap_ns is not None
                and last_t is not None
                and t_ns - last_t > hb_gap_ns
            ):
                report.violations.append(ArenaViolation(
                    "heartbeat-gap", rank, seq,
                    f"{(t_ns - last_t) / 1e9:.3f}s of silence before this "
                    f"{_EVENT_NAMES.get(etype, etype)} event exceeds the "
                    f"{hb_gap_ns / 1e9:.3f}s stall budget; the watchdog "
                    "would have convicted this rank",
                ))
            last_t = t_ns
            if etype == EV_WRITE:
                written.add(seq)
            elif etype == EV_POST:
                if seq not in written and not lossy:
                    report.violations.append(ArenaViolation(
                        "publish-before-write", rank, seq,
                        "publication store observed with no preceding "
                        "payload/metadata write for this sequence number "
                        "— a peer reading on the published seq can copy "
                        "torn or stale bytes",
                    ))
                posts[(rank, seq)] = t_ns
                observed.add(seq)
            elif etype == EV_READ:
                observed.add(seq)
                if seq < drained_through:
                    report.violations.append(ArenaViolation(
                        "read-after-drain", rank, seq,
                        f"read of rank {a}'s contribution after this "
                        f"rank's drained counter reached {drained_through}"
                        " — the writer may already have reclaimed the "
                        "bytes; drained may only rise to the lowest "
                        "sequence number still unread",
                    ))
            elif etype == EV_DRAIN:
                if seq not in observed and not lossy:
                    report.violations.append(ArenaViolation(
                        "drain-unpublished", rank, seq,
                        "drained counter advanced past a sequence number "
                        "this rank neither posted nor read; peers' "
                        "allocators may reclaim bytes that were never "
                        "consumed",
                    ))
                timeline.record(t_ns, seq)
                drained_through = max(drained_through, seq + 1)

    # --- cross-rank happens-before (vector clocks) -----------------------
    merged: list[tuple[int, int, tuple[int, int, int, int, int]]] = []
    for rank in participants:
        for event in streams[rank]:
            merged.append((event[4], rank, event))
    merged.sort(key=lambda item: (item[0], item[1]))
    clocks: dict[int, dict[int, int]] = {r: {} for r in participants}
    for t_ns, rank, (etype, seq, a, b, _) in merged:
        clock = clocks[rank]
        clock[rank] = clock.get(rank, 0) + 1
        if etype == EV_POST:
            post_clocks[(rank, seq)] = dict(clock)
        elif etype == EV_READ:
            peer = a
            post_t = posts.get((peer, seq))
            if post_t is None:
                if not dropped.get(peer):
                    report.violations.append(ArenaViolation(
                        "read-unpublished", rank, seq,
                        f"read of rank {peer}'s contribution has no "
                        "publication store in its causal past — the "
                        "bytes were never (visibly) posted",
                    ))
            elif post_t > t_ns:
                report.violations.append(ArenaViolation(
                    "read-unpublished", rank, seq,
                    f"read at t={t_ns} precedes rank {peer}'s "
                    f"publication at t={post_t}; the publication store "
                    "did not happen-before the read",
                ))
            else:
                for peer_rank, tick in post_clocks.get(
                    (peer, seq), {}
                ).items():
                    if clock.get(peer_rank, 0) < tick:
                        clock[peer_rank] = tick

    # --- allocator reuse vs the drained floor ----------------------------
    for rank in participants:
        live: list[tuple[int, int, int, int]] = []  # (seq, off, nbytes, t)
        for etype, seq, a, b, t_ns in streams[rank]:
            if etype != EV_ALLOC or not b:
                continue
            off, nbytes = a, b
            survivors: list[tuple[int, int, int, int]] = []
            for prev_seq, prev_off, prev_nb, prev_t in live:
                overlap = off < prev_off + prev_nb and prev_off < off + nbytes
                if not overlap:
                    survivors.append((prev_seq, prev_off, prev_nb, prev_t))
                    continue
                laggards = [
                    q for q in participants
                    if not drains[q].drained_past(prev_seq, t_ns)
                    and not dropped.get(q)
                ]
                if laggards:
                    report.violations.append(ArenaViolation(
                        "reuse-before-floor", rank, seq,
                        f"allocation [{off}, {off + nbytes}) reuses bytes "
                        f"of seq {prev_seq} at [{prev_off}, "
                        f"{prev_off + prev_nb}) before rank(s) "
                        f"{laggards} drained past it — a late reader "
                        "would see the new payload's bytes",
                    ))
            survivors.append((seq, off, nbytes, t_ns))
            live = survivors
    return report


def collect_report(
    arena: SharedArena, hb_gap_ns: int | None = None
) -> SanitizerReport:
    """Parent-side: drain the arena's event rings and replay them.

    An arena created without an event ring yields an empty (ok)
    report, so callers can collect unconditionally.
    """
    if not arena.recording:
        return SanitizerReport()
    streams = arena.event_streams()
    dropped = {
        rank: arena.events_dropped(rank)
        for rank in range(arena.spec.n_ranks)
    }
    return check_streams(streams, dropped=dropped, hb_gap_ns=hb_gap_ns)
