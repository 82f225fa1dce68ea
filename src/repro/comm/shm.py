"""Shared-memory payload arena for the real-parallel backend.

The sequential simulator hands payloads between ranks as in-process
Python references.  The real-parallel backend (`repro.comm.parallel`)
runs each rank in its own OS process, so contributions move through
POSIX shared memory instead: one small int64 *control* segment carries
the rendezvous state, and one per-rank uint8 *data* segment carries the
actual bytes.  Every collective consumes one monotonically increasing
**sequence number**; rank ``r``'s contribution to collective ``seq``
is a (offset, nbytes, kind) record in the control segment's metadata
ring plus the raw bytes in ``r``'s data segment.

Protocol (per rank ``r``, collective ``seq``):

1. *post* — copy the payload into ``r``'s data segment (bump allocation
   with wraparound; a payload is never split across the wrap), write
   the metadata slot ``[r][seq % meta_slots]``, then publish by storing
   ``posted[r] = seq + 1``.  Publication is the last store, so a reader
   that observes ``posted[r] > seq`` sees complete metadata and data.
2. *read* — peers poll ``posted[r]`` until it exceeds ``seq`` (bounded
   by a timeout), then copy the bytes out; :meth:`SharedArena.arrived`
   is the same test without the wait.
3. *drain* — once a rank has finished reading every peer's contribution
   for ``seq`` *and for every earlier sequence number* it stores
   ``drained[rank] = max(current, seq + 1)`` (idempotent, so a defensive
   re-drain agrees).  The counter is cumulative: a rank with several
   collectives in flight may finish them in any order but must only
   ever drain to the lowest one it still has to read — the
   communicator's progress engine owns that rule.  A writer reclaims
   the data bytes for ``seq`` only when ``min(drained)`` over all ranks
   has passed it.

Every wait of the protocol — for a peer to post, for a metadata slot,
for segment space — is one loop, :meth:`SharedArena._poll`: it polls
without sleeping for ``_SPIN_SECONDS`` (a post→view hop is tens of
microseconds, a ``time.sleep(50e-6)`` really lasts over 100), then
backs off to the sleep, and yields the core between polls instead of
spinning when the cohort outnumbers the cores this process may run on.
The two waits of a *post* additionally run the caller's ``progress``
callback between polls, so a rank whose own undrained collectives hold
the ring or the segment completes them instead of waiting on itself.

The control layout is plain aligned int64 slots; on the platforms we
target (CPython on x86-64/aarch64) aligned 8-byte loads/stores through
NumPy are single machine accesses and the interpreter does not reorder
them, which is the same assumption every Python shm ring-buffer makes.
There are no locks: each control slot has exactly one writer.

Failure handling is typed, never a hang: peers that fail set
``status[rank] = STATUS_FAILED`` and the parent (or any rank) can set
the global *abort* flag, which the poll loop checks on every iteration,
spinning or sleeping —
:class:`ArenaAbortedError` (a :class:`~repro.faults.WorkerCrashError`)
for aborts, :class:`ArenaTimeoutError` (a
:class:`~repro.faults.CollectiveTimeoutError`) for missing peers, and
:class:`ArenaOverflowError` when a payload cannot fit even after
waiting for reclamation.

Liveness is observable from outside: each rank owns a **heartbeat**
pair (a monotonic-ns timestamp plus a progress word holding the last
iteration it started) that it refreshes at every iteration boundary
*and* on every iteration of the poll loop, so a rank blocked waiting on
a peer still reads as alive while a SIGKILLed or wedged one goes stale.
The parent's watchdog (see :mod:`repro.comm.parallel`) reads the
heartbeats; CLOCK_MONOTONIC is system-wide on the platforms we target,
so cross-process timestamp arithmetic is sound.  The control segment
also carries the cohort **incarnation** number (bumped by the parent
on every crash-recovery re-rendezvous) and a per-rank **active mask**:
survivor cohorts exclude dead ranks, and every reclamation floor is a
minimum over *active* ranks only, so a dead rank's frozen ``drained``
counter can never wedge the survivors' allocator.

Lifecycle: the parent *creates* the segments and is the only process
that *unlinks* them; workers *attach* and must only close.  Spawned
workers share the parent's ``resource_tracker`` process, so a worker's
duplicate attach-time registration is harmless and the owner's unlink
clears the tracker entry — no segment outlives the parent.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.faults.plan import CollectiveTimeoutError, WorkerCrashError

# Payload kinds carried in the metadata ring.  Peers participating in
# the same collective must agree on the kind; a mismatch means the
# ranks have desynchronized and raises ArenaProtocolError.
KIND_DENSE = 1  # raw little-endian float32 buffer (fused dense bucket)
KIND_WIRE = 2  # core.wire-serialized compressed payload
KIND_OBJECT = 3  # pickled Python object (control plane only)

_KNOWN_KINDS = frozenset({KIND_DENSE, KIND_WIRE, KIND_OBJECT})

STATUS_RUNNING = 0
STATUS_DONE = 1
STATUS_FAILED = 2

# Control-segment slot indices (int64 each).
_CTRL_ABORT = 0
_CTRL_NRANKS = 1
_CTRL_INCARNATION = 2
# posted[N], drained[N], status[N], active[N], hb_time[N],
# hb_progress[N], then the meta ring.
_CTRL_FIXED = 3
_RANK_WORDS = 6

_META_FIELDS = 3  # offset, nbytes, kind

DEFAULT_DATA_BYTES = 32 * 1024 * 1024
DEFAULT_META_SLOTS = 1024
DEFAULT_TIMEOUT = 60.0

_SPIN_SECONDS = 200e-6  # poll this long without sleeping, then back off
_POLL_SLEEP = 50e-6  # requested sleep between polls after the spin budget

_ALIGN = 64  # data-segment allocation alignment (dtype-view friendly)


class ArenaOverflowError(RuntimeError):
    """A payload cannot fit in the data segment, even after reclamation."""


class ArenaTimeoutError(CollectiveTimeoutError):
    """A peer failed to post its contribution within the timeout."""


class ArenaAbortedError(WorkerCrashError):
    """The collective was aborted because a participant died or failed."""


class ArenaProtocolError(RuntimeError):
    """Peers disagreed about a collective's payload kind or framing."""


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable handle workers use to attach to an existing arena."""

    control_name: str
    data_names: tuple[str, ...]
    n_ranks: int
    data_bytes: int
    meta_slots: int
    # Optional sanitizer event ring (see repro.comm.sanitizer): name of
    # the extra shared segment and per-rank slot count; (None, 0) means
    # event recording is off and every _record() call is a no-op.
    event_name: str | None = None
    event_slots: int = 0


def _control_slots(n_ranks: int, meta_slots: int) -> int:
    return (
        _CTRL_FIXED
        + _RANK_WORDS * n_ranks
        + n_ranks * meta_slots * _META_FIELDS
    )


# Sanitizer event types, recorded into the per-rank event ring.  The
# writer protocol mirrors the arena's own: slot fields first, cursor
# bump last, so the parent's replay never sees a half-written event.
EV_WRITE = 1  # payload bytes + metadata slot written (pre-publication)
EV_POST = 2  # publication store completed (posted[r] = seq + 1)
EV_READ = 3  # peer contribution observed/copied (a = peer rank)
EV_DRAIN = 4  # drained[r] advanced past seq
EV_ALLOC = 5  # bump allocation granted (a = offset, b = nbytes)
EV_BEAT = 6  # heartbeat refresh (throttled; a = progress or -1)

_EV_FIELDS = 5  # etype, seq, a, b, t_ns
_EV_HEADER = 2  # cursor, dropped
_EV_BEAT_THROTTLE_NS = 1_000_000  # at most one EV_BEAT per ms per rank


def _event_slots_total(n_ranks: int, event_slots: int) -> int:
    return n_ranks * (_EV_HEADER + event_slots * _EV_FIELDS)


class SharedArena:
    """One rank's (or the parent's) view of the shared payload arena."""

    def __init__(
        self,
        spec: ArenaSpec,
        rank: int | None,
        control: shared_memory.SharedMemory,
        data: list[shared_memory.SharedMemory],
        owner: bool,
        events: shared_memory.SharedMemory | None = None,
    ):
        self.spec = spec
        self.rank = rank
        self._control_shm = control
        self._data_shm = data
        self._events_shm = events
        self._owner = owner
        self._closed = False
        n = spec.n_ranks
        ctrl = np.frombuffer(
            control.buf, dtype=np.int64, count=_control_slots(n, spec.meta_slots)
        )
        self._ctrl = ctrl
        self._posted = ctrl[_CTRL_FIXED:_CTRL_FIXED + n]
        self._drained = ctrl[_CTRL_FIXED + n:_CTRL_FIXED + 2 * n]
        self._status = ctrl[_CTRL_FIXED + 2 * n:_CTRL_FIXED + 3 * n]
        self._active = ctrl[_CTRL_FIXED + 3 * n:_CTRL_FIXED + 4 * n]
        self._hb_time = ctrl[_CTRL_FIXED + 4 * n:_CTRL_FIXED + 5 * n]
        self._hb_progress = ctrl[_CTRL_FIXED + 5 * n:_CTRL_FIXED + 6 * n]
        self._meta = ctrl[_CTRL_FIXED + _RANK_WORDS * n:].reshape(
            n, spec.meta_slots, _META_FIELDS
        )
        self._data = [
            np.frombuffer(shm.buf, dtype=np.uint8, count=spec.data_bytes)
            for shm in data
        ]
        # Sanitizer event ring views (None when recording is off).
        if events is not None and spec.event_slots:
            ev = np.frombuffer(
                events.buf,
                dtype=np.int64,
                count=_event_slots_total(n, spec.event_slots),
            )
            per_rank = _EV_HEADER + spec.event_slots * _EV_FIELDS
            self._ev_cursor = ev[0::per_rank][:n]
            self._ev_dropped = ev[1::per_rank][:n]
            self._ev_rings = [
                ev[
                    r * per_rank + _EV_HEADER:(r + 1) * per_rank
                ].reshape(spec.event_slots, _EV_FIELDS)
                for r in range(n)
            ]
        else:
            self._ev_cursor = None
            self._ev_dropped = None
            self._ev_rings = None
        self._last_beat_ev_ns = 0
        # Writer-local bump-allocator state (only meaningful when
        # rank is not None): blocks still owned by undrained seqs.
        self._head = 0
        self._outstanding: list[tuple[int, int, int]] = []  # (seq, off, nbytes)
        # The active ranks and whether a waiting rank may keep its core
        # (see _poll), both read at first use: a worker attaches after
        # the parent has written the mask, which then never changes.
        self._cohort: list[int] | None = None
        self._spins: bool | None = None
        self._wait_metrics = None  # set by attach_telemetry

    # -- lifecycle

    @classmethod
    def create(
        cls,
        n_ranks: int,
        data_bytes: int = DEFAULT_DATA_BYTES,
        meta_slots: int = DEFAULT_META_SLOTS,
        active_ranks=None,
        incarnation: int = 0,
        event_slots: int = 0,
    ) -> "SharedArena":
        """Create the segments (parent side).  The result owns them.

        ``active_ranks`` restricts the cohort to a survivor subset
        (``None`` means every rank participates); ``incarnation`` is
        the parent's crash-recovery generation counter, stamped into
        the control segment for worker-side introspection.
        ``event_slots > 0`` additionally creates the per-rank sanitizer
        event ring (see :mod:`repro.comm.sanitizer`) that every view of
        the arena then records protocol events into.
        """
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if data_bytes < 4096:
            raise ValueError(f"data_bytes too small: {data_bytes}")
        if active_ranks is None:
            active_ranks = range(n_ranks)
        active = sorted(set(int(r) for r in active_ranks))
        if not active:
            raise ValueError("an arena needs at least one active rank")
        if active[0] < 0 or active[-1] >= n_ranks:
            raise ValueError(
                f"active ranks {active} out of range for {n_ranks} ranks"
            )
        control = shared_memory.SharedMemory(
            create=True, size=_control_slots(n_ranks, meta_slots) * 8
        )
        data = [
            shared_memory.SharedMemory(create=True, size=data_bytes)
            for _ in range(n_ranks)
        ]
        events = None
        if event_slots:
            events = shared_memory.SharedMemory(
                create=True,
                size=_event_slots_total(n_ranks, event_slots) * 8,
            )
        spec = ArenaSpec(
            control_name=control.name,
            data_names=tuple(shm.name for shm in data),
            n_ranks=n_ranks,
            data_bytes=data_bytes,
            meta_slots=meta_slots,
            event_name=events.name if events is not None else None,
            event_slots=event_slots,
        )
        arena = cls(
            spec, rank=None, control=control, data=data, owner=True,
            events=events,
        )
        arena._ctrl[:] = 0
        if arena._ev_cursor is not None:
            arena._ev_cursor[:] = 0
            arena._ev_dropped[:] = 0
        arena._ctrl[_CTRL_NRANKS] = n_ranks
        arena._ctrl[_CTRL_INCARNATION] = int(incarnation)
        for rank in active:
            arena._active[rank] = 1
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec, rank: int | None) -> "SharedArena":
        """Attach to an existing arena (worker side; parent owns it)."""
        if rank is not None and not 0 <= rank < spec.n_ranks:
            raise ValueError(
                f"rank {rank} out of range for {spec.n_ranks} ranks"
            )
        # On Python 3.11 attaching registers the segment with the
        # resource tracker a second time.  Spawned workers inherit the
        # parent's tracker process, whose name cache is a set — the
        # duplicate registration is a no-op and the owner's unlink()
        # clears it, so no explicit unregister is needed (and calling
        # it would strip the parent's own registration).
        control = shared_memory.SharedMemory(name=spec.control_name)
        data = [
            shared_memory.SharedMemory(name=name)
            for name in spec.data_names
        ]
        events = None
        if spec.event_name is not None and spec.event_slots:
            events = shared_memory.SharedMemory(name=spec.event_name)
        return cls(
            spec, rank=rank, control=control, data=data, owner=False,
            events=events,
        )

    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks."""
        if self._closed:
            return
        self._closed = True
        # Drop numpy views before closing the underlying mmaps.
        self._ctrl = self._posted = self._drained = None
        self._status = self._meta = None
        self._active = self._hb_time = self._hb_progress = None
        self._ev_cursor = self._ev_dropped = self._ev_rings = None
        self._data = []
        segments = [self._control_shm, *self._data_shm]
        if self._events_shm is not None:
            segments.append(self._events_shm)
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - interpreter quirk
                pass
            if self._owner:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    # -- sanitizer event recording

    def _record(self, etype: int, seq: int, a: int = -1, b: int = -1) -> None:
        """Append one event to this rank's ring (no-op when disabled).

        Slot fields are written before the cursor bump, mirroring the
        arena's own store-before-publish discipline, so the parent's
        replay never observes a torn event.  A full ring overwrites the
        oldest events and counts them in ``dropped`` — the checker
        narrows its claims to the surviving window.
        """
        if self._ev_rings is None or self.rank is None:
            return
        cursor = int(self._ev_cursor[self.rank])
        ring = self._ev_rings[self.rank]
        slot = ring[cursor % self.spec.event_slots]
        slot[0] = etype
        slot[1] = seq
        slot[2] = a
        slot[3] = b
        slot[4] = time.monotonic_ns()
        if cursor >= self.spec.event_slots:
            self._ev_dropped[self.rank] += 1
        self._ev_cursor[self.rank] = cursor + 1

    def _record_beat(self, progress: int | None = None) -> None:
        if self._ev_rings is None or self.rank is None:
            return
        now = time.monotonic_ns()
        if now - self._last_beat_ev_ns < _EV_BEAT_THROTTLE_NS:
            return
        self._last_beat_ev_ns = now
        self._record(
            EV_BEAT, -1, progress if progress is not None else -1
        )

    @property
    def recording(self) -> bool:
        """Whether this arena carries a sanitizer event ring."""
        return self._ev_rings is not None

    def event_streams(self) -> dict[int, list[tuple[int, int, int, int, int]]]:
        """Parent-side: each rank's recorded events, in program order.

        Returns ``rank -> [(etype, seq, a, b, t_ns), ...]`` limited to
        the ring window that survived wraparound.  Safe to call after
        the workers have exited (the segments outlive them).
        """
        if self._ev_rings is None:
            raise RuntimeError("this arena has no sanitizer event ring")
        streams: dict[int, list[tuple[int, int, int, int, int]]] = {}
        nslots = self.spec.event_slots
        for rank in range(self.spec.n_ranks):
            cursor = int(self._ev_cursor[rank])
            start = max(0, cursor - nslots)
            ring = self._ev_rings[rank]
            streams[rank] = [
                tuple(int(v) for v in ring[i % nslots])
                for i in range(start, cursor)
            ]
        return streams

    def events_dropped(self, rank: int) -> int:
        """How many of ``rank``'s events were overwritten by wraparound."""
        if self._ev_dropped is None:
            return 0
        return int(self._ev_dropped[rank])

    # -- wait telemetry

    def attach_telemetry(self, registry) -> None:
        """Record every wait of :meth:`_poll` into ``registry``.

        ``arena_wait_seconds{peer}`` observes how long each wait lasted
        (``peer`` is the rank waited on, or ``reclaim`` for a metadata
        slot or segment space, which wait on the slowest drainer) and
        ``arena_polls_total{phase}`` counts the polls it took, split
        into the spin and the sleep phase.  Waits that find their
        condition already true are not waits and record nothing.
        """
        self._wait_metrics = registry

    def _observe_wait(
        self, peer: int | None, seconds: float, spins: int, sleeps: int
    ) -> None:
        registry = self._wait_metrics
        registry.histogram(
            "arena_wait_seconds",
            {"peer": "reclaim" if peer is None else str(peer)},
            unit="seconds",
            help="time blocked in the arena poll loop, by what was awaited",
        ).observe(seconds)
        for phase, polls in (("spin", spins), ("sleep", sleeps)):
            registry.counter(
                "arena_polls_total", {"phase": phase},
                help="arena control-word polls, by poll-loop phase",
            ).inc(polls)

    # -- failure signalling

    def abort(self) -> None:
        """Raise the global abort flag; every poll loop will bail out."""
        if self._ctrl is not None:
            self._ctrl[_CTRL_ABORT] = 1

    @property
    def aborted(self) -> bool:
        return self._ctrl is not None and bool(self._ctrl[_CTRL_ABORT])

    def set_status(self, status: int) -> None:
        """Record this rank's terminal status (done/failed)."""
        if self.rank is not None:
            self._status[self.rank] = status

    def status(self, rank: int) -> int:
        return int(self._status[rank])

    # -- liveness (heartbeats, incarnation, active mask)

    def heartbeat(self, progress: int | None = None) -> None:
        """Refresh this rank's liveness words.

        Called at every iteration boundary (with ``progress`` set to the
        iteration just started) and from inside the arena's own poll
        loops (timestamp only), so a rank blocked on a peer still reads
        as alive to the watchdog.
        """
        if self.rank is None or self._hb_time is None:
            return
        self._hb_time[self.rank] = time.monotonic_ns()
        if progress is not None:
            self._hb_progress[self.rank] = int(progress)
        self._record_beat(progress)

    def _beat(self) -> None:
        if self.rank is not None and self._hb_time is not None:
            self._hb_time[self.rank] = time.monotonic_ns()
            self._record_beat()

    def heartbeat_ns(self, rank: int) -> int:
        """Last monotonic-ns heartbeat of ``rank`` (0 = never beat)."""
        return int(self._hb_time[rank])

    def progress(self, rank: int) -> int:
        """Last iteration ``rank`` reported starting."""
        return int(self._hb_progress[rank])

    @property
    def incarnation(self) -> int:
        """Crash-recovery generation this arena was created under."""
        return int(self._ctrl[_CTRL_INCARNATION])

    def active_ranks(self) -> list[int]:
        return [r for r in range(self.spec.n_ranks) if self._active[r]]

    def mark_failed(self, rank: int) -> None:
        """Parent-side: record ``rank`` as failed (watchdog verdict).

        Workers report their own failures via :meth:`set_status`; this
        is for deaths the rank cannot report itself (SIGKILL, wedge).
        """
        self._status[rank] = STATUS_FAILED

    def _drained_floor(self) -> int:
        """Min drained seq over *active* ranks only.

        A dead rank's drained counter freezes; flooring over the active
        mask keeps it from wedging the survivors' allocator.
        """
        if self._cohort is None:
            self._cohort = self.active_ranks()
        drained = self._drained.tolist()
        # No active ranks can only happen mid-teardown; treat
        # everything as drained so no loop spins on it.
        return min(
            (drained[r] for r in self._cohort), default=max(drained)
        )

    def _check_abort(self, context: str) -> None:
        if self.aborted:
            failed = [
                r for r in range(self.spec.n_ranks)
                if self._status[r] == STATUS_FAILED
            ]
            detail = f" (failed ranks: {failed})" if failed else ""
            raise ArenaAbortedError(
                f"collective aborted during {context}: a participant "
                f"died or failed{detail}"
            )

    # -- the poll loop

    def _poll(
        self,
        ready,
        context: str,
        timeout: float,
        expired,
        peer: int | None = None,
        progress=None,
    ):
        """Block until ``ready()`` returns something other than ``None``.

        The arena's one wait loop; callers try ``ready`` themselves
        first and come here only to wait.  Every iteration beats the
        heartbeat, checks the abort word, the awaited ``peer``'s status
        and the deadline (``expired()`` builds the typed error), then
        runs ``progress`` if the caller passed one.  The first
        ``_SPIN_SECONDS`` poll back to back — yielding the core between
        polls when the cohort outnumbers the cores this process may run
        on, where a spinning rank would only keep the peer it waits for
        off the CPU — and after that each poll sleeps ``_POLL_SLEEP``.
        """
        if self._spins is None:
            cores = (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            )
            self._spins = len(self.active_ranks()) <= cores
        start = now = time.monotonic()
        spin_until = start + _SPIN_SECONDS
        deadline = start + timeout
        spins = sleeps = 0
        value = None
        while value is None:
            self._beat()
            self._check_abort(context)
            if peer is not None and self._status[peer] == STATUS_FAILED:
                raise ArenaAbortedError(
                    f"rank {peer} failed during {context}"
                )
            if now > deadline:
                raise expired()
            if progress is not None:
                progress()
            if now < spin_until:
                spins += 1
                if not self._spins:
                    os.sched_yield()
            else:
                sleeps += 1
                time.sleep(_POLL_SLEEP)
            value = ready()
            now = time.monotonic()
        if self._wait_metrics is not None:
            self._observe_wait(peer, now - start, spins, sleeps)
        return value

    # -- posting

    def post(self, seq: int, data, kind: int, progress=None) -> None:
        """Publish this rank's contribution to collective ``seq``.

        ``data`` is anything exposing a C-contiguous buffer (bytes or a
        contiguous ndarray).  The bytes are copied into the shared data
        segment, so the caller's buffer can be reused immediately.

        ``progress`` is called between polls while the post waits for a
        metadata slot or segment space.  A caller that keeps earlier
        collectives unread passes what reads and drains them: the
        reclamation floor is a minimum over *all* active ranks, this
        one included, so without it a rank with more collectives in
        flight than the ring or the segment holds waits on itself.
        """
        if self.rank is None:
            raise RuntimeError("the parent arena view cannot post")
        if kind not in _KNOWN_KINDS:
            raise ValueError(f"unknown payload kind {kind}")
        raw = np.frombuffer(data, dtype=np.uint8)
        nbytes = int(raw.size)
        self._wait_meta_slot(seq, progress=progress)
        offset = self._allocate(seq, nbytes, progress=progress)
        if nbytes:
            self._data[self.rank][offset:offset + nbytes] = raw
        slot = self._meta[self.rank, seq % self.spec.meta_slots]
        slot[0] = offset
        slot[1] = nbytes
        slot[2] = kind
        self._record(EV_WRITE, seq, offset, nbytes)
        # The POST event is recorded *before* the publication store so
        # its timestamp lower-bounds visibility: a peer can only observe
        # posted[r] (and record its READ) after this point, so a clean
        # execution always orders post_t < read_t in the sanitizer.
        self._record(EV_POST, seq, offset, nbytes)
        # Publication barrier: posted[r] is stored last, so any reader
        # observing it sees the metadata and bytes written above.
        self._posted[self.rank] = seq + 1

    def _wait_meta_slot(
        self, seq: int, timeout: float = DEFAULT_TIMEOUT, progress=None
    ) -> None:
        """Block until the ring slot for ``seq`` is reusable."""
        horizon = seq - self.spec.meta_slots
        if horizon < 0 or self._drained_floor() > horizon:
            return
        self._poll(
            lambda: True if self._drained_floor() > horizon else None,
            f"meta-slot wait (seq={seq})",
            timeout,
            lambda: ArenaTimeoutError(
                f"rank {self.rank}: metadata ring full at seq {seq}; "
                f"peers stopped draining (drained={self._drained.tolist()})"
            ),
            progress=progress,
        )

    def _allocate(
        self,
        seq: int,
        nbytes: int,
        timeout: float = DEFAULT_TIMEOUT,
        progress=None,
    ) -> int:
        """Bump-allocate ``nbytes`` in this rank's data segment."""
        capacity = self.spec.data_bytes
        if nbytes > capacity:
            raise ArenaOverflowError(
                f"payload of {nbytes} bytes exceeds the {capacity}-byte "
                f"data segment; raise ParallelRunConfig.arena_bytes"
            )
        if nbytes == 0:
            self._outstanding.append((seq, 0, 0))
            return 0

        def grant() -> int | None:
            self._reclaim()
            # Align starts so dense payloads can be reinterpreted as
            # wider dtypes through zero-copy views.
            start = -(-self._head // _ALIGN) * _ALIGN
            if start + nbytes > capacity:
                start = 0  # wrap; payloads are never split
            end = start + nbytes
            for _, off, nb in self._outstanding:
                if nb and start < off + nb and off < end:
                    return None
            return start

        start = grant()
        if start is None:
            start = self._poll(
                grant,
                f"allocation (seq={seq})",
                timeout,
                lambda: ArenaOverflowError(
                    f"rank {self.rank}: no room for {nbytes} bytes at seq "
                    f"{seq}; {len(self._outstanding)} undrained payloads "
                    f"occupy the segment (drained={self._drained.tolist()})"
                ),
                progress=progress,
            )
        self._head = start + nbytes
        self._outstanding.append((seq, start, nbytes))
        self._record(EV_ALLOC, seq, start, nbytes)
        return start

    def _reclaim(self) -> None:
        """Free blocks whose seq every active rank has drained past."""
        if not self._outstanding:
            return
        floor = self._drained_floor()
        if self._outstanding[0][0] < floor:
            self._outstanding = [
                entry for entry in self._outstanding if entry[0] >= floor
            ]

    # -- reading

    def arrived(self, seq: int, rank: int) -> bool:
        """Whether ``rank`` has published ``seq`` (never waits)."""
        return bool(self._posted[rank] > seq)

    def posted(self) -> list[int]:
        """Every rank's publication counter, as of now."""
        return self._posted.tolist()

    def wait_posted(
        self, seq: int, rank: int, timeout: float, progress=None
    ) -> None:
        """Block until ``rank`` has published ``seq``.

        ``progress`` runs between polls, as in :meth:`post`: a peer
        that cannot post ``seq`` before this rank drains something
        earlier must not find this rank doing nothing but wait.
        """
        if not self._active[rank]:
            raise ArenaProtocolError(
                f"rank {rank} is not in this incarnation's active cohort; "
                f"nothing will ever be posted for seq {seq}"
            )
        if self._posted[rank] > seq:
            return
        # No local alias of the control views here: a typed error's
        # traceback would keep the mapping exported past close().
        self._poll(
            lambda: True if self._posted[rank] > seq else None,
            f"read of rank {rank} (seq={seq})",
            timeout,
            lambda: ArenaTimeoutError(
                f"waited {timeout:.1f}s for rank {rank} to post "
                f"collective seq {seq} (posted={self._posted.tolist()})"
            ),
            peer=rank,
            progress=progress,
        )

    def view(
        self, seq: int, rank: int, timeout: float = DEFAULT_TIMEOUT
    ) -> tuple[np.ndarray, int]:
        """Zero-copy uint8 view of ``rank``'s contribution to ``seq``.

        The view aliases the shared data segment directly: it is valid
        only until this rank drains ``seq`` (the writer may then reuse
        the bytes), so callers must finish reducing before draining.
        """
        self.wait_posted(seq, rank, timeout)
        slot = self._meta[rank, seq % self.spec.meta_slots]
        offset, nbytes, kind = int(slot[0]), int(slot[1]), int(slot[2])
        if kind not in _KNOWN_KINDS:
            raise ArenaProtocolError(
                f"rank {rank} posted unknown payload kind {kind} at seq "
                f"{seq} — ranks have desynchronized"
            )
        self._record(EV_READ, seq, rank, nbytes)
        return self._data[rank][offset:offset + nbytes], kind

    def read(
        self, seq: int, rank: int, timeout: float = DEFAULT_TIMEOUT
    ) -> tuple[bytes, int]:
        """Wait for and copy out ``rank``'s contribution to ``seq``."""
        view, kind = self.view(seq, rank, timeout=timeout)
        return bytes(view), kind

    def read_object(self, seq: int, rank: int, timeout: float = DEFAULT_TIMEOUT):
        data, kind = self.read(seq, rank, timeout=timeout)
        if kind != KIND_OBJECT:
            raise ArenaProtocolError(
                f"expected pickled object from rank {rank} at seq {seq}, "
                f"got kind {kind}"
            )
        return pickle.loads(data)

    def drain(self, seq: int) -> None:
        """Mark every read for ``seq`` complete (idempotent)."""
        if self.rank is None:
            raise RuntimeError("the parent arena view cannot drain")
        current = int(self._drained[self.rank])
        if seq + 1 > current:
            self._drained[self.rank] = seq + 1
            self._record(EV_DRAIN, seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SharedArena(rank={self.rank}, n_ranks={self.spec.n_ranks}, "
                f"data_bytes={self.spec.data_bytes}, owner={self._owner})")
