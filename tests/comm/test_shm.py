"""Shared-memory arena protocol (`repro.comm.shm`).

Single-process tests: every rank's view attaches to the same segments
in this process, which exercises the full post/view/drain protocol and
the typed failure paths without paying process spawn costs (the real
multi-process paths are covered by ``test_parallel.py``).
"""

import pickle

import numpy as np
import pytest

from repro.comm.shm import (
    KIND_DENSE,
    KIND_OBJECT,
    KIND_WIRE,
    STATUS_FAILED,
    ArenaAbortedError,
    ArenaOverflowError,
    ArenaProtocolError,
    ArenaTimeoutError,
    SharedArena,
)
from repro.faults.plan import CollectiveTimeoutError, WorkerCrashError


@pytest.fixture
def arena_pair():
    """An owner plus two attached rank views over one tiny arena."""
    owner = SharedArena.create(n_ranks=2, data_bytes=4096, meta_slots=8)
    ranks = [SharedArena.attach(owner.spec, rank=r) for r in range(2)]
    yield owner, ranks
    for view in ranks:
        view.close()
    owner.close()


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class TestLifecycle:
    def test_post_view_read_drain(self, arena_pair):
        _, (r0, r1) = arena_pair
        payload = np.arange(16, dtype=np.float32)
        r0.post(0, payload, KIND_DENSE)
        view, kind = r1.view(0, rank=0, timeout=1.0)
        assert kind == KIND_DENSE
        np.testing.assert_array_equal(view.view(np.float32), payload)
        data, _ = r1.read(0, rank=0, timeout=1.0)
        assert data == payload.tobytes()
        r1.drain(0)
        r0.drain(0)

    def test_view_is_zero_copy_and_aligned(self, arena_pair):
        _, (r0, r1) = arena_pair
        r0.post(0, np.ones(8, dtype=np.float64), KIND_DENSE)
        view, _ = r1.view(0, rank=0, timeout=1.0)
        # 64-byte-aligned allocation means wider dtype views never copy.
        reinterpreted = view.view(np.float64)
        assert reinterpreted.base is not None
        np.testing.assert_array_equal(reinterpreted, 1.0)

    def test_object_roundtrip(self, arena_pair):
        _, (r0, r1) = arena_pair
        r0.post(0, pickle.dumps({"loss": 0.25, "rank": 0}), KIND_OBJECT)
        assert r1.read_object(0, rank=0, timeout=1.0) == {
            "loss": 0.25, "rank": 0,
        }

    def test_drain_is_idempotent(self, arena_pair):
        _, (r0, _) = arena_pair
        r0.post(0, b"x", KIND_WIRE)
        r0.drain(0)
        r0.drain(0)  # re-drain must not move the cursor backwards
        r0.post(1, b"y", KIND_WIRE)
        r0.drain(1)
        r0.drain(0)  # stale drain after a newer one is a no-op

    def test_unlink_leaves_no_segments(self):
        owner = SharedArena.create(n_ranks=2, data_bytes=4096, meta_slots=8)
        names = [owner.spec.control_name, *owner.spec.data_names]
        worker = SharedArena.attach(owner.spec, rank=0)
        assert all(_segment_exists(name) for name in names)
        worker.close()  # non-owner close must not unlink
        assert all(_segment_exists(name) for name in names)
        owner.close()
        assert not any(_segment_exists(name) for name in names)

    def test_close_is_idempotent(self):
        owner = SharedArena.create(n_ranks=1, data_bytes=4096, meta_slots=8)
        owner.close()
        owner.close()

    def test_spec_is_picklable(self, arena_pair):
        owner, _ = arena_pair
        assert pickle.loads(pickle.dumps(owner.spec)) == owner.spec

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SharedArena.create(n_ranks=0)
        with pytest.raises(ValueError):
            SharedArena.create(n_ranks=1, data_bytes=16)
        owner = SharedArena.create(n_ranks=1, data_bytes=4096, meta_slots=8)
        try:
            with pytest.raises(ValueError):
                SharedArena.attach(owner.spec, rank=1)
        finally:
            owner.close()


class TestLiveness:
    """Heartbeats, incarnation and the active mask (watchdog inputs)."""

    def test_heartbeat_updates_time_and_progress(self, arena_pair):
        owner, (r0, _) = arena_pair
        assert owner.heartbeat_ns(0) == 0  # never beat
        r0.heartbeat(progress=7)
        assert owner.heartbeat_ns(0) > 0
        assert owner.progress(0) == 7
        stamp = owner.heartbeat_ns(0)
        r0.heartbeat()  # timestamp-only refresh keeps the progress word
        assert owner.heartbeat_ns(0) >= stamp
        assert owner.progress(0) == 7

    def test_parent_view_heartbeat_is_a_noop(self, arena_pair):
        owner, _ = arena_pair
        owner.heartbeat(progress=3)  # rank is None: nothing to stamp
        assert owner.heartbeat_ns(0) == 0
        assert owner.heartbeat_ns(1) == 0

    def test_incarnation_and_active_mask_defaults(self, arena_pair):
        owner, (r0, _) = arena_pair
        assert owner.incarnation == 0
        assert owner.active_ranks() == [0, 1]

    def test_survivor_cohort_arena(self):
        owner = SharedArena.create(
            n_ranks=3, data_bytes=4096, meta_slots=8,
            active_ranks=[0, 2], incarnation=2,
        )
        try:
            view = SharedArena.attach(owner.spec, rank=2)
            try:
                assert view.incarnation == 2
                assert view.active_ranks() == [0, 2]
            finally:
                view.close()
        finally:
            owner.close()

    def test_mark_failed_records_watchdog_verdict(self, arena_pair):
        owner, (r0, _) = arena_pair
        owner.mark_failed(1)
        assert owner.status(1) == STATUS_FAILED
        owner.abort()
        # The verdict surfaces to survivors exactly like a self-reported
        # failure: the aborted wait names the dead rank.
        with pytest.raises(ArenaAbortedError, match=r"\[1\]"):
            r0.read(0, rank=1, timeout=5.0)


class TestReclamation:
    def test_wraparound_reuses_drained_bytes(self, arena_pair):
        _, (r0, r1) = arena_pair
        # Each payload is over a third of the segment: seq N's bytes can
        # only land once seq N-2 is drained by everyone.
        payload = np.full(384, 7, dtype=np.uint8)
        for seq in range(8):
            r0.post(seq, payload + seq, KIND_DENSE)
            data, _ = r1.read(seq, rank=0, timeout=1.0)
            assert data == bytes(payload + seq)
            r0.drain(seq)
            r1.drain(seq)

    def test_overflow_when_payload_exceeds_segment(self, arena_pair):
        _, (r0, _) = arena_pair
        with pytest.raises(ArenaOverflowError):
            r0.post(0, np.zeros(8192, dtype=np.uint8), KIND_DENSE)

    def test_overflow_when_peers_stop_draining(self, arena_pair):
        _, (r0, _) = arena_pair
        big = np.zeros(1500, dtype=np.uint8)
        r0.post(0, big, KIND_DENSE)
        r0.post(1, big, KIND_DENSE)
        # Nobody drained seq 0/1, so a third payload cannot fit.
        with pytest.raises(ArenaOverflowError):
            r0._allocate(2, 1500, timeout=0.05)


class TestPollLoop:
    """The one wait loop: spin budget, back-off, telemetry."""

    def test_wait_is_recorded_by_peer_and_phase(self, arena_pair):
        import threading

        from repro.telemetry.metrics import MetricsRegistry

        _, (r0, r1) = arena_pair
        registry = MetricsRegistry()
        r0.attach_telemetry(registry)
        poster = threading.Timer(0.01, r1.post, args=(0, b"late", KIND_WIRE))
        poster.start()
        try:
            data, _ = r0.read(0, rank=1, timeout=5.0)
        finally:
            poster.join()
        assert data == b"late"
        waits = registry.histogram("arena_wait_seconds", {"peer": "1"})
        assert waits.count == 1
        assert 0.005 < waits.sum < 5.0
        spins = registry.value("arena_polls_total", {"phase": "spin"})
        sleeps = registry.value("arena_polls_total", {"phase": "sleep"})
        # 10 ms is far beyond the spin budget: both phases polled.
        assert spins >= 1 and sleeps >= 1
        # Already posted: not a wait, nothing more recorded.
        r0.read(0, rank=1, timeout=5.0)
        assert waits.count == 1

    def test_reclaim_waits_are_labelled_and_run_progress(self, arena_pair):
        from repro.telemetry.metrics import MetricsRegistry

        _, (r0, r1) = arena_pair
        registry = MetricsRegistry()
        r0.attach_telemetry(registry)
        big = np.zeros(1500, dtype=np.uint8)
        for view in (r0, r1):
            view.post(0, big, KIND_DENSE)
            view.post(1, big, KIND_DENSE)
        calls = []

        def progress():
            # What a communicator's engine does: read, then drain.
            calls.append(len(calls))
            for view in (r0, r1):
                view.drain(0)

        r0.post(2, big, KIND_DENSE, progress=progress)
        assert calls == [0]
        assert registry.histogram(
            "arena_wait_seconds", {"peer": "reclaim"}
        ).count == 1

    def test_spinning_rank_still_beats_and_sees_abort(self, arena_pair):
        import threading

        owner, (r0, _) = arena_pair
        # Abort lands inside the spin budget of a wait that would
        # otherwise last 5 s; the waiter must have beaten before it.
        threading.Timer(0.00005, owner.abort).start()
        with pytest.raises(ArenaAbortedError):
            r0.read(0, rank=1, timeout=5.0)
        assert owner.heartbeat_ns(0) > 0


class TestFailurePaths:
    def test_timeout_waiting_for_silent_peer(self, arena_pair):
        _, (r0, _) = arena_pair
        with pytest.raises(ArenaTimeoutError) as excinfo:
            r0.read(0, rank=1, timeout=0.05)
        assert isinstance(excinfo.value, CollectiveTimeoutError)

    def test_abort_interrupts_waiters(self, arena_pair):
        owner, (r0, _) = arena_pair
        owner.abort()
        with pytest.raises(ArenaAbortedError) as excinfo:
            r0.read(0, rank=1, timeout=5.0)
        assert isinstance(excinfo.value, WorkerCrashError)

    def test_failed_status_names_the_rank(self, arena_pair):
        owner, (r0, r1) = arena_pair
        r1.set_status(STATUS_FAILED)
        owner.abort()
        with pytest.raises(ArenaAbortedError, match=r"\[1\]"):
            r0.read(0, rank=1, timeout=5.0)

    def test_failed_peer_without_abort_still_raises(self, arena_pair):
        _, (r0, r1) = arena_pair
        r1.set_status(STATUS_FAILED)
        with pytest.raises(ArenaAbortedError):
            r0.read(0, rank=1, timeout=5.0)

    def test_unknown_kind_is_protocol_error(self, arena_pair):
        _, (r0, r1) = arena_pair
        with pytest.raises(ValueError):
            r0.post(0, b"zz", kind=9)
        r0.post(0, b"zz", KIND_WIRE)
        with pytest.raises(ArenaProtocolError):
            r1.read_object(0, rank=0, timeout=1.0)

    def test_parent_view_cannot_post_or_drain(self, arena_pair):
        owner, _ = arena_pair
        with pytest.raises(RuntimeError):
            owner.post(0, b"x", KIND_DENSE)
        with pytest.raises(RuntimeError):
            owner.drain(0)

    def test_meta_ring_guard_times_out_without_drains(self, arena_pair):
        _, (r0, _) = arena_pair
        for seq in range(8):  # fill the 8-slot ring
            r0.post(seq, b"", KIND_WIRE)
        with pytest.raises(ArenaTimeoutError):
            r0._wait_meta_slot(8, timeout=0.05)
