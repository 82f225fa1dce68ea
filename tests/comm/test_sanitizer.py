"""The arena happens-before sanitizer: stream checker + live replay.

Unit tests drive :func:`check_streams` with hand-built event streams
(one per violation class); integration tests run real in-process
2-rank arena exchanges under seeded interleavings and assert the
sanitizer accepts every clean trial and rejects a protocol double
whose ``post`` publishes before writing (the GR007 bug, live).
"""

import numpy as np
import pytest

from repro.comm.sanitizer import (
    ArenaSanitizerError,
    SanitizerReport,
    check_streams,
    collect_report,
)
from repro.comm.shm import (
    EV_ALLOC,
    EV_DRAIN,
    EV_POST,
    EV_READ,
    EV_WRITE,
    KIND_WIRE,
    SharedArena,
)


def _ev(etype, seq, a=-1, b=-1, t=0):
    return (etype, seq, a, b, t)


class TestCheckStreams:
    def test_empty_streams_are_ok(self):
        assert check_streams({0: [], 1: []}).ok

    def test_clean_double_is_ok(self):
        streams = {
            0: [_ev(EV_WRITE, 0, t=10), _ev(EV_POST, 0, t=11),
                _ev(EV_READ, 0, a=1, t=40), _ev(EV_DRAIN, 0, t=41)],
            1: [_ev(EV_WRITE, 0, t=20), _ev(EV_POST, 0, t=21),
                _ev(EV_READ, 0, a=0, t=30), _ev(EV_DRAIN, 0, t=31)],
        }
        assert check_streams(streams).ok

    def test_publish_before_write_names_rank_and_seq(self):
        streams = {0: [_ev(EV_POST, 7, t=10), _ev(EV_WRITE, 7, t=11)]}
        report = check_streams(streams)
        assert [v.kind for v in report.violations] == [
            "publish-before-write"
        ]
        assert report.violations[0].rank == 0
        assert report.violations[0].seq == 7
        assert "rank 0 seq 7" in str(report.violations[0])

    def test_lossy_rank_suppresses_missing_evidence(self):
        streams = {0: [_ev(EV_POST, 7, t=10)]}
        assert not check_streams(streams).ok
        assert check_streams(streams, dropped={0: 3}).ok

    def test_read_of_never_published_seq(self):
        streams = {
            0: [_ev(EV_WRITE, 0, t=10), _ev(EV_POST, 0, t=11)],
            1: [_ev(EV_READ, 1, a=0, t=20)],
        }
        report = check_streams(streams)
        assert [v.kind for v in report.violations] == ["read-unpublished"]
        assert report.violations[0].rank == 1
        assert report.violations[0].seq == 1

    def test_read_before_publication_timestamp(self):
        streams = {
            0: [_ev(EV_WRITE, 0, t=10), _ev(EV_POST, 0, t=200)],
            1: [_ev(EV_READ, 0, a=0, t=150)],
        }
        report = check_streams(streams)
        assert [v.kind for v in report.violations] == ["read-unpublished"]

    def test_drain_of_unobserved_seq(self):
        streams = {0: [_ev(EV_DRAIN, 4, t=10)]}
        report = check_streams(streams)
        assert [v.kind for v in report.violations] == ["drain-unpublished"]
        assert report.violations[0].seq == 4

    def test_read_after_own_drain_passed_it(self):
        # Two collectives in flight, the second finished first, and the
        # handle drained *its own* seq: drained is cumulative, so rank 1
        # just told rank 0 it may reclaim seq 0 — which it reads later.
        streams = {
            0: [_ev(EV_WRITE, 0, t=1), _ev(EV_POST, 0, t=2),
                _ev(EV_WRITE, 1, t=3), _ev(EV_POST, 1, t=4)],
            1: [_ev(EV_READ, 1, a=0, t=10), _ev(EV_DRAIN, 1, t=11),
                _ev(EV_READ, 0, a=0, t=12), _ev(EV_DRAIN, 0, t=13)],
        }
        report = check_streams(streams)
        assert [v.kind for v in report.violations] == ["read-after-drain"]
        assert (report.violations[0].rank, report.violations[0].seq) == (1, 0)
        # The engine's order: read both, then one cumulative drain.
        streams[1] = [
            _ev(EV_READ, 1, a=0, t=10), _ev(EV_READ, 0, a=0, t=12),
            _ev(EV_DRAIN, 1, t=13),
        ]
        assert check_streams(streams).ok

    def test_drain_after_own_post_or_read_is_ok(self):
        streams = {
            0: [_ev(EV_WRITE, 0, t=1), _ev(EV_POST, 0, t=2),
                _ev(EV_DRAIN, 0, t=3)],
            1: [_ev(EV_READ, 0, a=0, t=5), _ev(EV_DRAIN, 0, t=6)],
        }
        assert check_streams(streams).ok

    def test_heartbeat_gap_only_when_threshold_given(self):
        streams = {
            0: [_ev(EV_WRITE, 0, t=0), _ev(EV_POST, 0, t=5_000_000_000)],
        }
        assert check_streams(streams).ok
        report = check_streams(streams, hb_gap_ns=1_000_000_000)
        assert [v.kind for v in report.violations] == ["heartbeat-gap"]
        assert "stall budget" in report.violations[0].detail

    def test_allocator_reuse_before_floor(self):
        streams = {
            0: [
                _ev(EV_ALLOC, 0, a=0, b=100, t=10),
                _ev(EV_WRITE, 0, t=11), _ev(EV_POST, 0, t=12),
                # seq 1 reuses [50, 150) before anyone drained seq 0.
                _ev(EV_ALLOC, 1, a=50, b=100, t=20),
            ],
        }
        report = check_streams(streams)
        assert [v.kind for v in report.violations] == ["reuse-before-floor"]
        assert report.violations[0].seq == 1

    def test_allocator_reuse_after_drain_is_ok(self):
        streams = {
            0: [
                _ev(EV_ALLOC, 0, a=0, b=100, t=10),
                _ev(EV_WRITE, 0, t=11), _ev(EV_POST, 0, t=12),
                _ev(EV_DRAIN, 0, t=15),
                _ev(EV_ALLOC, 1, a=50, b=100, t=20),
            ],
        }
        assert check_streams(streams).ok

    def test_report_merge_accumulates_rounds(self):
        first = check_streams({0: [_ev(EV_WRITE, 0, t=1)]})
        second = check_streams({0: [_ev(EV_POST, 7, t=10)]})
        first.merge(second)
        assert first.events_total == 2
        assert first.per_rank_events == {0: 2}
        assert not first.ok

    def test_error_message_names_rank_and_seq(self):
        report = check_streams({0: [_ev(EV_POST, 7, t=10)]})
        error = ArenaSanitizerError(report)
        assert "rank 0 seq 7" in str(error)
        assert error.report is report

    def test_to_dict_round_trips_the_essentials(self):
        report = check_streams({0: [_ev(EV_POST, 7, t=10)]})
        data = report.to_dict()
        assert data["ok"] is False
        assert data["events_total"] == 1
        assert data["violations"][0]["kind"] == "publish-before-write"


class _BrokenArena(SharedArena):
    """An arena whose ``post`` publishes the seq before writing bytes —
    the exact ordering bug GR007 forbids, reproduced at runtime."""

    def post(self, seq, data, kind):  # noqa: D102 - deliberate bug
        raw = np.frombuffer(data, dtype=np.uint8)
        nbytes = int(raw.size)
        self._wait_meta_slot(seq)
        offset = self._allocate(seq, nbytes)
        self._record(EV_POST, seq, offset, nbytes)
        self._posted[self.rank] = seq + 1
        if nbytes:
            self._data[self.rank][offset:offset + nbytes] = raw  # lint-ignore: GR007
        slot = self._meta[self.rank, seq % self.spec.meta_slots]
        slot[0] = offset  # lint-ignore: GR007
        slot[1] = nbytes  # lint-ignore: GR007
        slot[2] = kind  # lint-ignore: GR007
        self._record(EV_WRITE, seq, offset, nbytes)


def _run_double(arena_cls, seed, seqs=8, payload=512):
    """One seeded in-process 2-rank exchange; returns the replay report.

    The payload size and segment size force data-segment wraparound and
    meta-ring reuse, and the seeded rank order varies the interleaving
    between trials.
    """
    parent = SharedArena.create(
        2, data_bytes=4096, meta_slots=4, event_slots=512
    )
    views = []
    try:
        views = [SharedArena.attach(parent.spec, r) for r in (0, 1)]
        if arena_cls is not SharedArena:
            for view in views:
                view.__class__ = arena_cls
        rng = np.random.default_rng(seed)
        for seq in range(seqs):
            order = [0, 1]
            rng.shuffle(order)
            for r in order:
                blob = rng.integers(
                    0, 256, size=payload, dtype=np.uint8
                ).tobytes()
                views[r].post(seq, blob, KIND_WIRE)
            for r in order:
                views[r].read(seq, 1 - r)
                views[r].drain(seq)
        return collect_report(parent)
    finally:
        for view in views:
            view.close()
        parent.close()


class TestLiveArenaReplay:
    @pytest.mark.parametrize("seed", range(5))
    def test_clean_trials_are_accepted(self, seed):
        report = _run_double(SharedArena, seed)
        assert report.ok, [str(v) for v in report.violations]
        assert report.events_total > 0
        assert set(report.per_rank_events) == {0, 1}
        assert not report.dropped

    @pytest.mark.parametrize("seed", range(3))
    def test_broken_publish_first_double_is_rejected(self, seed):
        report = _run_double(_BrokenArena, seed)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "publish-before-write" in kinds
        worst = next(
            v for v in report.violations
            if v.kind == "publish-before-write"
        )
        assert worst.rank in (0, 1)
        assert 0 <= worst.seq < 8
        assert f"rank {worst.rank} seq {worst.seq}" in str(
            ArenaSanitizerError(report)
        )

    def test_unrecorded_arena_reports_no_streams(self):
        parent = SharedArena.create(2, data_bytes=4096)
        try:
            assert not parent.recording
            report = collect_report(parent)
            assert report.ok
            assert report.events_total == 0
        finally:
            parent.close()

    def test_ring_wraparound_marks_rank_lossy_not_guilty(self):
        # 16 slots cannot hold an 8-seq exchange's events; the checker
        # must report the loss instead of inventing violations.
        parent = SharedArena.create(
            2, data_bytes=4096, meta_slots=4, event_slots=16
        )
        views = []
        try:
            views = [SharedArena.attach(parent.spec, r) for r in (0, 1)]
            for seq in range(8):
                for r in (0, 1):
                    views[r].post(seq, b"x" * 64, KIND_WIRE)
                for r in (0, 1):
                    views[r].read(seq, 1 - r)
                    views[r].drain(seq)
            report = collect_report(parent)
            assert report.ok, [str(v) for v in report.violations]
            assert report.dropped
        finally:
            for view in views:
                view.close()
            parent.close()
