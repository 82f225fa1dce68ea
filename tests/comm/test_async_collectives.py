"""Nonblocking collectives, AsyncHandle semantics and wire framing edges."""

import numpy as np
import pytest

from repro.comm import AsyncHandle, Communicator, SimTimeline
from repro.comm.parameter_server import ParameterServerCommunicator
from repro.comm.timeline import NETWORK
from repro.core.wire import (
    deserialize_payload,
    part_count_header_bytes,
    serialize_payload,
)


def _payloads(n_workers, n_parts=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        [rng.standard_normal(5).astype(np.float32) for _ in range(n_parts)]
        for _ in range(n_workers)
    ]


class TestAsyncHandle:
    def test_wait_returns_result_and_marks_done(self):
        handle = AsyncHandle("payload")
        assert not handle.done
        assert handle.wait() == "payload"
        assert handle.done

class TestNonblockingCollectives:
    def test_iallreduce_parts_matches_blocking_result(self):
        payloads = _payloads(4)
        blocking = Communicator(n_workers=4).allreduce_parts(payloads)
        handle = Communicator(n_workers=4).iallreduce_parts(payloads)
        result = handle.wait()
        assert len(result) == len(blocking)
        for got, want in zip(result, blocking):
            np.testing.assert_array_equal(got, want)

    def test_iallgather_matches_blocking_result(self):
        payloads = _payloads(4)
        blocking = Communicator(n_workers=4).allgather(payloads)
        result = Communicator(n_workers=4).iallgather(payloads).wait()
        assert len(result) == len(blocking)
        for got, want in zip(result, blocking):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_record_parity_with_blocking_call(self):
        payloads = _payloads(4)
        sync = Communicator(n_workers=4)
        sync.allreduce_parts(payloads)
        nonblocking = Communicator(n_workers=4)
        nonblocking.iallreduce_parts(payloads)
        assert nonblocking.record.num_ops == sync.record.num_ops == 1
        assert (nonblocking.record.simulated_seconds
                == sync.record.simulated_seconds)
        assert (nonblocking.record.bytes_sent_per_worker
                == sync.record.bytes_sent_per_worker)

    def test_timeline_event_respects_ready_at(self):
        comm = Communicator(n_workers=4)
        timeline = SimTimeline()
        handle = comm.iallreduce_parts(
            _payloads(4), ready_at=0.25, timeline=timeline
        )
        assert handle.event is not None
        assert handle.event.resource == NETWORK
        assert handle.event.start == 0.25
        # seconds is derived as end - start, so compare to float precision.
        assert handle.event.seconds == pytest.approx(
            comm.record.simulated_seconds
        )

    def test_network_events_serialize_on_the_timeline(self):
        comm = Communicator(n_workers=4)
        timeline = SimTimeline()
        first = comm.iallreduce_parts(_payloads(4), timeline=timeline)
        second = comm.iallgather(_payloads(4), timeline=timeline)
        assert second.event.start == first.event.end
        assert second.event.name == "allgather"

    def test_without_timeline_no_event(self):
        handle = Communicator(n_workers=4).iallreduce_parts(_payloads(4))
        assert handle.event is None

    def test_ps_cost_override_applies_to_nonblocking(self):
        # The PS communicator prices allreduce_parts with its incast
        # model; the nonblocking wrapper must capture that exact cost.
        payloads = _payloads(4)
        ps_sync = ParameterServerCommunicator(n_workers=4)
        ps_sync.allreduce_parts(payloads)
        ps_async = ParameterServerCommunicator(n_workers=4)
        timeline = SimTimeline()
        handle = ps_async.iallreduce_parts(payloads, timeline=timeline)
        assert (ps_async.record.simulated_seconds
                == ps_sync.record.simulated_seconds)
        assert handle.event.seconds == ps_sync.record.simulated_seconds
        ring = Communicator(n_workers=4)
        ring.allreduce_parts(payloads)
        assert (ps_async.record.simulated_seconds
                != ring.record.simulated_seconds)


class TestMeanBytesPerOp:
    def test_zero_before_any_op(self):
        record = Communicator(n_workers=2).record
        assert record.num_ops == 0
        assert record.mean_bytes_per_op == 0.0

    def test_mean_after_ops(self):
        record = Communicator(n_workers=2).record
        record.charge(bytes_per_worker=100.0, seconds=0.0)
        record.charge(bytes_per_worker=300.0, seconds=0.0)
        assert record.mean_bytes_per_op == 200.0


class TestPartCountEscape:
    """u8 part count with a 255-escape to u32 (wire framing §IV-B)."""

    @pytest.mark.parametrize("n_parts", [254, 255, 256])
    def test_roundtrip_through_allreduce_parts(self, n_parts):
        rng = np.random.default_rng(7)
        payloads = [
            [rng.standard_normal(2).astype(np.float32)
             for _ in range(n_parts)]
            for _ in range(2)
        ]
        summed = Communicator(n_workers=2).allreduce_parts(payloads)
        assert len(summed) == n_parts
        for part, (a, b) in enumerate(zip(payloads[0], payloads[1])):
            np.testing.assert_array_equal(summed[part], a + b)
        # The summed payload must survive wire framing across the escape.
        restored = deserialize_payload(serialize_payload(summed))
        assert len(restored) == n_parts
        for got, want in zip(restored, summed):
            np.testing.assert_array_equal(got, want)

    def test_header_width_switches_at_escape(self):
        assert part_count_header_bytes(254) == 1
        assert part_count_header_bytes(255) == 5
        assert part_count_header_bytes(256) == 5
