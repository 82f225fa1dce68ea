"""Event-driven simulated timeline (overlap scheduling)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import OverlapStats, SimTimeline
from repro.comm.timeline import (
    COMPUTE,
    KERNEL,
    NETWORK,
    _covered,
    _merge_intervals,
)


class TestSchedule:
    def test_event_starts_when_resource_free(self):
        timeline = SimTimeline()
        first = timeline.schedule(NETWORK, 2.0)
        second = timeline.schedule(NETWORK, 1.0)
        assert (first.start, first.end) == (0.0, 2.0)
        assert (second.start, second.end) == (2.0, 3.0)

    def test_not_before_delays_start(self):
        timeline = SimTimeline()
        event = timeline.schedule(NETWORK, 1.0, not_before=5.0)
        assert (event.start, event.end) == (5.0, 6.0)

    def test_resource_free_dominates_not_before(self):
        timeline = SimTimeline()
        timeline.schedule(NETWORK, 4.0)
        event = timeline.schedule(NETWORK, 1.0, not_before=1.0)
        assert event.start == 4.0

    def test_different_resources_overlap(self):
        timeline = SimTimeline()
        compute = timeline.schedule(COMPUTE, 3.0)
        network = timeline.schedule(NETWORK, 3.0)
        assert compute.start == network.start == 0.0
        assert timeline.makespan == 3.0

    def test_event_metadata(self):
        timeline = SimTimeline()
        event = timeline.schedule(KERNEL, 1.5, name="kernel:0", bucket=0)
        assert event.name == "kernel:0"
        assert event.resource == KERNEL
        assert event.seconds == 1.5
        assert event.attrs == {"bucket": 0}
        unnamed = timeline.schedule(KERNEL, 0.5)
        assert unnamed.name == KERNEL

    def test_rejects_negative_inputs(self):
        timeline = SimTimeline()
        with pytest.raises(ValueError, match=">= 0"):
            timeline.schedule(NETWORK, -1.0)
        with pytest.raises(ValueError, match="not_before"):
            timeline.schedule(NETWORK, 1.0, not_before=-0.5)

    def test_empty_timeline(self):
        timeline = SimTimeline()
        assert timeline.makespan == 0.0
        stats = timeline.overlap_stats()
        assert stats.comm_seconds == 0.0
        assert stats.overlap_fraction == 0.0

    def test_events_for(self):
        timeline = SimTimeline()
        timeline.schedule(NETWORK, 1.0)
        timeline.schedule(COMPUTE, 2.0)
        timeline.schedule(NETWORK, 3.0)
        assert [e.seconds for e in timeline.events_for(NETWORK)] == [1.0, 3.0]


class TestOverlapStats:
    def test_fully_hidden(self):
        timeline = SimTimeline()
        timeline.schedule(COMPUTE, 10.0)
        timeline.schedule(NETWORK, 4.0, not_before=2.0)
        stats = timeline.overlap_stats()
        assert stats.hidden_comm_seconds == 4.0
        assert stats.exposed_comm_seconds == 0.0
        assert stats.overlap_fraction == 1.0

    def test_fully_exposed(self):
        timeline = SimTimeline()
        timeline.schedule(COMPUTE, 2.0)
        timeline.schedule(NETWORK, 3.0, not_before=2.0)
        stats = timeline.overlap_stats()
        assert stats.hidden_comm_seconds == 0.0
        assert stats.exposed_comm_seconds == 3.0
        assert stats.overlap_fraction == 0.0

    def test_partial_overlap(self):
        timeline = SimTimeline()
        timeline.schedule(COMPUTE, 4.0)
        timeline.schedule(NETWORK, 4.0, not_before=2.0)
        stats = timeline.overlap_stats()
        assert stats.hidden_comm_seconds == 2.0
        assert stats.exposed_comm_seconds == 2.0
        assert stats.overlap_fraction == 0.5

    def test_double_cover_counted_once(self):
        # Compute and kernel both cover the network event; the hidden
        # time must not exceed the network occupancy.
        timeline = SimTimeline()
        timeline.schedule(COMPUTE, 5.0)
        timeline.schedule(KERNEL, 5.0)
        timeline.schedule(NETWORK, 3.0, not_before=1.0)
        stats = timeline.overlap_stats()
        assert stats.hidden_comm_seconds == 3.0
        assert stats.exposed_comm_seconds == 0.0

    def test_identity_is_exact_by_construction(self):
        stats = OverlapStats(
            hidden_comm_seconds=0.1, exposed_comm_seconds=0.2
        )
        assert (
            stats.hidden_comm_seconds + stats.exposed_comm_seconds
            == stats.comm_seconds
        )

    def test_makespan_tracks_latest_end(self):
        timeline = SimTimeline()
        timeline.schedule(COMPUTE, 10.0)
        timeline.schedule(NETWORK, 2.0, not_before=9.0)
        assert timeline.makespan == 11.0


durations = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=20,
)


class TestProperties:
    @given(durations)
    @settings(max_examples=100, deadline=None)
    def test_disabled_overlap_makespan_is_additive_sum(self, seconds):
        # A strict dependency chain (each event waits for the previous
        # end) is the sequential schedule: makespan == additive sum.
        timeline = SimTimeline()
        cursor = 0.0
        for index, duration in enumerate(seconds):
            resource = (COMPUTE, KERNEL, NETWORK)[index % 3]
            event = timeline.schedule(
                resource, duration, not_before=cursor
            )
            cursor = event.end
        assert timeline.makespan == cursor
        # Single-resource scheduling gives the same degenerate result.
        serial = SimTimeline()
        for duration in seconds:
            serial.schedule(NETWORK, duration)
        assert serial.makespan == sum(
            e.seconds for e in serial.events_for(NETWORK)
        )

    @given(durations, durations)
    @settings(max_examples=100, deadline=None)
    def test_hidden_plus_exposed_equals_comm_exactly(self, compute, comm):
        timeline = SimTimeline()
        for duration in compute:
            timeline.schedule(COMPUTE, duration)
        for index, duration in enumerate(comm):
            timeline.schedule(NETWORK, duration, not_before=0.5 * index)
        stats = timeline.overlap_stats()
        assert (
            stats.hidden_comm_seconds + stats.exposed_comm_seconds
            == stats.comm_seconds
        )
        assert stats.hidden_comm_seconds >= 0.0
        assert stats.exposed_comm_seconds >= -1e-12
        assert stats.comm_seconds == pytest.approx(
            sum(e.seconds for e in timeline.events_for(NETWORK))
        )
        assert 0.0 <= stats.overlap_fraction <= 1.0
        # Upper bound: every event fully serialized after the last
        # release time (not_before offsets can push past the raw sums).
        last_release = 0.5 * (len(comm) - 1)
        assert timeline.makespan <= (
            last_release + sum(compute) + sum(comm) + 1e-9
        )


class TestIntervalHelpers:
    def test_merge_overlapping(self):
        assert _merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_adjacent(self):
        assert _merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_merge_empty(self):
        assert _merge_intervals([]) == []

    def test_covered(self):
        assert _covered(0.0, 10.0, [(2.0, 4.0), (6.0, 20.0)]) == 6.0
        assert _covered(0.0, 1.0, []) == 0.0
        assert _covered(5.0, 6.0, [(0.0, 1.0)]) == 0.0
