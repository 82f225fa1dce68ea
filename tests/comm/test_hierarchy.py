"""Two-tier reduction topology + the PS aggregated round trip.

Covers the new cost functions (``hierarchical_reduce_time``,
``ps_aggregated_round_trip_time``, and the per-worker download
semantics of ``ps_round_trip_time`` down to its one-worker degenerate
boundary), the :class:`HierarchicalCommunicator`'s semantics and
accounting, and the ISSUE acceptance numbers: aggregated PS download
bytes collapse to ~one compressed payload and the two-tier tree beats
the flat PS on simulated wall clock at 16 workers.
"""

import numpy as np
import pytest

from repro.comm import (
    OPENMPI_TCP,
    Communicator,
    HierarchicalCommunicator,
    ParameterServerCommunicator,
    ethernet,
    hierarchical_reduce_time,
    ps_aggregated_round_trip_time,
    ps_round_trip_time,
)
from repro.core.registry import create

NET = ethernet(10.0)


def root_bytes(comm, direction):
    return comm.record.registry.value(
        "comm_root_bytes_total", {"direction": direction}
    )


class TestPsCostBoundaries:
    def test_single_worker_degenerates_to_self_round_trip(self):
        # One worker: a self-push and self-pull — exactly two message
        # latencies plus its own bytes both ways, no fan-out at all.
        nbytes = 1_000_000.0
        rate = NET.effective_bytes_per_second * OPENMPI_TCP.collective_efficiency
        expected = (
            OPENMPI_TCP.per_op_overhead_s
            + 2 * NET.message_latency_s
            + 2 * nbytes / rate
        )
        got = ps_round_trip_time([nbytes], [nbytes], NET, OPENMPI_TCP)
        assert got == pytest.approx(expected, rel=1e-12)
        # The aggregated form agrees at n=1: the "aggregate" IS the
        # single worker's payload.
        assert ps_aggregated_round_trip_time(
            [nbytes], nbytes, NET, OPENMPI_TCP
        ) == pytest.approx(expected, rel=1e-12)

    def test_download_is_per_worker_not_total(self):
        # Doubling the per-worker download doubles only the pull
        # bandwidth term; the relay convention [sum(uploads)]*n must be
        # strictly costlier than the aggregated convention [agg]*n.
        uploads = [1e6] * 8
        relay = ps_round_trip_time(
            uploads, [sum(uploads)] * 8, NET, OPENMPI_TCP
        )
        aggregated = ps_aggregated_round_trip_time(
            uploads, 1e6, NET, OPENMPI_TCP
        )
        assert aggregated < relay
        # Same message-latency count either way: the gap is pure egress
        # bandwidth, sum(uploads)·n vs agg·n.
        rate = NET.effective_bytes_per_second * OPENMPI_TCP.collective_efficiency
        expected_gap = (8 * sum(uploads) - 8 * 1e6) / rate
        assert relay - aggregated == pytest.approx(expected_gap, rel=1e-9)

    def test_aggregated_validates_nonnegative(self):
        with pytest.raises(ValueError, match="non-negative"):
            ps_aggregated_round_trip_time([1.0], -1.0, NET, OPENMPI_TCP)


class TestHierarchicalCost:
    def test_racks_parallelize_the_member_phase(self):
        # 16 members behind one rack serialize 16 uploads; 4 racks of 4
        # overlap them — with identical per-member traffic the two-tier
        # split must be strictly faster.
        member = [1e6] * 16
        one_rack = hierarchical_reduce_time(
            [member], [1e6], 1e6, NET, OPENMPI_TCP
        )
        four_racks = hierarchical_reduce_time(
            [member[:4]] * 4, [1e6] * 4, 1e6, NET, OPENMPI_TCP
        )
        assert four_racks < one_rack

    def test_slowest_rack_paces_the_tree(self):
        balanced = hierarchical_reduce_time(
            [[1e6] * 4, [1e6] * 4], [1e6] * 2, 1e6, NET, OPENMPI_TCP
        )
        skewed = hierarchical_reduce_time(
            [[1e6] * 7, [1e6]], [1e6] * 2, 1e6, NET, OPENMPI_TCP
        )
        assert skewed > balanced

    def test_monotone_in_root_bytes(self):
        racks = [[1e6] * 4] * 4
        small = hierarchical_reduce_time(
            racks, [1e6] * 4, 1e5, NET, OPENMPI_TCP
        )
        large = hierarchical_reduce_time(
            racks, [1e6] * 4, 1e7, NET, OPENMPI_TCP
        )
        assert large > small

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="one leader"):
            hierarchical_reduce_time([[1.0]], [1.0, 2.0], 1.0,
                                     NET, OPENMPI_TCP)
        with pytest.raises(ValueError, match="at least one rack"):
            hierarchical_reduce_time([], [], 1.0, NET, OPENMPI_TCP)
        with pytest.raises(ValueError, match="non-negative"):
            hierarchical_reduce_time([[1.0]], [1.0], -1.0, NET, OPENMPI_TCP)
        with pytest.raises(ValueError, match="non-negative"):
            hierarchical_reduce_time([[-1.0]], [1.0], 1.0, NET, OPENMPI_TCP)


class TestCommunicatorSemantics:
    def make(self, n=8, racks=4):
        return HierarchicalCommunicator(n, n_racks=racks, network=NET,
                                        backend=OPENMPI_TCP)

    def test_rack_partition_is_contiguous_and_balanced(self):
        comm = HierarchicalCommunicator(10, n_racks=4, network=NET)
        assert comm.racks == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
        assert comm.n_racks == 4
        with pytest.raises(ValueError, match="n_racks"):
            HierarchicalCommunicator(4, n_racks=5)

    def test_allreduce_matches_flat_sum_bitwise(self):
        rng = np.random.default_rng(0)
        tensors = [
            rng.standard_normal(64).astype(np.float32) for _ in range(8)
        ]
        hier = self.make().allreduce([t.copy() for t in tensors])
        flat = Communicator(8, NET, OPENMPI_TCP).allreduce(tensors)
        assert hier.tobytes() == flat.tobytes()

    def test_allreduce_parts_and_allgather_account_root_bytes(self):
        comm = self.make(8, 4)
        payloads = [[np.ones(16, np.float32)] for _ in range(8)]
        comm.allreduce_parts([list(p) for p in payloads])
        assert root_bytes(comm, "ingress") == 64.0 * 4
        assert root_bytes(comm, "egress") == 64.0 * 4
        gathered = comm.allgather([list(p) for p in payloads])
        assert len(gathered) == 8
        assert comm.record.simulated_seconds > 0

    def test_compressed_reduction_single_rack_short_circuits(self):
        grads = [np.ones(64, np.float32) for _ in range(3)]
        comp = create("topk", seed=0, ratio=0.25)
        items = [comp.compress(g, "w") for g in grads]
        comm = HierarchicalCommunicator(3, n_racks=1, network=NET)
        agg = comm.allreduce_compressed(items, comp)
        assert np.allclose(
            comp.decompress_aggregated(agg),
            np.sum([comp.decompress(i) for i in items], axis=0),
        )

    def test_rejects_wrong_rank_count(self):
        comm = self.make(4, 2)
        with pytest.raises(ValueError):
            comm.allreduce([np.zeros(4, np.float32)] * 3)


class TestAcceptanceNumbers:
    """The ISSUE's measurable claims, asserted directly."""

    def _cohort(self, n, size=4096, ratio=0.05):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(size).astype(np.float32)
        proto = create("topk", seed=0, ratio=ratio)
        comps = [proto.clone(seed=r) for r in range(n)]
        items = [
            comps[r].compress(
                base + 0.01 * rng.standard_normal(size).astype(np.float32),
                "w",
            )
            for r in range(n)
        ]
        return comps, items

    def test_ps_download_drops_to_one_compressed_payload(self):
        n = 8
        comps, items = self._cohort(n)
        sizes = [
            sum(np.asarray(p).nbytes for p in item.payload)
            for item in items
        ]
        relay_ps = ParameterServerCommunicator(n, NET, OPENMPI_TCP)
        relay_ps.allgather([list(item.payload) for item in items])
        agg_ps = ParameterServerCommunicator(n, NET, OPENMPI_TCP)
        agg = agg_ps.allreduce_compressed(items, comps[0])
        agg_nbytes = sum(np.asarray(p).nbytes for p in agg.payload)
        # Legacy relay: every worker pulls everyone's payload.
        assert root_bytes(relay_ps, "egress") == n * sum(sizes)
        # Aggregated: every worker pulls exactly the ONE summed payload.
        assert root_bytes(agg_ps, "egress") == n * agg_nbytes
        # And with coincident heavy hitters, that payload is about one
        # worker's upload, not the cohort's concatenation.
        assert agg_nbytes < 2 * max(sizes)
        assert agg_ps.record.simulated_seconds < (
            relay_ps.record.simulated_seconds
        )

    def test_hier_beats_flat_ps_at_16_workers(self):
        n = 16
        comps, items = self._cohort(n)
        flat = ParameterServerCommunicator(n, NET, OPENMPI_TCP)
        flat.allgather([list(item.payload) for item in items])
        hier = HierarchicalCommunicator(n, n_racks=4, network=NET,
                                        backend=OPENMPI_TCP)
        hier.allreduce_compressed(items, comps[0])
        assert hier.record.simulated_seconds < (
            flat.record.simulated_seconds
        )
        assert root_bytes(hier, "egress") < root_bytes(flat, "egress")

    def test_hier_aggregate_decodes_close_to_flat(self):
        comps, items = self._cohort(8)
        flat_sum = comps[0].decompress_aggregated(
            comps[0].aggregate_compressed(items)
        )
        hier = HierarchicalCommunicator(8, n_racks=4, network=NET)
        hier_sum = comps[0].decompress_aggregated(
            hier.allreduce_compressed(items, comps[0])
        )
        np.testing.assert_allclose(hier_sum, flat_sum, rtol=1e-5, atol=1e-6)
