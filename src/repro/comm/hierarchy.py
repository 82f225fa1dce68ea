"""Two-tier (rack-then-root) reduction topology.

Models in-network / switch-level aggregation: workers are partitioned
into ``n_racks`` contiguous groups, each with a rack-level aggregation
point (a ToR switch or node-local leader); rack aggregates meet at a
single root, whose result fans back down the same tree.  The pricing is
:func:`repro.comm.cost.hierarchical_reduce_time` — racks work their
phase-1/phase-4 links concurrently, so the cross-root traffic (and with
compressed-domain aggregation, the root's egress *volume*) is what the
topology optimizes.

Dense collectives keep the base :class:`~repro.comm.collectives.
Communicator` math (a rank-order stacked sum) so results stay bitwise
comparable with the flat topologies; only their cost is hierarchical.
``allreduce_compressed`` performs a true rack→root compressed-domain
reduction.  Rack grouping is contiguous and order-preserving, so the
only difference from a flat aggregation is the association of the
float sums (rack partials first) — exact to reassociation, and bitwise
identical whenever no coordinate is touched by more than one rack.
"""

from __future__ import annotations

import numpy as np

from repro.comm.backends import Backend, OPENMPI_TCP
from repro.comm.collectives import Communicator, Payload, payload_nbytes
from repro.comm.cost import hierarchical_reduce_time
from repro.comm.network import NetworkModel, ethernet
from repro.core.api import CompressedTensor


class HierarchicalCommunicator(Communicator):
    """Rack-grouped reduce-broadcast with Communicator-compatible semantics."""

    supports_compressed_aggregation = True

    def __init__(
        self,
        n_workers: int,
        n_racks: int = 2,
        network: NetworkModel | None = None,
        backend: Backend = OPENMPI_TCP,
    ):
        super().__init__(
            n_workers,
            network if network is not None else ethernet(10.0),
            backend,
        )
        if not 1 <= n_racks <= n_workers:
            raise ValueError(
                f"n_racks must be in [1, {n_workers}], got {n_racks}"
            )
        self.n_racks = int(n_racks)
        # Contiguous balanced partition: the first ``extra`` racks get
        # one member more.  Contiguity keeps rack-then-root aggregation
        # order identical to flat rank order.
        base, extra = divmod(self.n_workers, self.n_racks)
        self.racks: list[list[int]] = []
        start = 0
        for rack in range(self.n_racks):
            size = base + (1 if rack < extra else 0)
            self.racks.append(list(range(start, start + size)))
            start += size

    def _count_root_bytes(self, ingress: float, egress: float) -> None:
        """Account bytes crossing the root's links (cf. the PS counters)."""
        registry = self.record.registry
        registry.counter(
            "comm_root_bytes_total", {"direction": "ingress"}, unit="bytes",
            help="bytes entering the aggregation root",
        ).inc(float(ingress))
        registry.counter(
            "comm_root_bytes_total", {"direction": "egress"}, unit="bytes",
            help="bytes leaving the aggregation root",
        ).inc(float(egress))

    def _hier_seconds(
        self,
        sizes: list[float],
        leader_nbytes: list[float],
        root_nbytes: float,
    ) -> float:
        member_nbytes = [
            [sizes[rank] for rank in members] for members in self.racks
        ]
        return hierarchical_reduce_time(
            member_nbytes, leader_nbytes, root_nbytes,
            self.network, self.backend,
        )

    def allreduce_parts(self, payloads: list[Payload]) -> Payload:
        """Fused dense sum with hierarchical pricing (one op per bucket)."""
        summed, part_nbytes = self._sum_parts(payloads, "hierarchical sum")
        nbytes = float(sum(part_nbytes))
        seconds = self._hier_seconds(
            [nbytes] * self.n_workers, [nbytes] * self.n_racks, nbytes
        )
        self.record.charge(bytes_per_worker=nbytes, seconds=seconds,
                           op="hier_allreduce")
        self._count_root_bytes(
            ingress=nbytes * self.n_racks, egress=nbytes * self.n_racks,
        )
        return summed

    def allgather(self, payloads: list[Payload]) -> list[Payload]:
        """Relay every rank's payload through the rack/root tree."""
        self._check_rank_count(payloads)
        sizes = [float(payload_nbytes(p)) for p in payloads]
        rack_sums = [
            sum(sizes[rank] for rank in members) for members in self.racks
        ]
        relay = float(sum(sizes))
        seconds = self._hier_seconds(sizes, rack_sums, relay)
        mean_contribution = float(np.mean(sizes)) if sizes else 0.0
        self.record.charge(bytes_per_worker=mean_contribution,
                           seconds=seconds, op="hier_allgather")
        self._count_root_bytes(
            ingress=relay, egress=relay * self.n_racks,
        )
        return [list(p) for p in payloads]

    def allreduce_compressed(
        self, compressed: list[CompressedTensor], compressor
    ) -> CompressedTensor:
        """True two-tier compressed-domain reduction.

        Each rack aggregates its members' payloads (the in-network
        step), the root aggregates the rack aggregates, and the one
        root payload fans back down.  Rack grouping is contiguous and
        order-preserving, so the result matches a flat
        ``aggregate_compressed(all)`` exactly up to the association of
        the float sums (rack partials are formed first).
        """
        self._check_rank_count(compressed)
        sizes = [float(payload_nbytes(c.payload)) for c in compressed]
        rack_aggs = [
            compressor.aggregate_compressed(
                [compressed[rank] for rank in members]
            )
            for members in self.racks
        ]
        leader_sizes = [
            float(payload_nbytes(agg.payload)) for agg in rack_aggs
        ]
        if len(rack_aggs) == 1:
            root = rack_aggs[0]
        else:
            root = compressor.aggregate_compressed(rack_aggs)
        root_nbytes = float(payload_nbytes(root.payload))
        seconds = self._hier_seconds(sizes, leader_sizes, root_nbytes)
        mean_contribution = float(np.mean(sizes)) if sizes else 0.0
        self.record.charge(bytes_per_worker=mean_contribution,
                           seconds=seconds, op="hier_aggregated")
        self._count_root_bytes(
            ingress=float(sum(leader_sizes)),
            egress=root_nbytes * self.n_racks,
        )
        return root
