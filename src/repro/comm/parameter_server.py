"""Parameter-server communication (paper §IV-A).

"Conceptually, a parameter server provides a gradient aggregation
function equivalent to Allreduce" — but its cost structure differs from
a collective: all workers push into the server's single ingress link
(incast serialization) and the server fans the result back out over its
egress link.  :class:`ParameterServerCommunicator` is a drop-in
replacement for :class:`~repro.comm.collectives.Communicator` with those
costs, so any GRACE trainer can run in the master-worker topology the
paper mentions Horovod cannot provide.
"""

from __future__ import annotations

import numpy as np

from repro.comm.backends import Backend, OPENMPI_TCP
from repro.comm.collectives import Communicator, Payload, payload_nbytes
from repro.comm.cost import ps_aggregated_round_trip_time, ps_round_trip_time
from repro.comm.network import NetworkModel, ethernet
from repro.core.api import CompressedTensor

__all__ = ["ParameterServerCommunicator", "ps_round_trip_time"]


class ParameterServerCommunicator(Communicator):
    """Master-worker aggregation with Communicator-compatible semantics.

    * ``allreduce``: workers push their dense tensors; the server sums
      and pushes the sum back to every worker.
    * ``allgather``: workers push their (variable-size) payloads; the
      server relays the full set back to every worker, which then
      decompresses and aggregates locally exactly as in the collective
      path — so compressed methods behave identically, only the cost
      model changes.
    * ``allreduce_compressed``: for compressors with a compressed-domain
      aggregation capability, the server sums payloads *without
      decompressing* and fans out the one aggregated payload — egress
      is ``n · aggregated`` bytes instead of the relay's
      ``n · sum(uploads)``.  An aggregate can be the larger of the two
      (a wide union, few workers); for exact-linear schemes, whose two
      forms decode alike, the server then relays instead, so their
      egress never exceeds the relay's.

    Server-side link pressure is observable via the
    ``comm_root_bytes_total{direction=ingress|egress}`` counters every
    method maintains.
    """

    supports_compressed_aggregation = True

    def __init__(
        self,
        n_workers: int,
        network: NetworkModel | None = None,
        backend: Backend = OPENMPI_TCP,
    ):
        super().__init__(
            n_workers,
            network if network is not None else ethernet(10.0),
            backend,
        )

    def _count_root_bytes(self, ingress: float, egress: float) -> None:
        """Account bytes crossing the server's own links.

        These counters are what make the aggregated fan-out's saving
        measurable: relay egress is ``n · sum(uploads)`` while
        aggregated egress is ``n · aggregated``.
        """
        registry = self.record.registry
        registry.counter(
            "comm_root_bytes_total", {"direction": "ingress"}, unit="bytes",
            help="bytes entering the aggregation root",
        ).inc(float(ingress))
        registry.counter(
            "comm_root_bytes_total", {"direction": "egress"}, unit="bytes",
            help="bytes leaving the aggregation root",
        ).inc(float(egress))

    def allreduce_parts(self, payloads: list[Payload]) -> Payload:
        """Sum multi-part payloads via the server in one round trip.

        Same fusion semantics as the collective version: every part of a
        rank's payload travels in one push message, so the per-worker
        message latency and per-op overhead are paid once per bucket.
        """
        summed, part_nbytes = self._sum_parts(
            payloads, "parameter-server sum"
        )
        nbytes = float(sum(part_nbytes))
        seconds = ps_round_trip_time(
            [nbytes] * self.n_workers, [nbytes] * self.n_workers,
            self.network, self.backend,
        )
        self.record.charge(bytes_per_worker=nbytes, seconds=seconds,
                           op="ps_allreduce")
        self._count_root_bytes(
            ingress=nbytes * self.n_workers, egress=nbytes * self.n_workers,
        )
        return summed

    def allgather(self, payloads: list[Payload]) -> list[Payload]:
        """Relay every rank's payload through the server."""
        self._check_rank_count(payloads)
        sizes = [float(payload_nbytes(p)) for p in payloads]
        relay = float(sum(sizes))
        seconds = ps_round_trip_time(
            sizes, [relay] * self.n_workers, self.network, self.backend
        )
        mean_contribution = float(np.mean(sizes)) if sizes else 0.0
        self.record.charge(bytes_per_worker=mean_contribution,
                           seconds=seconds, op="ps_allgather")
        self._count_root_bytes(
            ingress=float(sum(sizes)), egress=relay * self.n_workers,
        )
        return [list(p) for p in payloads]

    def allreduce_compressed(
        self, compressed: list[CompressedTensor], compressor
    ) -> CompressedTensor | list[Payload]:
        """Sum payloads in the compressed domain; fan out ONE aggregate —
        unless relaying the uploads ships fewer bytes.

        The uploads are unchanged relative to :meth:`allgather`, but the
        server runs ``compressor.aggregate_compressed`` and every worker
        pulls the single summed payload, so the egress bandwidth term is
        ``n · aggregated`` instead of ``n · sum(uploads)``.  For an
        ``exact-linear`` scheme the aggregate and the relayed payloads
        decode alike, so when the aggregate is the larger the server
        runs :meth:`allgather` instead and returns its list of payloads,
        which the caller finishes as a gather.  Raises the compressor's
        typed :class:`~repro.core.api.AggregationUnsupportedError` when
        the scheme declares no aggregation capability — callers probe
        the :attr:`~repro.core.api.Compressor.aggregation` flag first.
        """
        self._check_rank_count(compressed)
        sizes = [float(payload_nbytes(c.payload)) for c in compressed]
        aggregated = compressor.aggregate_compressed(list(compressed))
        agg_nbytes = float(payload_nbytes(aggregated.payload))
        relay = float(sum(sizes))
        if compressor.aggregation == "exact-linear" and agg_nbytes > relay:
            return self.allgather([c.payload for c in compressed])
        seconds = ps_aggregated_round_trip_time(
            sizes, agg_nbytes, self.network, self.backend
        )
        mean_contribution = float(np.mean(sizes)) if sizes else 0.0
        self.record.charge(bytes_per_worker=mean_contribution,
                           seconds=seconds, op="ps_aggregated")
        self._count_root_bytes(
            ingress=float(sum(sizes)), egress=agg_nbytes * self.n_workers,
        )
        return aggregated

    def broadcast(self, payload: Payload, root: int = 0) -> list[Payload]:
        """Send one payload from root to all ranks via the server."""
        if not 0 <= root < self.n_workers:
            raise ValueError(
                f"root {root} out of range for {self.n_workers} ranks"
            )
        nbytes = float(payload_nbytes(payload))
        seconds = ps_round_trip_time(
            [nbytes] + [0.0] * (self.n_workers - 1),
            [nbytes] * self.n_workers,
            self.network,
            self.backend,
        )
        self.record.charge(bytes_per_worker=nbytes / self.n_workers,
                           seconds=seconds, op="ps_broadcast")
        self._count_root_bytes(
            ingress=nbytes, egress=nbytes * self.n_workers,
        )
        return [list(payload) for _ in range(self.n_workers)]
