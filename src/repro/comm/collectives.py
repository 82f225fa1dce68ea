"""Simulated collective communication between in-process workers.

:class:`Communicator` performs the actual data movement (so training is
bit-for-bit faithful to a real cluster) while charging simulated wall-clock
time from the analytical cost model and accounting transmitted bytes —
the two quantities the paper's evaluation is built on (throughput and
data volume).
"""

from __future__ import annotations

import math

import numpy as np

from repro.comm.backends import Backend, OPENMPI_TCP
from repro.comm.cost import (
    allgather_time,
    broadcast_time,
    fused_allreduce_time,
    ring_allreduce_time,
    sparse_allreduce_time,
)
from repro.comm.network import NetworkModel, ethernet
from repro.comm.timeline import NETWORK, SimEvent, SimTimeline
from repro.telemetry.metrics import Histogram, MetricsRegistry

Payload = list[np.ndarray]


def payload_nbytes(payload: Payload) -> int:
    """On-wire size of one worker's compressed payload, in bytes."""
    return int(sum(int(np.asarray(t).nbytes) for t in payload))


class CommRecord:
    """Running account of simulated communication.

    The record is a thin adapter over a
    :class:`~repro.telemetry.metrics.MetricsRegistry`: bytes, seconds
    and op counts live in registry instruments (``comm_*``), so the
    communication layer is counted in exactly one place and exports
    with the rest of a run's telemetry.  The public read surface
    (:attr:`bytes_sent_per_worker`, :attr:`simulated_seconds`,
    :attr:`num_ops`, :attr:`mean_bytes_per_op`) is unchanged.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry: MetricsRegistry | None = None
        self.bind(registry if registry is not None else MetricsRegistry())

    def bind(self, registry: MetricsRegistry) -> None:
        """(Re)attach to a registry, migrating any accumulated totals.

        Trainers call this to pull an existing communicator's accounting
        into their shared run registry; totals carry over so rebinding
        never silently resets the meter.
        """
        previous = self.registry
        if previous is registry:
            return
        self.registry = registry
        self._bytes = registry.counter(
            "comm_bytes_per_worker_total", unit="bytes",
            help="per-worker bytes placed on the wire",
        )
        self._seconds = registry.counter(
            "comm_sim_seconds_total", unit="seconds",
            help="simulated communication wall-clock",
        )
        self._ops = registry.counter(
            "comm_ops_total", help="collective operations issued",
        )
        self._op_bytes = registry.histogram(
            "comm_op_bytes_per_worker", unit="bytes",
            help="per-op bytes each worker sent",
        )
        # op kind -> its (bytes, seconds, count) counters, resolved on
        # the first charge of that kind.
        self._per_op: dict[str, tuple] = {}
        if previous is not None:
            for instrument in previous.instruments():
                if not instrument.name.startswith("comm_"):
                    continue
                labels = dict(instrument.labels)
                if isinstance(instrument, Histogram):
                    target = registry.histogram(
                        instrument.name, labels, unit=instrument.unit,
                        help=instrument.help,
                    )
                    for value in instrument._values:
                        target.observe(value)
                else:
                    registry.counter(
                        instrument.name, labels, unit=instrument.unit,
                        help=instrument.help,
                    ).inc(instrument.value)
                instrument.reset()

    def charge(self, bytes_per_worker: float, seconds: float,
               op: str | None = None) -> None:
        """Record one collective's cost (optionally labeled by op kind)."""
        # NaN compares false against 0, so an explicit finiteness check
        # is required — a poisoned cost must fail here, not surface later
        # as a NaN overlap fraction or byte total in the report.
        if not (math.isfinite(bytes_per_worker) and math.isfinite(seconds)):
            raise ValueError("cannot charge non-finite cost")
        if bytes_per_worker < 0 or seconds < 0:
            raise ValueError("cannot charge negative cost")
        self._bytes.inc(bytes_per_worker)
        self._seconds.inc(seconds)
        self._ops.inc(1)
        self._op_bytes.observe(bytes_per_worker)
        if op is not None:
            counters = self._per_op.get(op)
            if counters is None:
                labels = {"op": op}
                counters = self._per_op[op] = (
                    self.registry.counter(
                        "comm_op_bytes_per_worker_total", labels,
                        unit="bytes",
                        help="per-worker bytes by collective op",
                    ),
                    self.registry.counter(
                        "comm_op_sim_seconds_total", labels, unit="seconds",
                        help="simulated seconds by collective op",
                    ),
                    self.registry.counter(
                        "comm_op_count_total", labels,
                        help="operations by collective op",
                    ),
                )
            op_bytes, op_seconds, op_count = counters
            op_bytes.inc(bytes_per_worker)
            op_seconds.inc(seconds)
            op_count.inc(1)

    def charge_overhead(self, seconds: float, bytes_per_worker: float = 0.0,
                        reason: str = "fault") -> None:
        """Account fault-recovery overhead without counting a collective.

        Timeout waits, exponential-backoff stalls, retransmitted frames
        and straggler waits inflate the simulated wall-clock (and, for
        retransmits, the wire volume), but they are not collective
        operations: ``num_ops`` and the per-op byte histogram stay
        untouched so op-level statistics keep meaning "collectives
        issued".  The overhead is additionally broken out under
        ``comm_fault_overhead_seconds_total{reason=...}``.
        """
        if not (math.isfinite(seconds) and math.isfinite(bytes_per_worker)):
            raise ValueError("cannot charge non-finite overhead")
        if seconds < 0 or bytes_per_worker < 0:
            raise ValueError("cannot charge negative overhead")
        self._seconds.inc(seconds)
        self._bytes.inc(bytes_per_worker)
        self.registry.counter(
            "comm_fault_overhead_seconds_total", {"reason": reason},
            unit="seconds",
            help="simulated seconds spent on fault handling, by cause",
        ).inc(seconds)

    def reset(self) -> None:
        """Zero every ``comm_*`` instrument this record counts into."""
        for instrument in self.registry.instruments():
            if instrument.name.startswith("comm_"):
                instrument.reset()

    @property
    def bytes_sent_per_worker(self) -> float:
        """Cumulative per-worker bytes placed on the wire."""
        return self._bytes.value

    @property
    def simulated_seconds(self) -> float:
        """Cumulative simulated communication seconds."""
        return self._seconds.value

    @property
    def num_ops(self) -> int:
        """Number of collective operations charged."""
        return int(self._ops.value)

    @property
    def mean_bytes_per_op(self) -> float:
        """Average per-op bytes each worker sent (0.0 before any op)."""
        if self._op_bytes.count == 0:
            return 0.0
        return self._op_bytes.mean


class AsyncHandle:
    """Result of a nonblocking collective.

    The simulated cluster moves the data eagerly (the math is done by
    the time the handle exists — determinism requires it), so
    "nonblocking" is purely a *scheduling* statement: when a
    :class:`~repro.comm.timeline.SimTimeline` is attached, the
    collective occupies the network resource starting no earlier than
    ``ready_at`` and :attr:`event` records that occupancy.  ``wait()``
    returns the result, mirroring MPI request semantics.
    """

    __slots__ = ("event", "_result", "_waited")

    def __init__(self, result, event: SimEvent | None = None):
        self._result = result
        self.event = event
        self._waited = False

    def wait(self):
        """Drain the handle and return the collective's result."""
        self._waited = True
        return self._result

    @property
    def done(self) -> bool:
        """Whether ``wait()`` has been called."""
        return self._waited

    @property
    def sim_end(self) -> float:
        """Simulated completion time (0.0 without a timeline)."""
        return self.event.end if self.event is not None else 0.0


class Communicator:
    """Collectives over ``n_workers`` simulated ranks.

    Every call takes per-rank inputs as a list indexed by rank and returns
    the value(s) each rank would observe.  Costs are recorded on
    :attr:`record`.
    """

    def __init__(
        self,
        n_workers: int,
        network: NetworkModel | None = None,
        backend: Backend = OPENMPI_TCP,
        registry: MetricsRegistry | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.network = network if network is not None else ethernet(10.0)
        self.backend = backend
        self.record = CommRecord(registry)

    def heartbeat(self, progress: int | None = None) -> None:
        """Liveness hook; a no-op for the in-process simulator.

        The real-parallel worker communicator overrides this to refresh
        its rank's heartbeat words in the shared arena, so the trainer
        can call it unconditionally at every iteration boundary.
        """

    # -- primitives ---------------------------------------------------------

    def allreduce(self, tensors: list[np.ndarray]) -> np.ndarray:
        """Sum identical-shape tensors across ranks; every rank gets the sum.

        Mirrors the real Allreduce restrictions the paper lists in §IV-B:
        inputs must share dtype and shape and aggregation is summation only.
        """
        self._check_rank_count(tensors)
        first = np.asarray(tensors[0])
        for rank, tensor in enumerate(tensors[1:], start=1):
            tensor = np.asarray(tensor)
            if tensor.shape != first.shape or tensor.dtype != first.dtype:
                raise ValueError(
                    "Allreduce requires uniform inputs: rank 0 has "
                    f"{first.shape}/{first.dtype}, rank {rank} has "
                    f"{tensor.shape}/{tensor.dtype}"
                )
        total = np.sum(np.stack([np.asarray(t) for t in tensors]), axis=0)
        seconds = ring_allreduce_time(
            first.nbytes, self.n_workers, self.network, self.backend
        )
        self.record.charge(bytes_per_worker=float(first.nbytes),
                           seconds=seconds, op="allreduce")
        return total

    def allreduce_parts(self, payloads: list[Payload]) -> Payload:
        """Sum every part of a multi-part payload in one fused collective.

        Each rank contributes a *list* of arrays; part ``i`` is summed
        across ranks exactly like :meth:`allreduce` would sum it, but all
        parts travel as one message: a single op is charged, with one
        per-op overhead and one set of latency-bound steps for the
        combined byte volume (see
        :func:`repro.comm.cost.fused_allreduce_time`).
        """
        self._check_rank_count(payloads)
        first = payloads[0]
        for rank, payload in enumerate(payloads[1:], start=1):
            if len(payload) != len(first):
                raise ValueError(
                    "fused Allreduce requires uniform part counts: rank 0 "
                    f"has {len(first)}, rank {rank} has {len(payload)}"
                )
        summed: Payload = []
        part_nbytes: list[int] = []
        for part in range(len(first)):
            ref = np.asarray(first[part])
            for rank, payload in enumerate(payloads[1:], start=1):
                tensor = np.asarray(payload[part])
                if tensor.shape != ref.shape or tensor.dtype != ref.dtype:
                    raise ValueError(
                        "fused Allreduce requires uniform inputs: part "
                        f"{part} is {ref.shape}/{ref.dtype} on rank 0, "
                        f"{tensor.shape}/{tensor.dtype} on rank {rank}"
                    )
            summed.append(
                np.sum(
                    np.stack([np.asarray(p[part]) for p in payloads]), axis=0
                )
            )
            part_nbytes.append(int(ref.nbytes))
        seconds = fused_allreduce_time(
            part_nbytes, self.n_workers, self.network, self.backend
        )
        self.record.charge(
            bytes_per_worker=float(sum(part_nbytes)), seconds=seconds,
            op="allreduce",
        )
        return summed

    def allgather(self, payloads: list[Payload]) -> list[Payload]:
        """Gather every rank's payload list to all ranks.

        Payloads may differ in size across ranks (the sparse-tensor case);
        backends with ``requires_uniform_input`` reject that, as NCCL does.
        """
        self._check_rank_count(payloads)
        self._charge_allgather(payloads)
        return [list(p) for p in payloads]

    def _charge_allgather(self, payloads: list[Payload]) -> float:
        """Charge one ring Allgather of ``payloads``; the seconds charged."""
        sizes = [payload_nbytes(p) for p in payloads]
        if self.backend.requires_uniform_input and len(set(sizes)) > 1:
            raise ValueError(
                f"backend {self.backend.name!r} requires uniform input sizes, "
                f"got {sizes}"
            )
        seconds = allgather_time(sizes, self.network, self.backend)
        # Exact integers: the same float np.mean gives, without its call.
        self.record.charge(bytes_per_worker=sum(sizes) / len(sizes),
                           seconds=seconds, op="allgather")
        return seconds

    # -- nonblocking collectives --------------------------------------------

    def iallreduce_parts(
        self,
        payloads: list[Payload],
        *,
        ready_at: float = 0.0,
        timeline: SimTimeline | None = None,
    ) -> AsyncHandle:
        """Nonblocking :meth:`allreduce_parts`.

        Math, byte accounting and charged simulated seconds are identical
        to the blocking call (subclass cost overrides — e.g. the parameter
        server's incast model — apply unchanged).  With a ``timeline``,
        the charged seconds are additionally scheduled as a network event
        starting no earlier than ``ready_at``, so the collective can run
        concurrently with later compute/kernel events.
        """
        return self._nonblocking(
            self.allreduce_parts, payloads, op="allreduce",
            ready_at=ready_at, timeline=timeline,
        )

    def iallgather(
        self,
        payloads: list[Payload],
        *,
        ready_at: float = 0.0,
        timeline: SimTimeline | None = None,
    ) -> AsyncHandle:
        """Nonblocking :meth:`allgather` (see :meth:`iallreduce_parts`)."""
        return self._nonblocking(
            self.allgather, payloads, op="allgather",
            ready_at=ready_at, timeline=timeline,
        )

    def _nonblocking(
        self,
        collective,
        payloads: list[Payload],
        *,
        op: str,
        ready_at: float,
        timeline: SimTimeline | None,
    ) -> AsyncHandle:
        """Run a blocking collective, scheduling its cost on a timeline."""
        seconds_before = self.record.simulated_seconds
        result = collective(payloads)
        seconds = self.record.simulated_seconds - seconds_before
        event = None
        if timeline is not None:
            event = timeline.schedule(
                NETWORK, seconds, not_before=ready_at, name=op,
            )
        return AsyncHandle(result, event)

    def sparse_allreduce(
        self, tensors: list[np.ndarray], block_size: int = 256
    ) -> np.ndarray:
        """OmniReduce-style block-sparse sum (related-work §VI).

        Semantically identical to :meth:`allreduce`; the cost model only
        charges the union of non-zero blocks plus a per-block bitmap, so
        sparse gradients (e.g. embedding updates) move cheaply without
        any lossy compression.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self._check_rank_count(tensors)
        first = np.asarray(tensors[0])
        for rank, tensor in enumerate(tensors[1:], start=1):
            tensor = np.asarray(tensor)
            if tensor.shape != first.shape or tensor.dtype != first.dtype:
                raise ValueError(
                    "sparse Allreduce requires uniform inputs: rank 0 has "
                    f"{first.shape}/{first.dtype}, rank {rank} has "
                    f"{tensor.shape}/{tensor.dtype}"
                )
        return self._sparse_sum(tensors, block_size)

    def _sparse_sum(
        self, tensors: list[np.ndarray], block_size: int
    ) -> np.ndarray:
        """Charge, then sum, uniform per-rank ``tensors`` block-sparsely."""
        n_workers = len(tensors)
        stacked = np.stack([np.ravel(np.asarray(t)) for t in tensors])
        n_elements = stacked.shape[1]
        n_blocks = (n_elements + block_size - 1) // block_size
        pad = n_blocks * block_size - n_elements
        padded = np.pad(stacked, ((0, 0), (0, pad)))
        blocks = padded.reshape(n_workers, n_blocks, block_size)
        nonzero = np.any(blocks != 0, axis=2)  # (workers, blocks)
        union_blocks = int(np.any(nonzero, axis=0).sum())
        per_worker_blocks = nonzero.sum(axis=1)
        item = stacked.dtype.itemsize
        union_nbytes = union_blocks * block_size * item
        bitmap_nbytes = n_workers * ((n_blocks + 7) // 8)
        seconds = sparse_allreduce_time(
            union_nbytes, bitmap_nbytes, n_workers, self.network,
            self.backend,
        )
        mean_contribution = float(
            np.mean(per_worker_blocks) * block_size * item
            + (n_blocks + 7) // 8
        )
        self.record.charge(bytes_per_worker=mean_contribution,
                           seconds=seconds, op="sparse_allreduce")
        total = np.sum(np.stack([np.asarray(t) for t in tensors]), axis=0)
        return total

    def broadcast(self, payload: Payload, root: int = 0) -> list[Payload]:
        """Send ``payload`` from ``root`` to all ranks."""
        if not 0 <= root < self.n_workers:
            raise ValueError(f"root {root} out of range for {self.n_workers} ranks")
        nbytes = payload_nbytes(payload)
        seconds = broadcast_time(nbytes, self.n_workers, self.network, self.backend)
        # Amortized per-worker share of the broadcast traffic.
        self.record.charge(
            bytes_per_worker=nbytes / self.n_workers, seconds=seconds,
            op="broadcast",
        )
        return [list(payload) for _ in range(self.n_workers)]

    # -- helpers ------------------------------------------------------------

    def _check_rank_count(self, items: list) -> None:
        if len(items) != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} per-rank inputs, got {len(items)}"
            )
