"""The exchange engine: Algorithm 1's per-unit loop over one fusion plan.

GRACE's Algorithm 1 is one worker's loop: φ → Q → ψ (lines 5–6), the
collective, then Q⁻¹ and Agg (lines 8–13).  :class:`Exchange` runs it for
the ranks one process computes, over the units of one
:class:`~repro.core.fusion.FusionPlan`.  Everything a step cannot change
is decided when the engine is built: each unit's label, span attributes,
ready fraction and scratch, the finish kind, and whether
compressed-domain aggregation applies.

One rule finishes both backends.  The cohort positions this process
computed keep their own payload and ψ's decode of it; every other
position decodes from the gather result under a local ctx, which is
receiver-known metadata by the §IV-B honesty contract.  The simulator
computes every position, a worker process its own.

Where a process computes several ranks, a unit's φ → Q → ψ runs on
*lanes*: the calling thread and worker threads shared by the process, as
many as the cores the BLAS pools leave free (:func:`lane_count`).  Lane k
takes the ranks at positions k, k + lanes, …, and the results are joined
in rank order, so a step computes bitwise what the serial loop computes.
A unit stays serial under :data:`LANE_MIN_NUMEL` elements, in a traced
step, and where a rank's compressor or memory class has not declared
``concurrent_ranks``.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
import time
import weakref
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np

from repro.comm.collectives import AsyncHandle
from repro.comm.timeline import COMPUTE, KERNEL, NETWORK, SimTimeline
from repro.core.api import CompressedTensor, Compressor
from repro.core.fusion import FusionBucket, FusionPlan, ScratchPool


#: A unit of fewer elements runs its ranks one after another: below this
#: the handoff to a worker lane costs more than the lane saves
#: (docs/PERFORMANCE.md, "Rank lanes", has the break-even).
LANE_MIN_NUMEL = 65_536


class ReadyError(ValueError):
    """A gradient was declared ready out of turn; the message names it."""


def lane_count() -> int:
    """How many ranks this process may compress at once: its usable
    cores over the threads its BLAS pool may start.  That pool is sized
    by the smallest of :data:`~repro.comm.parallel.THREAD_VARS` (OpenBLAS
    and MKL each read their own variable, then ``OMP_NUM_THREADS``); a
    variable left unset counts as all cores, the libraries' default, so
    an unpinned process gets one lane."""
    # Loaded with repro.comm already; importing them at the top would be
    # a cycle (the parallel backend imports repro.core).
    from repro.comm.parallel import THREAD_VARS
    from repro.comm.shm import usable_cores

    cores = threads = usable_cores()
    for var in THREAD_VARS:
        try:
            pinned = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if pinned > 0:
            threads = min(threads, pinned)
    return max(1, cores // threads)


#: The worker lanes' job queues, started on first use and kept for the
#: process; a forked child starts its own.
_lane_queues: list[queue.SimpleQueue] = []
_lane_start = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_lane_queues.clear)


def _lane_worker(jobs: queue.SimpleQueue) -> None:
    while True:
        job, done = jobs.get()
        job()
        done.release()


def _in_lanes(calls: list[Callable], lanes: int) -> list:
    """Every one of ``calls``, lane k taking calls k, k + lanes, …; lane 0
    is the calling thread.  Results come back in call order.  A lane stops
    at its first error; once every lane has stopped, the error of the
    first call that raised is raised, the one a serial loop raises."""
    n = len(calls)
    lanes = min(lanes, n)
    results: list = [None] * n
    errors: dict[int, BaseException] = {}

    def lane(k: int) -> None:
        for i in range(k, n, lanes):
            try:
                results[i] = calls[i]()
            except BaseException as error:
                errors[i] = error
                return

    with _lane_start:
        while len(_lane_queues) < lanes - 1:
            jobs = queue.SimpleQueue()
            threading.Thread(target=_lane_worker, args=(jobs,),
                             name="exchange-lane", daemon=True).start()
            _lane_queues.append(jobs)
    joins = []
    for k in range(1, lanes):
        done = threading.Lock()
        done.acquire()
        # The worker runs under a copy of the caller's context, so
        # np.errstate and other context variables hold there too.
        job = partial(contextvars.copy_context().run, lane, k)
        _lane_queues[k - 1].put((job, done))
        joins.append(done)
    lane(0)
    for done in joins:
        done.acquire()
    if errors:
        raise errors[min(errors)]
    return results


def _no_scratch() -> None:
    """The buffer of a run that does not pool: the caller allocates, so no
    buffer per rank and tensor outlives the step."""
    return None


def _ready_order(task, grads0: dict[str, np.ndarray]) -> list[str]:
    """Gradient names in the task's ready order, else in reverse
    declaration order, which approximates the backward pass (the last
    layer's gradients materialize first)."""
    order_fn = getattr(task, "gradient_ready_order", None)
    ready = order_fn() if callable(order_fn) else None
    if not ready:
        return list(reversed(list(grads0)))
    names = [name for name in ready if name in grads0]
    seen = set(names)
    return names + [name for name in grads0 if name not in seen]


def _aggregates_compressed(trainer, decoder: Compressor) -> bool:
    """Whether a gather-style unit takes the compressed-domain fast path.

    Requires a non-overlapped run (the overlapped exchange schedules
    plain gathers), a communicator advertising
    ``supports_compressed_aggregation`` (the parameter server and the
    hierarchy do; the resilient wrapper and the worker arena do not, so
    fault injection and worker mode ship plain payloads) and the default
    mean :meth:`Compressor.aggregate`, which the compressed-domain sum
    realizes exactly.  Under ``auto`` only ``exact-linear`` schemes
    qualify, so the fast path cannot change training numerics; ``all``
    extends it to any declared kind (codebook/sketch), trading bounded
    decode error for the single fan-out download.
    """
    if trainer.aggregation == "off" or trainer.overlap:
        return False
    if not getattr(trainer.comm, "supports_compressed_aggregation", False):
        return False
    if type(decoder).aggregate is not Compressor.aggregate:
        return False
    if trainer.aggregation == "all":
        return decoder.aggregation != "none"
    return decoder.aggregation == "exact-linear"


@dataclass(slots=True)
class _Unit:
    """One bucket of the plan, with all a step cannot change about it.
    A buffer source returns the unit's scratch for its role, or ``None``
    where the run does not pool."""

    bucket: FusionBucket
    where: dict  # the label: {"bucket": index} or {"tensor": name}
    collective: dict  # the collective span's attributes
    ready_fraction: float  # of the backward window, under overlap
    pack: list[Callable]  # φ's buffer source, per rank
    transmit: list[Callable]  # ψ's decode buffer source, per rank
    gather: list[Callable]  # a gathered payload's, per cohort position
    reduce: Callable  # the reduced payload's


class Exchange:
    """φ, Q, ψ, communicate, Q⁻¹ and Agg over every unit of one plan.

    Built from the first gradients of a layout by a
    :class:`~repro.core.trainer.DistributedTrainer`, whose ranks,
    communicator, clocks and report it drives.  Like DDP's bucket
    assignment, the plan keeps the gradients' declaration order, or
    ``bucket_order``'s under overlap.  A unit is one tensor unless the run
    fuses (``fusion_mb > 0``) or overlaps, and always one tensor for a
    compressor without a bucket kernel.

    A step is :meth:`start`, :meth:`ready` for every gradient (a unit is
    compressed and its collective issued when its last gradient is ready)
    and :meth:`finish`.  Only the simulated clock depends on ``overlap``.
    Blocking, each charge lands on its span as it accrues.  Overlapped,
    the step's :attr:`timeline` starts a unit's kernel once its last
    gradient is ready inside the backward window and queues its
    collective behind it; the makespan and the split of network time into
    hidden and exposed are recorded after the drain.
    """

    def __init__(self, trainer, grads0: dict[str, np.ndarray]):
        # Weak: the trainer keeps its engine, and a strong reference back
        # would make every dropped trainer, arrays and all, wait for the
        # cyclic collector.
        self.trainer = weakref.proxy(trainer)
        decoder = trainer.compressors[0]
        max_bytes = trainer._fusion_max_bytes
        fused = max_bytes > 0 or trainer.overlap
        order = list(grads0)
        fractions: dict[str, float] = {}
        flags = {"fused": True} if fused else {}
        if trainer.overlap:
            flags["overlap"] = True
            ready_names = _ready_order(trainer.task, grads0)
            if trainer.bucket_order == "ready":
                order = ready_names
            sizes = [np.asarray(grads0[name]).size for name in ready_names]
            total = sum(sizes)
            fractions = {
                name: cumulative / total if total > 0 else 1.0
                for name, cumulative in zip(ready_names, accumulate(sizes))
            }
        self.plan = FusionPlan(
            [(name, np.asarray(grads0[name]).shape) for name in order],
            max_bytes if max_bytes > 0 and decoder.fused_kernel else 1,
        )
        strategy = decoder.communication
        if strategy == "allreduce":
            self.kind, op = "allreduce", {"op": "allreduce"}
        elif strategy not in ("allgather", "broadcast"):
            raise ValueError(f"unknown communication strategy {strategy!r}")
        elif _aggregates_compressed(trainer, decoder):
            self.kind = "aggregated"
            op = {"op": "allgather", "aggregation": "compressed"}
        else:
            self.kind = "allgather"
            op = {"op": "allgather", "aggregation": "legacy"}
        self.mean_agg = type(decoder).aggregate is Compressor.aggregate
        # Scratch is per-rank-owned: rank r's compress-side buffers come
        # from its own pool and the decode side has a separate pool, so no
        # buffer is ever shared across rank boundaries (the invariant the
        # real-parallel backend's process split relies on).
        n = trainer.n_workers
        self.rank_scratch = [ScratchPool(owner=r) for r in range(n)]
        self.aggregate_scratch = agg = ScratchPool(owner="aggregate")
        ranks = self.rank_scratch

        def source(pool: ScratchPool, key: tuple, numel: int) -> Callable:
            return partial(pool.take, key, numel) if fused else _no_scratch

        self.units: list[_Unit] = []
        for bucket in self.plan.buckets:
            i, numel = bucket.index, bucket.numel
            where = {"bucket": i} if fused else {"tensor": bucket.names[0]}
            self.units.append(_Unit(
                bucket, where, {**where, **flags, **op},
                max(fractions.get(name, 1.0) for name in bucket.names),
                [source(pool, ("pack", i), numel) for pool in ranks],
                [source(pool, ("transmit", i), numel) for pool in ranks],
                [source(agg, ("gather", p, i), numel) for p in range(n)],
                source(agg, ("reduce", i), numel),
            ))
        self._index_of = {
            name: bucket.index for bucket in self.plan.buckets
            for name in bucket.names
        }
        self._sizes = [len(bucket) for bucket in self.plan.buckets]
        # The lanes this host gives a step that may use them; one where no
        # unit is wide enough to.
        self._host_lanes = lane_count() if any(
            bucket.numel >= LANE_MIN_NUMEL for bucket in self.plan.buckets
        ) else 1
        self._bucket_count = self._bucket_bytes = None
        if fused:
            self._bucket_count = trainer.metrics.counter(
                "fusion_buckets_total", help="fusion buckets communicated",
            )
            self._bucket_bytes = trainer.metrics.histogram(
                "fusion_bucket_bytes", unit="bytes",
                help="flat float32 size of each communicated fusion bucket",
            )
        self.timeline: SimTimeline | None = None
        self._waiting: dict[str, int] = {}

    def start(self, grads: dict[int, dict[str, np.ndarray]],
              cohort: list[int], sim_compute: float, compute_span,
              iter_span) -> None:
        """Begin a step.  ``grads`` maps each rank this process computed
        to its gradients and ``cohort`` lists the exchanging ranks in
        position order.  Under overlap, ``compute_span`` gets the window
        of ``sim_compute`` (the step's simulated forward+backward time)
        and ``iter_span`` the step's makespan."""
        trainer = self.trainer
        self._grads = grads
        self._own = {cohort.index(rank): i for i, rank in enumerate(grads)}
        self._cohort = len(cohort)
        self._comm = comm = trainer.comm
        self._decoder = trainer.compressors[0]
        self._collective = (
            comm.iallreduce_parts if self.kind == "allreduce"
            else comm.iallgather
        )
        self._lanes = 1
        if (self._host_lanes > 1 and len(grads) > 1
                and not trainer.tracer.enabled and all(
                    getattr(type(trainer.compressors[rank]),
                            "concurrent_ranks", False)
                    and getattr(type(trainer.memories[rank]),
                                "concurrent_ranks", False)
                    for rank in grads
                )):
            self._lanes = self._host_lanes
        self._waiting = dict(self._index_of)
        self._left = list(self._sizes)
        self._pending: list[tuple] = []
        self._comm_before = comm.record.simulated_seconds
        self._bytes_before = comm.record.bytes_sent_per_worker
        self._epoch = epoch = trainer._sim_epoch
        self._iter_span = iter_span
        self.timeline = None
        if trainer.overlap:
            self.timeline = SimTimeline()
            if sim_compute > 0:
                self.timeline.schedule(COMPUTE, sim_compute,
                                       name="forward_backward")
                compute_span.set_sim_window(epoch, epoch + sim_compute)
            backward_fraction = getattr(
                trainer.perf_model, "backward_fraction", 2.0 / 3.0
            )
            self._forward_end = sim_compute * (1.0 - backward_fraction)
            self._backward_seconds = sim_compute - self._forward_end
        self._started = time.perf_counter()

    def ready(self, name: str) -> None:
        """``name``'s gradient is ready: issue its unit if it was the
        unit's last."""
        index = self._waiting.pop(name, None)
        if index is None:
            raise ReadyError(
                f"gradient {name!r} was already ready this step"
                if name in self._index_of
                else f"gradient {name!r} is not in the fusion plan"
            )
        left = self._left
        left[index] -= 1
        if not left[index]:
            self._issue(self.units[index])

    def finish(self) -> dict[str, np.ndarray]:
        """Wait on every unit in issue order, decode, and return the
        aggregate; fold the step's clocks and bytes into the report."""
        if self._waiting:
            raise ReadyError(f"finish() before gradient "
                             f"{next(iter(self._waiting))!r} was ready")
        aggregated: dict[str, np.ndarray] = {}
        for pending in self._pending:
            self._finish_unit(*pending, aggregated)
        trainer, timeline = self.trainer, self.timeline
        report, record = trainer.report, self._comm.record
        report.measured_compression_seconds += (
            time.perf_counter() - self._started
        )
        report.sim_comm_seconds += record.simulated_seconds - self._comm_before
        report.bytes_per_worker += (
            record.bytes_sent_per_worker - self._bytes_before
        )
        if timeline is not None:
            makespan = timeline.makespan
            stats = timeline.overlap_stats(NETWORK)
            report.sim_makespan_seconds += makespan
            report.sim_exposed_comm_seconds += stats.exposed_comm_seconds
            report.sim_hidden_comm_seconds += stats.hidden_comm_seconds
            self._iter_span.set_sim_window(self._epoch, self._epoch + makespan)
            trainer._sim_epoch += makespan
            if trainer.tracer.enabled:
                trainer.metrics.gauge(
                    "train_overlap_fraction",
                    help="fraction of simulated comm hidden behind other "
                         "work",
                ).set(report.overlap_fraction)
        # Hold no gradient or payload between steps.
        self._grads = self._pending = self._iter_span = None
        return aggregated

    def _issue(self, unit: _Unit) -> None:
        """φ, Q and ψ of a unit on every computed rank, its simulated
        kernel time, and the issue half of its collective."""
        trainer, bucket, timeline = self.trainer, unit.bucket, self.timeline
        if self._bucket_count is not None:
            self._bucket_count.inc(1)
            self._bucket_bytes.observe(float(bucket.nbytes))

        def compress(rank: int, grads: dict) -> tuple:
            return trainer._compress_rank(
                rank, grads, bucket, unit.pack[rank](), unit.where,
                scratch=unit.transmit[rank],
            )

        ranks = self._grads.items()
        if self._lanes > 1 and bucket.numel >= LANE_MIN_NUMEL:
            results = _in_lanes(
                [partial(compress, rank, grads) for rank, grads in ranks],
                self._lanes,
            )
        else:
            results = [compress(rank, grads) for rank, grads in ranks]
        wire, decoded, spans = map(list, zip(*results))
        ready_at = 0.0
        if timeline is not None:
            # Ready when the unit's *last* gradient materializes: backward
            # window fractions by cumulative parameter volume in
            # gradient-ready order.
            ready_at = (
                self._forward_end
                + self._backward_seconds * unit.ready_fraction
            )
        if trainer.perf_model is not None:
            sim_kernel = trainer.perf_model.compression_seconds(
                self._decoder.name, bucket.numel
            )
            trainer.report.sim_compression_seconds += sim_kernel
            if timeline is None:
                # Once per unit: ranks compress concurrently.
                spans[0].add_sim(sim_kernel)
            elif sim_kernel > 0:
                kernel = timeline.schedule(
                    KERNEL, sim_kernel, not_before=ready_at,
                    name="compress", bucket=bucket.index,
                )
                ready_at = kernel.end
                spans[0].set_sim_window(
                    self._epoch + kernel.start, self._epoch + kernel.end
                )
        kind, record = self.kind, self._comm.record
        with trainer.tracer.span("collective", **unit.collective) as span:
            sim_before = record.simulated_seconds
            sent_before = record.bytes_sent_per_worker
            if kind == "aggregated":
                result = self._comm.allreduce_compressed(
                    list(wire), self._decoder
                )
                if not isinstance(result, CompressedTensor):
                    # The server relayed the payloads, the fewer bytes:
                    # they finish as a gather.
                    kind = "allgather"
                    span.set(aggregation="relay")
                handle = AsyncHandle(result)
            else:
                # All payload parts travel as one message: a single
                # per-message latency per unit, not one per part.
                handle = self._collective(
                    [c.payload for c in wire],
                    ready_at=ready_at, timeline=timeline,
                )
            span.set(
                bytes_per_worker=record.bytes_sent_per_worker - sent_before
            )
            if timeline is None:
                span.add_sim(record.simulated_seconds - sim_before)
        self._pending.append((unit, kind, handle, span, wire, decoded))

    def _finish_unit(self, unit: _Unit, kind: str, handle: AsyncHandle,
                     span, wire: list[CompressedTensor], decoded: list,
                     aggregated: dict[str, np.ndarray]) -> None:
        """Finish half of a unit: wait, decode its result and aggregate it.

        Payloads decode with ``decompress_fused`` into aggregate-side
        scratch and average as one flat bucket; a payload whose ψ already
        decoded it is not decoded again.
        """
        # What was charged or scheduled only at the wait (the arena's
        # allgather learns the peers' sizes there) lands on the span the
        # collective was issued under.
        record = self._comm.record
        sim_before = record.simulated_seconds
        sent_before = record.bytes_sent_per_worker
        result = handle.wait()
        if record.simulated_seconds != sim_before:
            span.set(
                bytes_per_worker=record.bytes_sent_per_worker - sent_before
            )
        if handle.event is None:
            span.add_sim(record.simulated_seconds - sim_before)
        else:
            span.set_sim_window(
                self._epoch + handle.event.start,
                self._epoch + handle.event.end,
            )
        decoder, tracer = self._decoder, self.trainer.tracer
        bucket, where, ctx = unit.bucket, unit.where, wire[0].ctx
        if kind == "allgather":
            with tracer.span("decompress", **where, ranks=len(result)):
                flats = []
                for position, payload in enumerate(result):
                    mine = self._own.get(position)
                    flat = None if mine is None else decoded[mine]
                    if flat is None:
                        compressed = (
                            wire[mine] if mine is not None else
                            CompressedTensor(payload=list(payload), ctx=ctx)
                        )
                        flat = decoder.decompress_fused(
                            compressed, out=unit.gather[position]()
                        )
                    flats.append(flat)
            with tracer.span("aggregate", **where):
                if self.mean_agg:
                    # Default Agg is an elementwise mean: one bucket-level
                    # pass over the ranks, unstacked, then per-tensor views.
                    aggregated.update(bucket.unpack(decoder.aggregate(flats)))
                    return
                per_tensor = zip(*(
                    bucket.unpack(flat).values() for flat in flats
                ))
                for name, tensors in zip(bucket.names, per_tensor):
                    aggregated[name] = decoder.aggregate(list(tensors))
            return
        with tracer.span("decompress", **where):
            if kind == "aggregated":
                # The communicator already summed the cohort's payloads
                # server side: one decode whatever the rank count, and the
                # mean falls out of the summand-count division.
                flat = np.ravel(decoder.decompress_aggregated(result))
            else:
                flat = decoder.decompress_fused(
                    CompressedTensor(payload=result, ctx=ctx),
                    out=unit.reduce(),
                )
        with tracer.span("aggregate", **where):
            aggregated.update(bucket.unpack(flat / self._cohort))
