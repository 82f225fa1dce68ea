"""Algorithm 1: the distributed training loop with compressed communication.

The trainer owns ``n`` simulated workers.  Model replicas are kept
implicitly: because every worker starts from the same parameters and
applies the same aggregated update, a single parameter set is exact —
what differs per worker is the data shard, the compressor state and the
error-feedback memory, all of which are held per rank.

Per iteration (paper's Algorithm 1):

1. every rank computes a stochastic gradient on its own mini-batch;
2. g̃ᵏᵢ = Q(φ(mᵏᵢ, gᵏᵢ)) and mᵏ⁺¹ᵢ = ψ(·)  (lines 5–6);
3. Allreduce path: payload parts are summed on the wire and the
   decompressed sum is divided by n (lines 8–9); Allgather path: payloads
   are gathered, decompressed per rank and combined with Agg (lines
   11–13);
4. the optimizer applies the aggregated gradient (line 15).

Observability: every phase is wrapped in a tracer span (``iteration`` →
``compute`` / ``memory_compensate`` / ``compress`` / ``collective`` /
``decompress`` / ``aggregate`` / ``apply_update``) and every total the
:class:`TrainingReport` exposes is counted in the trainer's
:class:`~repro.telemetry.metrics.MetricsRegistry`.  The default tracer
is the no-op :data:`~repro.telemetry.tracing.NULL_TRACER`, which keeps
the untraced hot loop allocation-free.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Callable, Iterable, Protocol

import numpy as np

from repro.comm.collectives import Communicator
from repro.core.api import CompressedTensor, Compressor, update_from_payload
from repro.core.checkpoint import (
    Checkpoint,
    outage_seconds,
    prune_worker_checkpoints,
    worker_checkpoint_path,
)
from repro.core.config import Resilience, WorkerMode
from repro.core.exchange import Exchange
from repro.core.fusion import FusionBucket
from repro.core.memory import Memory, make_memory
from repro.core.rng import spawn_worker_seeds
from repro.core.wire import framing_header_bytes
from repro.faults import (
    CollectiveTimeoutError,
    FaultInjector,
    IterationFaults,
    WorkerCrashError,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import NULL_TRACER

# repro.comm.resilience imports repro.core.wire (frame checksums), which
# initializes this package — so the trainer pulls it in lazily, inside
# the fault-wiring branch of __init__, to keep imports acyclic.

#: Slowdown factor at which the ``drop`` and ``backup`` straggler
#: policies exclude a rank from the cohort.
STRAGGLER_THRESHOLD = 2.0

#: Iterations a buffered ``backup`` gradient may lag and still be applied.
STALENESS_BOUND = 1


class DistributedTask(Protocol):
    """What the trainer needs from a model + optimizer pair."""

    def forward_backward(
        self, inputs: Any, targets: Any
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Run one mini-batch; return (loss, per-tensor gradients)."""

    def apply_update(self, gradients: dict[str, np.ndarray]) -> None:
        """Apply the aggregated gradient through the optimizer."""


class PerfModel(Protocol):
    """Optional analytical performance model (see repro.bench.perf)."""

    def compute_seconds(self, n_samples: int) -> float:
        """Simulated forward+backward time for a mini-batch."""

    def compression_seconds(self, compressor_name: str, n_elements: int) -> float:
        """Simulated compress+decompress kernel time for one tensor."""


class _MetricField:
    """A report scalar whose storage is a registry counter.

    Reads and writes go straight to the counter, so the report and any
    exporter (Prometheus dump, JSONL snapshot) can never disagree —
    totals are counted in exactly one place.
    """

    def __init__(self, metric: str, unit: str, doc: str, cast=float):
        self.metric = metric
        self.unit = unit
        self.cast = cast
        self.__doc__ = doc

    def __set_name__(self, owner, name):
        self.attr = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self.cast(obj.metrics.counter(self.metric, unit=self.unit).value)

    def __set__(self, obj, value):
        obj.metrics.counter(self.metric, unit=self.unit).set(float(value))


class TrainingReport:
    """Everything the paper's evaluation plots are derived from.

    Scalar totals are registry-backed (see :class:`_MetricField`); the
    constructor keeps the original dataclass-style signature so reports
    can still be built standalone with literal values.
    """

    _FIELDS = (
        "losses", "epoch_losses", "epoch_quality", "epoch_sim_seconds",
        "iterations", "samples_processed", "sim_comm_seconds",
        "sim_compute_seconds", "sim_compression_seconds",
        "measured_compression_seconds", "bytes_per_worker",
        "sim_makespan_seconds", "sim_exposed_comm_seconds",
        "sim_hidden_comm_seconds", "sim_recovery_seconds",
    )

    iterations = _MetricField(
        "train_iterations_total", "iterations",
        "Completed training iterations.", cast=int,
    )
    samples_processed = _MetricField(
        "train_samples_total", "samples",
        "Samples consumed across all workers.", cast=int,
    )
    sim_comm_seconds = _MetricField(
        "train_sim_comm_seconds_total", "seconds",
        "Simulated communication time.",
    )
    sim_compute_seconds = _MetricField(
        "train_sim_compute_seconds_total", "seconds",
        "Simulated forward+backward time.",
    )
    sim_compression_seconds = _MetricField(
        "train_sim_compression_seconds_total", "seconds",
        "Simulated compression-kernel time.",
    )
    measured_compression_seconds = _MetricField(
        "train_measured_compression_seconds_total", "seconds",
        "Measured wall-clock spent in the compression+exchange loop.",
    )
    bytes_per_worker = _MetricField(
        "train_bytes_per_worker_total", "bytes",
        "Per-worker bytes placed on the wire during training.",
    )
    sim_makespan_seconds = _MetricField(
        "train_sim_makespan_seconds_total", "seconds",
        "Event-timeline makespan of overlapped iterations (0 when the "
        "sequential exchange is used).",
    )
    sim_exposed_comm_seconds = _MetricField(
        "train_sim_exposed_comm_seconds_total", "seconds",
        "Simulated communication left exposed on the critical path.",
    )
    sim_hidden_comm_seconds = _MetricField(
        "train_sim_hidden_comm_seconds_total", "seconds",
        "Simulated communication hidden behind compute/kernel events.",
    )
    sim_recovery_seconds = _MetricField(
        "train_sim_recovery_seconds_total", "seconds",
        "Simulated time lost to crash recovery (outage stall + "
        "checkpoint transfer).",
    )

    def __init__(
        self,
        losses: list[float] | None = None,
        epoch_losses: list[float] | None = None,
        epoch_quality: list[float] | None = None,
        epoch_sim_seconds: list[float] | None = None,
        iterations: int = 0,
        samples_processed: int = 0,
        sim_comm_seconds: float = 0.0,
        sim_compute_seconds: float = 0.0,
        sim_compression_seconds: float = 0.0,
        measured_compression_seconds: float = 0.0,
        bytes_per_worker: float = 0.0,
        sim_makespan_seconds: float = 0.0,
        sim_exposed_comm_seconds: float = 0.0,
        sim_hidden_comm_seconds: float = 0.0,
        sim_recovery_seconds: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.losses = list(losses) if losses is not None else []
        self.epoch_losses = list(epoch_losses) if epoch_losses is not None else []
        self.epoch_quality = (
            list(epoch_quality) if epoch_quality is not None else []
        )
        self.epoch_sim_seconds = (
            list(epoch_sim_seconds) if epoch_sim_seconds is not None else []
        )
        self.iterations = iterations
        self.samples_processed = samples_processed
        self.sim_comm_seconds = sim_comm_seconds
        self.sim_compute_seconds = sim_compute_seconds
        self.sim_compression_seconds = sim_compression_seconds
        self.measured_compression_seconds = measured_compression_seconds
        self.bytes_per_worker = bytes_per_worker
        self.sim_makespan_seconds = sim_makespan_seconds
        self.sim_exposed_comm_seconds = sim_exposed_comm_seconds
        self.sim_hidden_comm_seconds = sim_hidden_comm_seconds
        self.sim_recovery_seconds = sim_recovery_seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"TrainingReport({inner})"

    @property
    def sim_total_seconds(self) -> float:
        """Simulated wall-clock for the run.

        Sequential runs sum the three phase totals (the phases really do
        serialize).  Overlapped runs report the accumulated event-graph
        makespan instead — phases ran concurrently, so the sum would
        overstate iteration time.
        """
        makespan = self.sim_makespan_seconds
        if makespan > 0:
            return makespan + self.sim_recovery_seconds
        return (
            self.sim_comm_seconds
            + self.sim_compute_seconds
            + self.sim_compression_seconds
            + self.sim_recovery_seconds
        )

    @property
    def overlap_fraction(self) -> float:
        """Fraction of simulated communication hidden behind other work.

        Defensively clamped to ``[0, 1]`` and 0.0 on a non-finite or
        empty split, so a fault-aborted iteration (whose partial
        accounting may leave one side of the split empty) can never
        surface NaN or out-of-range fractions.
        """
        hidden = self.sim_hidden_comm_seconds
        total = hidden + self.sim_exposed_comm_seconds
        if total <= 0 or not math.isfinite(total):
            return 0.0
        return min(1.0, max(0.0, hidden / total))

    @property
    def bytes_per_worker_per_iteration(self) -> float:
        """Mean per-iteration bytes each worker transmitted."""
        if self.iterations == 0:
            return 0.0
        return self.bytes_per_worker / self.iterations

    @property
    def best_quality(self) -> float:
        """Best model quality witnessed during training (paper §V-A)."""
        if not self.epoch_quality:
            raise ValueError("no quality evaluations were recorded")
        return max(self.epoch_quality)


class RankPipeline:
    """Per-rank compressors and memories, and the φ → Q → ψ step on them.

    A trainer sets ``comm`` and ``n_workers``, then calls
    :meth:`_build_ranks`.
    """

    def _build_ranks(self, compressor: Compressor, memory: str | None,
                     memory_params: dict | None, seed: int, tracer) -> None:
        """Resolve the tracer and registry (the tracer's when traced, else
        a private one); clone the compressor and build a memory by name
        for every rank."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled and isinstance(
            self.tracer.metrics, MetricsRegistry
        ):
            self.metrics = self.tracer.metrics
        else:
            self.metrics = MetricsRegistry()
        # One registry per run: pull the communicator's accounting in so
        # bytes/seconds are counted (and reset) in exactly one place.
        self.comm.record.bind(self.metrics)
        # SeedSequence.spawn, not seed+rank arithmetic: spawned children
        # are independent and collision-free across runs (see
        # repro.core.rng), and a parallel worker process re-derives
        # exactly its own rank's stream from (seed, n_workers).
        worker_seeds = spawn_worker_seeds(seed, self.n_workers)
        self.compressors = [
            compressor.clone(seed=worker_seeds[r])
            for r in range(self.n_workers)
        ]
        memory_kind = memory if memory is not None else compressor.default_memory
        params = dict(memory_params or {})
        self.memories: list[Memory] = [
            make_memory(memory_kind, **params) for _ in range(self.n_workers)
        ]
        if self.tracer.enabled:
            for mem in self.memories:
                mem.attach_telemetry(self.metrics)

    def _compress_rank(
        self,
        rank: int,
        grads: dict[str, np.ndarray],
        bucket: FusionBucket,
        buffer: np.ndarray | None,
        where: dict,
        scratch: Callable[[], np.ndarray | None] | None = None,
    ) -> tuple[CompressedTensor, np.ndarray | None, Any]:
        """φ, Q and ψ of one unit on one rank (lines 5–6), φ into
        ``buffer`` (``None``: a fresh one).  Returns the payload, ψ's
        decode of it (see :func:`~repro.core.api.update_from_payload`)
        and the ``compress`` span."""
        tracer = self.tracer
        if buffer is None:
            buffer = np.empty(bucket.numel, dtype=np.float32)
        memory, compressor = self.memories[rank], self.compressors[rank]
        with tracer.span("memory_compensate", rank=rank) as phi_span:
            buffer = memory.compensate_fused(grads, bucket, buffer)
        with tracer.span("compress", rank=rank) as span:
            packed = compressor.compress_fused(buffer, bucket)
        decoded = update_from_payload(
            memory, buffer, bucket, compressor, packed, scratch=scratch
        )
        if tracer.enabled:
            phi_span.set(**where)
            self._record_compression(span, bucket, packed, where, grads)
        return packed, decoded, span

    def _record_compression(
        self,
        span,
        bucket: FusionBucket,
        packed: CompressedTensor,
        where: dict,
        grads: dict[str, np.ndarray],
    ) -> None:
        """Per-(rank, unit) detail metrics — traced path only."""
        nbytes_in = bucket.nbytes
        nbytes_out = packed.nbytes
        span.set(
            **where,
            nbytes_in=nbytes_in,
            nbytes_out=nbytes_out,
            ratio=nbytes_out / nbytes_in if nbytes_in else 0.0,
        )
        metrics = self.metrics
        metrics.histogram(
            "compress_kernel_seconds",
            {"compressor": self.compressors[0].name},
            unit="seconds",
            help="measured compress wall time per (rank, tensor) call",
        ).observe(span.dur)
        metrics.counter(
            "compress_raw_bytes_total", unit="bytes",
            help="uncompressed gradient traffic",
        ).inc(nbytes_in)
        metrics.counter(
            "compress_wire_bytes_total", unit="bytes",
            help="compressed payload bytes produced",
        ).inc(nbytes_out)
        metrics.counter(
            "wire_framing_overhead_bytes_total", unit="bytes",
            help="wire-format header bytes on top of raw payloads",
        ).inc(framing_header_bytes(packed.payload))
        name = where.get("tensor")
        if name is not None:
            metrics.histogram(
                "grad_l2", {"tensor": name}, unit="l2",
                help="per-layer gradient L2 norm (pre-compensation)",
            ).observe(float(np.linalg.norm(grads[name])))


class DistributedTrainer(RankPipeline):
    """Runs Algorithm 1 over a :class:`DistributedTask`.

    Parameters
    ----------
    task:
        Model + optimizer adapter (see :class:`DistributedTask`).
    compressor:
        A prototype compressor; it is cloned per rank with distinct seeds
        so stochastic methods draw independent randomness per worker.
    n_workers:
        Number of simulated ranks.
    memory:
        ``None`` uses the compressor's Table I default; otherwise a memory
        kind name (``"none"`` / ``"residual"`` / ``"dgc"``).
    memory_params:
        Keyword arguments for the memory constructor (e.g. β, γ of Eq. 4).
    communicator:
        Simulated collective backend; defaults to 8-rank-style OpenMPI/TCP
        over a 10 Gbps link.
    perf_model:
        Optional analytical clock for compute and kernel time.
    check_finite:
        When True, raise immediately if any worker produces a non-finite
        gradient or the aggregated gradient is non-finite — fault
        isolation for debugging diverging runs (off by default; the
        check costs one pass over every tensor).
    fusion_mb:
        Tensor-fusion buffer budget in MiB.  ``0`` (the default) runs
        one collective per tensor; any positive value packs gradients
        into flat buckets of at most this size and runs **one collective
        per bucket**.  Either way a unit is compressed by
        :meth:`Compressor.compress_fused` — a tensor is a one-segment
        bucket.  A compressor without a bucket kernel (``fused_kernel =
        False``) always runs per tensor.  See ``docs/PERFORMANCE.md``.
    overlap:
        When True, run the DDP-style overlapped exchange: tensors are
        bucketed in first-iteration gradient-ready order, each bucket's
        compress + nonblocking collective is fired as soon as its last
        gradient is ready (on a per-iteration
        :class:`~repro.comm.timeline.SimTimeline`), and all handles are
        drained before ``apply_update``.  Overlap reorders *time*, not
        math: aggregated gradients are bitwise identical to the
        sequential path for deterministic compressors (see
        ``bucket_order`` for stochastic ones).  ``fusion_mb`` still sets
        the bucket budget; with ``fusion_mb=0`` every tensor gets its
        own bucket.
    bucket_order:
        ``"ready"`` (default) buckets tensors in gradient-ready order —
        the overlap-optimal layout.  Stochastic compressors consume
        their random stream in tensor-compression order, so reordering
        changes their draws; ``"declaration"`` keeps declaration-order
        buckets (less overlap, but bitwise-equal random streams with
        the sequential path).
    tracer:
        A :class:`~repro.telemetry.tracing.Tracer` to record phase spans
        and detailed metrics into; the default no-op tracer keeps the
        hot loop untouched.  Report and communicator totals are counted
        in the tracer's registry when traced, else in a private one.
    aggregation:
        Compressed-domain aggregation policy (``"auto"``, ``"off"`` or
        ``"all"``; see :mod:`repro.core.exchange`).
    resilience:
        A :class:`~repro.core.config.Resilience`: faults to inject and
        the recovery, checkpoint and straggler policies (stragglers are
        excluded at :data:`STRAGGLER_THRESHOLD`×, a ``backup`` gradient
        may lag :data:`STALENESS_BOUND` iterations).  The default keeps
        the loop bitwise-identical to a fault-free build.
    worker:
        ``None`` runs the simulator: this process computes *every* rank.
        A :class:`~repro.core.config.WorkerMode` computes one rank of a
        real-parallel run; the communicator (a
        :class:`repro.comm.parallel.ParallelWorkerCommunicator`) moves
        only its contribution.  Per-rank state is still built for all
        ranks, so layouts and random streams match the simulator's.
        Faults are executed for real (:mod:`repro.faults.real`); which
        plans a worker accepts, membership and recovery are
        ``run_parallel``'s job, and the worker only saves its rank's
        :class:`~repro.core.checkpoint.Checkpoint` every
        ``checkpoint_every`` iterations (keeping two generations).
    """

    def __init__(
        self,
        task: DistributedTask,
        compressor: Compressor,
        n_workers: int = 4,
        memory: str | None = None,
        memory_params: dict | None = None,
        communicator: Communicator | None = None,
        perf_model: PerfModel | None = None,
        check_finite: bool = False,
        seed: int = 0,
        tracer=None,
        fusion_mb: float = 0.0,
        overlap: bool = False,
        bucket_order: str = "ready",
        aggregation: str = "auto",
        resilience: Resilience = Resilience(),
        worker: WorkerMode | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if aggregation not in ("auto", "off", "all"):
            raise ValueError(
                f"aggregation must be 'auto', 'off' or 'all', "
                f"got {aggregation!r}"
            )
        if (
            worker is not None
            and resilience.checkpoint_every
            and worker.checkpoint_dir is None
        ):
            raise ValueError(
                "worker mode persists per-rank checkpoints to disk; "
                "checkpoint_every > 0 needs a checkpoint_dir"
            )
        if fusion_mb < 0:
            raise ValueError(f"fusion_mb must be >= 0, got {fusion_mb}")
        if bucket_order not in ("ready", "declaration"):
            raise ValueError(
                f"bucket_order must be 'ready' or 'declaration', "
                f"got {bucket_order!r}"
            )
        self.task = task
        self.n_workers = int(n_workers)
        self.worker = worker
        self.rank = worker.rank if worker is not None else None
        self.comm = (
            communicator
            if communicator is not None
            else Communicator(n_workers=self.n_workers)
        )
        if self.comm.n_workers != self.n_workers:
            raise ValueError(
                f"communicator has {self.comm.n_workers} ranks, trainer has "
                f"{self.n_workers}"
            )
        self.perf_model = perf_model
        self.check_finite = bool(check_finite)
        self._build_ranks(compressor, memory, memory_params, seed, tracer)
        self.fusion_mb = float(fusion_mb)
        self._fusion_max_bytes = int(self.fusion_mb * (1 << 20))
        if self._fusion_max_bytes > 1 and not compressor.fused_kernel:
            warnings.warn(
                f"compressor {compressor.name!r} ships no fused kernel: "
                f"fusion_mb={self.fusion_mb:g} is ignored and every "
                f"tensor is its own unit"
            )
        #: The :class:`~repro.core.exchange.Exchange` of the gradients'
        #: layout: built at the first step, rebuilt when the layout changes.
        self.exchange: Exchange | None = None
        self.overlap = bool(overlap)
        self.bucket_order = bucket_order
        self._sim_epoch = 0.0  # cumulative makespan: span sim offsets
        self.report = TrainingReport(metrics=self.metrics)
        self.resilience = resilience
        self._all_ranks = list(range(self.n_workers))
        self._active_ranks = (
            worker.cohort(self.n_workers) if worker is not None
            else self._all_ranks
        )
        faults = resilience.plan(seed)
        self.injector: FaultInjector | None = None
        self._real_faults = None
        if faults is not None:
            self.injector = FaultInjector(
                faults, self.n_workers, registry=self.metrics
            )
            if worker is not None:
                from repro.faults.real import RealFaultExecutor

                self.injector.preconsume(worker.consumed_faults)
                self._real_faults = RealFaultExecutor(self.rank)
            else:
                from repro.comm.resilience import ResilientCommunicator

                self.comm = ResilientCommunicator(self.comm, seed=seed)
        self.aggregation = aggregation
        self._last_checkpoint: Checkpoint | None = None
        self._stale_grads: dict[int, tuple[int, dict]] = {}
        self._excluded_stragglers: list[int] = []

    # ------------------------------------------------------------------

    def step(self, batches: list[tuple[Any, Any]]) -> float:
        """One synchronous iteration over per-rank mini-batches."""
        if len(batches) != self.n_workers:
            raise ValueError(
                f"need {self.n_workers} per-rank batches, got {len(batches)}"
            )
        if self.rank is not None:
            # Beat *before* fault execution: a rank that crashes at
            # iteration k first tells the watchdog it reached k, which
            # is what recovery uses to consume the crash clause.
            self.comm.heartbeat(self.report.iterations)
        faults = self._begin_iteration_faults()
        if faults is None:
            return self._run_iteration(batches, None)
        record = self.comm.record
        comm_before = record.simulated_seconds
        bytes_before = record.bytes_sent_per_worker
        try:
            return self._run_iteration(batches, faults)
        except CollectiveTimeoutError:
            self._absorb_aborted_iteration(record, comm_before, bytes_before)
            raise

    def _run_iteration(
        self,
        batches: list[tuple[Any, Any]],
        faults: IterationFaults | None,
    ) -> float:
        """Algorithm 1's body, under an (optional) iteration fault set."""
        tracer = self.tracer
        crashed = faults.crashed if faults is not None else frozenset()
        losses = []
        grads_by_rank: dict[int, dict[str, np.ndarray]] = {}
        n_samples = 0
        with tracer.span("iteration",
                         iteration=self.report.iterations) as iter_span:
            if tracer.enabled and faults is not None and faults.any:
                iter_span.set(
                    faulted=True,
                    crashed_ranks=len(faults.crashed),
                    straggler_ranks=len(faults.compute_slowdown),
                    degraded_link=faults.degraded,
                )
            compute_span = None
            for rank, (inputs, targets) in enumerate(batches):
                if rank in crashed:
                    continue  # a down worker computes nothing
                if self.rank is not None and rank not in self._active_ranks:
                    # Parallel degrade: this rank died in an earlier
                    # incarnation and was never replaced.
                    continue
                if self.rank is not None and rank != self.rank:
                    # Worker mode: peers compute in their own processes;
                    # this process only accounts their sample counts (the
                    # cohort totals must match the sequential run).
                    n_samples += _batch_size(inputs)
                    continue
                with tracer.span("compute", rank=rank) as span:
                    loss, grads = self.task.forward_backward(inputs, targets)
                if compute_span is None:
                    compute_span = span
                if self.check_finite:
                    for name, grad in grads.items():
                        if not np.all(np.isfinite(grad)):
                            raise FloatingPointError(
                                f"non-finite gradient for {name!r} on rank {rank}"
                            )
                losses.append(loss)
                grads_by_rank[rank] = grads
                n_samples += _batch_size(inputs)
            loss_gather = None
            if self.rank is not None:
                # Control-plane gather so every process reports the same
                # cohort-mean loss the sequential simulator computes;
                # posted now and collected after the gradient exchange,
                # so it costs the ranks no rendezvous of its own.
                loss_gather = self.comm.iexchange_objects(losses[0])
            sim_compute = 0.0
            if self.perf_model is not None:
                computing = (
                    len(self._active_ranks) if self.rank is not None
                    else max(1, len(grads_by_rank))
                )
                sim_compute = self.perf_model.compute_seconds(
                    n_samples // computing
                )  # ranks compute in parallel: charge one rank's batch
                if faults is not None:
                    # A synchronous iteration finishes with its slowest
                    # computing rank; under the "wait" policy stragglers
                    # stay in the cohort and stretch it.
                    sim_compute *= faults.slowdown_over(self._active_ranks)
            exchanged = self._collect_exchange_grads(grads_by_rank, faults)
            grads0 = next(iter(exchanged.values()))
            exchange = self.exchange
            if exchange is None or not exchange.plan.matches(grads0):
                exchange = self.exchange = Exchange(self, grads0)
            exchange.start(exchanged, self._active_ranks, sim_compute,
                           compute_span, iter_span)
            ready = exchange.ready
            for name in exchange.plan.names:
                ready(name)
            aggregated = exchange.finish()
            if loss_gather is not None:
                losses = loss_gather.wait()
            if self.check_finite:
                for name, grad in aggregated.items():
                    if not np.all(np.isfinite(grad)):
                        raise FloatingPointError(
                            f"non-finite aggregated gradient for {name!r}"
                        )
            with tracer.span("apply_update"):
                self.task.apply_update(aggregated)

        mean_loss = float(np.mean(losses))
        self.report.losses.append(mean_loss)
        self.report.iterations += 1
        self.report.samples_processed += n_samples
        if self.perf_model is not None:
            self.report.sim_compute_seconds += sim_compute
            if not self.overlap:
                # Simulated time is charged once per parallel phase, on
                # the first surviving rank's span (the modeled cluster
                # runs ranks concurrently).  The overlapped exchange
                # already placed the compute window on the span.
                compute_span.add_sim(sim_compute)
        self._maybe_checkpoint()
        return mean_loss

    # -- fault handling ------------------------------------------------

    def _begin_iteration_faults(self) -> IterationFaults | None:
        """Resolve this iteration's faults and pick the active cohort."""
        if self.injector is None:
            return None
        iteration = self.report.iterations
        if self.rank is not None:
            # Worker mode: the cohort is fixed for this incarnation
            # (membership changes are the parent watchdog's job) and
            # faults targeting this rank happen for real — SIGKILL,
            # wedge, injected sleep.  Returning None keeps the exchange
            # on the fault-free path: a doomed iteration is aborted and
            # replayed from checkpoint, never half-accounted.
            faults = self.injector.begin_iteration(iteration)
            if faults.any:
                self.metrics.counter(
                    "degraded_iterations_total",
                    help="iterations that ran with any fault active",
                ).inc(1)
            self._real_faults.execute(faults)
            return None
        faults = self.injector.begin_iteration(iteration)
        if faults.crashed and self.resilience.recovery == "restart":
            self._restart_recover(iteration, faults)
            faults = self.injector.refresh(iteration)
        # A crashed rank computes nothing while down, so it rejoins with
        # exactly the error-feedback memory it crashed with; only a
        # buffered backup gradient is dropped.
        for rank in faults.crashed | faults.rejoined:
            self._stale_grads.pop(rank, None)
        active = [r for r in self._all_ranks if r not in faults.crashed]
        if not active:
            raise WorkerCrashError(
                f"no surviving workers at iteration {iteration}"
            )
        excluded: list[int] = []
        policy = self.resilience.straggler_policy
        if policy != "wait" and faults.compute_slowdown:
            excluded = [
                rank for rank in active
                if faults.compute_slowdown.get(rank, 1.0)
                >= STRAGGLER_THRESHOLD
            ]
            if len(excluded) == len(active):
                excluded = []  # never exclude the whole cohort
        self._excluded_stragglers = excluded
        self._active_ranks = [r for r in active if r not in excluded]
        if faults.any:
            self.metrics.counter(
                "degraded_iterations_total",
                help="iterations that ran with any fault active",
            ).inc(1)
        self.comm.begin_iteration(faults, self._active_ranks)
        return faults

    def _collect_exchange_grads(
        self,
        grads_by_rank: dict[int, dict[str, np.ndarray]],
        faults: IterationFaults | None,
    ) -> dict[int, dict[str, np.ndarray]]:
        """The gradients this process exchanges, by rank in
        ``_active_ranks`` order.

        The fault-free path is ``grads_by_rank`` itself.  Under the backup
        straggler policy an excluded rank's buffered gradient from a
        previous iteration re-enters the cohort while it is no staler
        than :data:`STALENESS_BOUND`, and the rank's freshly computed
        gradient is buffered for a later iteration.
        """
        if faults is None:
            return grads_by_rank
        exchanged = {rank: grads_by_rank[rank] for rank in self._active_ranks}
        if (
            self.resilience.straggler_policy == "backup"
            and self._excluded_stragglers
        ):
            iteration = self.report.iterations
            for rank in self._excluded_stragglers:
                buffered = self._stale_grads.pop(rank, None)
                if buffered is not None:
                    stamp, stale = buffered
                    if iteration - stamp <= STALENESS_BOUND:
                        exchanged[rank] = stale
                        self.metrics.counter(
                            "stale_gradients_applied_total",
                            help="backup-worker gradients applied within "
                                 "the staleness bound",
                        ).inc(1)
                    else:
                        self.metrics.counter(
                            "stale_gradients_dropped_total",
                            help="backup-worker gradients discarded as "
                                 "too stale",
                        ).inc(1)
                if rank in grads_by_rank:
                    self._stale_grads[rank] = (iteration, grads_by_rank[rank])
            if len(exchanged) != len(self._active_ranks):
                self._active_ranks = list(exchanged)
                self.comm.begin_iteration(faults, self._active_ranks)
        return exchanged

    def _restart_recover(
        self, iteration: int, faults: IterationFaults
    ) -> None:
        """Price the outage and roll back to the latest checkpoint."""
        consumed = self.injector.consume_crashes(iteration)
        if not consumed:
            return
        completed = self.report.iterations
        # The cohort stalls until the replacement is up: the rejoin gap
        # at the mean iteration rate, plus shipping the checkpoint.
        gap = max(
            (event.rejoin - iteration) if event.rejoin is not None else 1
            for event in consumed
        )
        checkpoint = self._last_checkpoint
        self.report.sim_recovery_seconds += outage_seconds(
            gap,
            self.report.sim_total_seconds / completed if completed else 0.0,
            checkpoint.nbytes if checkpoint is not None else 0,
            self.comm.network.effective_bytes_per_second,
        )
        if checkpoint is not None:
            checkpoint.restore(self)
        self.metrics.counter(
            "recoveries_total",
            help="crash recoveries performed (restart policy)",
        ).inc(len(consumed))

    def _maybe_checkpoint(self) -> None:
        every = self.resilience.checkpoint_every
        if not (every > 0 and self.report.iterations % every == 0):
            return
        checkpoint = Checkpoint.capture(self)
        if self.worker is not None:
            directory = self.worker.checkpoint_dir
            checkpoint.save(worker_checkpoint_path(
                directory, self.rank, checkpoint.iteration
            ))
            prune_worker_checkpoints(directory, self.rank, keep=2)
        else:
            self._last_checkpoint = checkpoint
        self.metrics.counter(
            "checkpoints_total", help="EF-aware checkpoints captured",
        ).inc(1)

    def save_checkpoint(self, path: str | None = None) -> Checkpoint:
        """Capture (and optionally save to ``path``) a checkpoint now."""
        checkpoint = Checkpoint.capture(self)
        self._last_checkpoint = checkpoint
        if path is not None:
            checkpoint.save(path)
        return checkpoint

    def restore_checkpoint(self, checkpoint: Checkpoint | str) -> None:
        """Restore a checkpoint (or a path to one) into this trainer.

        Training state is restored in place; the report and simulated
        clock run on.
        """
        if isinstance(checkpoint, str):
            checkpoint = Checkpoint.load(checkpoint)
        checkpoint.restore(self)
        self._last_checkpoint = checkpoint

    def _absorb_aborted_iteration(
        self, record, comm_before: float, bytes_before: float
    ) -> None:
        """Fold an aborted iteration's partial accounting into the report.

        The exchange adds its own comm delta only on success, so
        absorbing here never double counts; the clamps keep an aborted
        iteration from ever leaving negative or non-finite totals (the
        overlap-fraction regression tests pin this down).
        """
        comm_delta = record.simulated_seconds - comm_before
        bytes_delta = record.bytes_sent_per_worker - bytes_before
        if math.isfinite(comm_delta) and comm_delta > 0:
            self.report.sim_comm_seconds += comm_delta
        if math.isfinite(bytes_delta) and bytes_delta > 0:
            self.report.bytes_per_worker += bytes_delta
        self.metrics.counter(
            "aborted_iterations_total",
            help="iterations aborted by exhausted retry budgets",
        ).inc(1)

    # ------------------------------------------------------------------

    def train(
        self,
        loader: Iterable[list[tuple[Any, Any]]],
        epochs: int = 1,
        eval_fn: Callable[[], float] | None = None,
        start_iteration: int = 0,
    ) -> TrainingReport:
        """Run ``epochs`` passes over a sharded loader.

        ``loader`` yields, per iteration, a list of ``n_workers``
        mini-batches (one per rank).  ``eval_fn`` is called after every
        epoch and its value recorded as the epoch's model quality.

        ``start_iteration`` resumes a restored run: the first
        ``start_iteration`` loader yields are consumed without
        training (the deterministic loader replays the same batches,
        so skipping re-aligns the data stream with the restored
        state), fully restored epochs keep the bookkeeping already in
        the report, and a partially restored epoch's mean rebuilds
        from the report's per-iteration losses.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if start_iteration < 0:
            raise ValueError(
                f"start_iteration must be >= 0, got {start_iteration}"
            )
        if start_iteration and self.report.iterations != start_iteration:
            raise ValueError(
                f"start_iteration={start_iteration} requires a trainer "
                f"restored to that point (report says "
                f"{self.report.iterations} completed iterations)"
            )
        skip = start_iteration
        seen = 0
        for _ in range(epochs):
            epoch_start = seen
            epoch_losses = []
            yielded = 0
            for batches in loader:
                yielded += 1
                seen += 1
                if seen <= skip:
                    continue  # restored from checkpoint; already trained
                epoch_losses.append(self.step(batches))
            if yielded == 0:
                raise ValueError("loader yielded no iterations")
            if seen <= skip:
                continue  # epoch fully restored: bookkeeping is on record
            if epoch_start < skip:
                # Partial epoch: the restored prefix's losses live in
                # the report; rebuild the epoch mean over all of them.
                epoch_losses = (
                    list(self.report.losses[epoch_start:skip]) + epoch_losses
                )
            self.report.epoch_losses.append(float(np.mean(epoch_losses)))
            if eval_fn is not None:
                self.report.epoch_quality.append(float(eval_fn()))
            self.report.epoch_sim_seconds.append(self.report.sim_total_seconds)
        return self.report


def _batch_size(inputs: Any) -> int:
    """Best-effort mini-batch size of an input batch."""
    if hasattr(inputs, "shape") and getattr(inputs, "shape"):
        return int(np.asarray(inputs).shape[0])
    try:
        return len(inputs)
    except TypeError:
        return 1
