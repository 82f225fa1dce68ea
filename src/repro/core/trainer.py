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
import time
from itertools import accumulate
from typing import Any, Callable, Iterable, Protocol

import numpy as np

from repro.comm.collectives import AsyncHandle, Communicator
from repro.comm.timeline import COMPUTE, KERNEL, NETWORK, SimTimeline
from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedConcatCtx,
    concat_compressed,
)
from repro.core.checkpoint import (
    Checkpoint,
    WorkerCheckpoint,
    prune_worker_checkpoints,
)
from repro.core.fusion import FusionBucket, FusionPlan, ScratchPool
from repro.core.memory import Memory, make_memory
from repro.core.rng import spawn_worker_seeds
from repro.core.wire import framing_header_bytes
from repro.faults import (
    CollectiveTimeoutError,
    FaultInjector,
    FaultPlan,
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
    def throughput_samples_per_second(self) -> float:
        """Training throughput under the simulated clock."""
        total = self.sim_total_seconds
        if total <= 0:
            return float("inf")
        return self.samples_processed / total

    @property
    def best_quality(self) -> float:
        """Best model quality witnessed during training (paper §V-A)."""
        if not self.epoch_quality:
            raise ValueError("no quality evaluations were recorded")
        return max(self.epoch_quality)


class _DecodeOnce:
    """A worker's own compressor, as its memory sees it.

    ψ decodes the rank's payload to form the residual, and Agg would
    decode the same payload again once it is gathered; each decode ψ
    asks for is kept until Agg takes it.  Lives for one exchange.
    """

    def __init__(self, inner: Compressor):
        self.inner = inner
        self._kept: dict[int, np.ndarray] = {}

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        decoded = self._kept[id(compressed)] = self.inner.decompress(
            compressed
        )
        return decoded

    def decoded(
        self, compressed: CompressedTensor, decoder: Compressor
    ) -> np.ndarray:
        """ψ's decode of ``compressed`` if it made one, else ``decoder``'s."""
        kept = self._kept.pop(id(compressed), None)
        return decoder.decompress(compressed) if kept is None else kept


class DistributedTrainer:
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
        Tensor-fusion buffer budget in MiB.  ``0`` (the default)
        reproduces the per-tensor exchange exactly; any positive value
        packs gradients into flat buckets of at most this size and runs
        **one collective per bucket**, compressing whole buckets at once
        when the compressor ships a fused kernel
        (:attr:`Compressor.fused_kernel`) and every rank's memory
        supports fused updates.  See ``docs/PERFORMANCE.md``.
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
        hot loop untouched.
    metrics:
        Registry the report/communicator totals are counted into.
        Defaults to the tracer's registry (traced) or a private one.
    faults:
        A :class:`~repro.faults.FaultPlan` (or its spec string — see
        ``docs/ROBUSTNESS.md``) of deterministic faults to inject.
        ``None`` (the default) leaves the communicator unwrapped and
        the loop bitwise-identical to a fault-free build.
    recovery:
        Crash handling: ``"degrade"`` (default) re-normalizes the
        aggregation over the survivors until the worker rejoins;
        ``"restart"`` rolls back to the latest EF-aware checkpoint and
        charges the outage to ``sim_recovery_seconds`` (forces
        ``checkpoint_every=1`` when unset, making recovery lossless).
    checkpoint_every:
        Capture an EF-aware :class:`Checkpoint` every N completed
        iterations (0 disables periodic capture).
    straggler_policy:
        ``"wait"`` (default) stretches the iteration to its slowest
        rank; ``"drop"`` excludes ranks slowed by at least
        :data:`STRAGGLER_THRESHOLD`× from the cohort; ``"backup"``
        additionally buffers an excluded rank's gradient and folds it
        back in the next time the rank is excluded, while no staler
        than :data:`STALENESS_BOUND` iterations.
    rank:
        ``None`` (the default) runs the driver-style simulator: this
        process computes *every* rank.  An integer puts the trainer in
        **worker mode** for the real-parallel backend: this process
        computes only rank ``rank``'s forward/backward, compensate and
        compress, and the communicator (a
        :class:`repro.comm.parallel.ParallelWorkerCommunicator`) moves
        only this rank's contribution — peers run in their own
        processes.  Per-rank state (compressor clones, memories, seeds,
        fusion plans) is still built for all ``n_workers`` ranks so
        layouts and random streams match the sequential run exactly;
        only rank ``rank``'s state advances.  In worker mode faults are
        *executed for real* (see :mod:`repro.faults.real`): crash
        SIGKILLs this process, stall wedges it, straggler injects a
        real sleep — only those kinds are accepted, and membership /
        recovery are the parent's job (see ``run_parallel``), not this
        process's.
    checkpoint_dir:
        Worker-mode only: directory per-rank
        :class:`~repro.core.checkpoint.WorkerCheckpoint` snapshots are
        persisted to every ``checkpoint_every`` iterations (the last
        two generations are kept).  Required when worker-mode
        checkpointing is on.
    active_ranks:
        Worker-mode only: the survivor cohort this incarnation runs
        with (must contain ``rank``).  ``None`` means every rank
        participates.  Aggregation normalizes over this cohort and
        inactive ranks' batches are skipped, mirroring the sequential
        simulator's degraded cohort.
    consumed_faults:
        Worker-mode only: fault-plan clause indices an earlier
        incarnation already executed (the parent's recovery history),
        so a respawned worker does not re-crash on a handled clause.
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
        metrics: MetricsRegistry | None = None,
        fusion_mb: float = 0.0,
        overlap: bool = False,
        bucket_order: str = "ready",
        faults: FaultPlan | str | None = None,
        recovery: str = "degrade",
        checkpoint_every: int = 0,
        straggler_policy: str = "wait",
        rank: int | None = None,
        aggregation: str = "auto",
        checkpoint_dir: str | None = None,
        active_ranks: list[int] | None = None,
        consumed_faults: Iterable[int] = (),
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if aggregation not in ("auto", "off", "all"):
            raise ValueError(
                f"aggregation must be 'auto', 'off' or 'all', "
                f"got {aggregation!r}"
            )
        if rank is not None and not 0 <= rank < n_workers:
            raise ValueError(
                f"rank must be in [0, {n_workers}), got {rank}"
            )
        if rank is not None and checkpoint_every and checkpoint_dir is None:
            raise ValueError(
                "worker mode (rank=...) persists per-rank checkpoints to "
                "disk; checkpoint_every > 0 needs a checkpoint_dir"
            )
        if rank is None and checkpoint_dir is not None:
            raise ValueError(
                "checkpoint_dir is worker-mode only; the sequential "
                "simulator checkpoints in memory (save_checkpoint persists)"
            )
        if rank is None and active_ranks is not None:
            raise ValueError(
                "active_ranks is worker-mode only; the sequential "
                "simulator derives the cohort from the fault plan"
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
        self.rank = int(rank) if rank is not None else None
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
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if metrics is not None:
            self.metrics = metrics
        elif self.tracer.enabled and isinstance(
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
        self.fusion_mb = float(fusion_mb)
        self._fusion_max_bytes = int(self.fusion_mb * (1 << 20))
        self._fusion_plan: FusionPlan | None = None
        # Scratch is per-rank-owned: rank r's compress-side buffers come
        # from its own pool and the decode/aggregate side has a separate
        # pool, so no buffer is ever shared across rank boundaries (the
        # invariant the real-parallel backend's process split relies on).
        self._rank_scratch = [
            ScratchPool(owner=r) for r in range(self.n_workers)
        ]
        self._agg_scratch = ScratchPool(owner="aggregate")
        self.overlap = bool(overlap)
        self.bucket_order = bucket_order
        self._ready_fraction: dict[str, float] = {}
        self._sim_epoch = 0.0  # cumulative makespan: span sim offsets
        self.report = TrainingReport(metrics=self.metrics)
        if recovery not in ("degrade", "restart"):
            raise ValueError(
                f"recovery must be 'degrade' or 'restart', got {recovery!r}"
            )
        if straggler_policy not in ("wait", "drop", "backup"):
            raise ValueError(
                f"straggler_policy must be 'wait', 'drop' or 'backup', "
                f"got {straggler_policy!r}"
            )
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.recovery = recovery
        self.straggler_policy = straggler_policy
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_dir = checkpoint_dir
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults, seed=seed)
        self.injector: FaultInjector | None = None
        self._real_faults = None
        if faults is not None:
            if self.rank is not None:
                from repro.faults.real import (
                    RealFaultExecutor,
                    validate_worker_plan,
                )

                validate_worker_plan(faults)
                if straggler_policy == "backup":
                    raise ValueError(
                        "the backup straggler policy buffers peer "
                        "gradients in-process and is not supported in "
                        "worker mode; use 'wait' or 'drop'"
                    )
                self.injector = FaultInjector(
                    faults, self.n_workers, registry=self.metrics
                )
                self.injector.preconsume(consumed_faults)
                self._real_faults = RealFaultExecutor(self.rank)
            else:
                from repro.comm.resilience import ResilientCommunicator

                if any(e.kind == "stall" for e in faults.events):
                    raise ValueError(
                        "'stall' is a real-parallel-only fault kind (a "
                        "wedged OS process); the sequential simulator "
                        "models slow ranks with 'straggler' instead"
                    )
                self.injector = FaultInjector(
                    faults, self.n_workers, registry=self.metrics
                )
                self.comm = ResilientCommunicator(self.comm, seed=seed)
            if (
                self.recovery == "restart"
                and self.checkpoint_every == 0
                and (self.rank is None or self.checkpoint_dir is not None)
            ):
                self.checkpoint_every = 1
        self.aggregation = aggregation
        self._all_ranks = list(range(self.n_workers))
        if active_ranks is not None:
            cohort = sorted(set(int(r) for r in active_ranks))
            if self.rank not in cohort:
                raise ValueError(
                    f"rank {self.rank} is not in active_ranks {cohort}"
                )
            if cohort[0] < 0 or cohort[-1] >= self.n_workers:
                raise ValueError(
                    f"active_ranks {cohort} out of range for "
                    f"{self.n_workers} workers"
                )
            self._active_ranks = cohort
        else:
            self._active_ranks = self._all_ranks
        self._n_active = len(self._active_ranks)
        self._worker_cohort = frozenset(self._active_ranks)
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
                if self.rank is not None and rank not in self._worker_cohort:
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
                    self._n_active if self.rank is not None
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
            grads_per_rank = self._collect_exchange_grads(
                grads_by_rank, faults
            )
            aggregated = self._exchange(
                grads_per_rank, sim_compute, compute_span, iter_span
            )
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
        if faults.crashed and self.recovery == "restart":
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
        if self.straggler_policy != "wait" and faults.compute_slowdown:
            excluded = [
                rank for rank in active
                if faults.compute_slowdown.get(rank, 1.0)
                >= STRAGGLER_THRESHOLD
            ]
            if len(excluded) == len(active):
                excluded = []  # never exclude the whole cohort
        self._excluded_stragglers = excluded
        self._active_ranks = [r for r in active if r not in excluded]
        self._n_active = len(self._active_ranks)
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
    ) -> list[dict[str, np.ndarray]]:
        """Gradient dicts for the exchanging cohort, ``_active_ranks``-aligned.

        The fault-free path is a plain list view.  Under the backup
        straggler policy an excluded rank's buffered gradient from a
        previous iteration re-enters the cohort while it is no staler
        than :data:`STALENESS_BOUND`, and the rank's freshly computed
        gradient is buffered for a later iteration.
        """
        if faults is None:
            return list(grads_by_rank.values())
        participating = list(self._active_ranks)
        grads = [grads_by_rank[rank] for rank in participating]
        if self.straggler_policy == "backup" and self._excluded_stragglers:
            iteration = self.report.iterations
            for rank in self._excluded_stragglers:
                buffered = self._stale_grads.pop(rank, None)
                if buffered is not None:
                    stamp, stale = buffered
                    if iteration - stamp <= STALENESS_BOUND:
                        participating.append(rank)
                        grads.append(stale)
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
            if participating != self._active_ranks:
                self._active_ranks = participating
                self._n_active = len(participating)
                self.comm.begin_iteration(faults, participating)
        return grads

    def _restart_recover(
        self, iteration: int, faults: IterationFaults
    ) -> None:
        """Price the outage and roll back to the latest checkpoint."""
        consumed = self.injector.consume_crashes(iteration)
        if not consumed:
            return
        completed = self.report.iterations
        mean_iter = (
            self.report.sim_total_seconds / completed if completed else 0.0
        )
        # The cohort stalls until the replacement is up: the rejoin gap
        # at the mean iteration rate, plus shipping the checkpoint.
        gap = max(
            (event.rejoin - iteration) if event.rejoin is not None else 1
            for event in consumed
        )
        overhead = gap * mean_iter
        checkpoint = self._last_checkpoint
        if checkpoint is not None:
            overhead += (
                checkpoint.nbytes
                / self.comm.network.effective_bytes_per_second
            )
            checkpoint.restore(self)
        self.report.sim_recovery_seconds += overhead
        self.metrics.counter(
            "recoveries_total",
            help="crash recoveries performed (restart policy)",
        ).inc(len(consumed))

    def _maybe_checkpoint(self) -> None:
        if not (
            self.checkpoint_every > 0
            and self.report.iterations % self.checkpoint_every == 0
        ):
            return
        if self.rank is not None:
            WorkerCheckpoint.capture(self).save(self.checkpoint_dir)
            prune_worker_checkpoints(
                self.checkpoint_dir, self.rank, keep=2
            )
        else:
            self._last_checkpoint = Checkpoint.capture(self)
        self.metrics.counter(
            "checkpoints_total", help="EF-aware checkpoints captured",
        ).inc(1)

    def save_checkpoint(self, path: str | None = None) -> Checkpoint:
        """Capture (and optionally persist) an EF-aware checkpoint now."""
        checkpoint = Checkpoint.capture(self)
        self._last_checkpoint = checkpoint
        if path is not None:
            checkpoint.save(path)
        return checkpoint

    def restore_checkpoint(self, checkpoint: Checkpoint | str) -> None:
        """Restore a checkpoint (or a path to one) into this trainer."""
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

    # -- the exchange --------------------------------------------------

    def _exchange(
        self,
        grads_per_rank: list[dict[str, np.ndarray]],
        sim_compute: float,
        compute_span,
        iter_span,
    ) -> dict[str, np.ndarray]:
        """φ, Q, ψ, communicate, Q⁻¹ and Agg over every unit of the plan.

        A unit is one bucket of :meth:`_plan`: a single tensor unless
        the run fuses (``fusion_mb > 0``) or overlaps.  Every unit is
        compressed and its collective issued before any is finished, so
        real ranks meet about once per step (the sequential communicator
        completes a collective at issue; nothing moves on the simulator).

        A unit is compressed one of two ways, fixed for the run: by the
        compressor's whole-bucket kernel where the run fuses or overlaps
        and the compressor and every memory support it, else tensor by
        tensor, with a bucket's payloads concatenated into one message.

        Only the simulated clock depends on ``overlap``.  Blocking, each
        charge lands on its span as it accrues.  Overlapped, a
        per-iteration :class:`SimTimeline` starts a unit's kernel once
        its last gradient is ready inside the backward window and queues
        its collective behind it; the makespan and the split of network
        time into hidden and exposed are recorded after the drain.
        """
        plan = self._plan(grads_per_rank[0])
        fused = self._fusion_max_bytes > 0 or self.overlap
        use_kernel = (
            fused
            and self.compressors[0].fused_kernel
            and all(memory.supports_fused_update for memory in self.memories)
        )
        own = (
            _DecodeOnce(self.compressors[self.rank])
            if self.rank is not None else None
        )
        record = self.comm.record
        comm_before = record.simulated_seconds
        bytes_before = record.bytes_sent_per_worker
        epoch = self._sim_epoch
        flags = {"fused": True} if fused else {}
        timeline = None
        if self.overlap:
            flags["overlap"] = True
            timeline = SimTimeline()
            if sim_compute > 0:
                timeline.schedule(COMPUTE, sim_compute,
                                  name="forward_backward")
                compute_span.set_sim_window(epoch, epoch + sim_compute)
            backward_fraction = getattr(
                self.perf_model, "backward_fraction", 2.0 / 3.0
            )
            forward_end = sim_compute * (1.0 - backward_fraction)
            backward_seconds = sim_compute - forward_end
        started = time.perf_counter()
        pending = []
        for bucket in plan.buckets:
            where = (
                {"bucket": bucket.index} if fused
                else {"tensor": bucket.segments[0].name}
            )
            if fused:
                self.metrics.counter(
                    "fusion_buckets_total",
                    help="fusion buckets communicated",
                ).inc(1)
                self.metrics.histogram(
                    "fusion_bucket_bytes", unit="bytes",
                    help="flat float32 size of each communicated fusion "
                         "bucket",
                ).observe(float(bucket.nbytes))
            wire, items, first_span = self._compress_unit(
                bucket, grads_per_rank, use_kernel, where, own
            )
            ready_at = 0.0
            if timeline is not None:
                # Ready when the unit's *last* gradient materializes:
                # backward-window fractions by cumulative parameter
                # volume in gradient-ready order.
                ready_at = forward_end + backward_seconds * max(
                    self._ready_fraction.get(seg.name, 1.0)
                    for seg in bucket.segments
                )
            if self.perf_model is not None:
                sim_kernel = self._bucket_sim_kernel(bucket, wire, use_kernel)
                self.report.sim_compression_seconds += sim_kernel
                if timeline is None:
                    # Once per unit: ranks compress concurrently.
                    first_span.add_sim(sim_kernel)
                elif sim_kernel > 0:
                    kernel = timeline.schedule(
                        KERNEL, sim_kernel, not_before=ready_at,
                        name="compress", bucket=bucket.index,
                    )
                    ready_at = kernel.end
                    first_span.set_sim_window(
                        epoch + kernel.start, epoch + kernel.end
                    )
            pending.append((bucket, where, wire, items, *self._issue(
                wire, ready_at, timeline, **where, **flags
            )))
        aggregated: dict[str, np.ndarray] = {}
        for unit in pending:
            self._finish_bucket(*unit, own, aggregated)
        self.report.measured_compression_seconds += (
            time.perf_counter() - started
        )
        self.report.sim_comm_seconds += (
            record.simulated_seconds - comm_before
        )
        self.report.bytes_per_worker += (
            record.bytes_sent_per_worker - bytes_before
        )
        if timeline is not None:
            makespan = timeline.makespan
            stats = timeline.overlap_stats(NETWORK)
            self.report.sim_makespan_seconds += makespan
            self.report.sim_exposed_comm_seconds += stats.exposed_comm_seconds
            self.report.sim_hidden_comm_seconds += stats.hidden_comm_seconds
            iter_span.set_sim_window(epoch, epoch + makespan)
            self._sim_epoch += makespan
            if self.tracer.enabled:
                self.metrics.gauge(
                    "train_overlap_fraction",
                    help="fraction of simulated comm hidden behind other "
                         "work",
                ).set(self.report.overlap_fraction)
        return aggregated

    def _plan(self, grads0: dict[str, np.ndarray]) -> FusionPlan:
        """The bucket plan every exchange walks, cached as ``_fusion_plan``.

        Like DDP's bucket assignment, it is fixed from the first
        iteration's gradients and rebuilt only when their layout
        changes.  Tensors keep declaration order, or ``bucket_order``'s
        under overlap, which also fixes each tensor's ready fraction.
        ``fusion_mb=0`` maps to one bucket per tensor (``max_bytes=1``:
        any tensor overflows the budget alone).
        """
        plan = self._fusion_plan
        if plan is not None and plan.matches(grads0):
            return plan
        order = list(grads0)
        if self.overlap:
            ready_names = self._gradient_ready_names(grads0)
            if self.bucket_order == "ready":
                order = ready_names
            sizes = [np.asarray(grads0[name]).size for name in ready_names]
            total = sum(sizes)
            self._ready_fraction = {
                name: cumulative / total if total > 0 else 1.0
                for name, cumulative in zip(ready_names, accumulate(sizes))
            }
        plan = FusionPlan(
            [(name, np.asarray(grads0[name]).shape) for name in order],
            self._fusion_max_bytes or 1,
        )
        self._fusion_plan = plan
        for pool in self._rank_scratch:
            pool.clear()
        self._agg_scratch.clear()
        return plan

    def _gradient_ready_names(
        self, grads0: dict[str, np.ndarray]
    ) -> list[str]:
        """Gradient names in ready order, falling back to reverse decl."""
        order_fn = getattr(self.task, "gradient_ready_order", None)
        ready = order_fn() if callable(order_fn) else None
        if ready:
            names = [name for name in ready if name in grads0]
            seen = set(names)
            names += [name for name in grads0 if name not in seen]
            return names
        # Without ready events, reverse declaration order approximates
        # the backward pass (last layer's gradients materialize first).
        return list(reversed(list(grads0)))

    def _compress_unit(
        self,
        bucket: FusionBucket,
        grads_per_rank: list[dict[str, np.ndarray]],
        use_kernel: bool,
        where: dict,
        own: "_DecodeOnce | None",
    ) -> tuple[list[CompressedTensor], list | None, Any]:
        """φ, Q and ψ of one unit on every rank this process computes.

        Returns what each rank hands the collective, each rank's
        per-tensor payloads (``None`` on the kernel path) and the first
        rank's ``compress`` span.  A lone tensor outside a fused run
        hands over its own payload; any other per-tensor unit the
        concatenation of its tensors' payloads.
        """
        tracer = self.tracer
        wire: list[CompressedTensor] = []
        items: list[list[CompressedTensor]] = []
        first_span = None
        # The sequential simulator computes every active rank; a worker
        # process exactly one, its own.
        pairs = (
            [(0, self.rank)] if self.rank is not None
            else enumerate(self._active_ranks)
        )
        for position, rank in pairs:
            grads = grads_per_rank[position]
            memory = self.memories[rank]
            compressor = self.compressors[rank]
            if use_kernel:
                buffer = self._rank_scratch[rank].take(
                    ("pack", bucket.index), bucket.numel
                )
                with tracer.span("memory_compensate", rank=rank) as phi_span:
                    memory.compensate_fused(grads, bucket, buffer)
                with tracer.span("compress", rank=rank) as span:
                    packed = compressor.compress_fused(buffer, bucket)
                self._fused_memory_update(rank, bucket, buffer, packed)
            else:
                names = bucket.names
                compensated, tensors = [], []
                with tracer.span("memory_compensate", rank=rank) as phi_span:
                    for name in names:
                        tensor = memory.compensate(grads[name], name)
                        compensated.append(tensor)
                with tracer.span("compress", rank=rank) as span:
                    for tensor, name in zip(compensated, names):
                        tensors.append(compressor.compress(tensor, name))
                decoder = compressor if own is None else own
                for tensor, name, sent in zip(compensated, names, tensors):
                    memory.update(tensor, name, decoder, sent)
                packed = (
                    tensors[0] if "tensor" in where
                    else concat_compressed(bucket, tensors)
                )
                items.append(tensors)
            if tracer.enabled:
                phi_span.set(**where)
                self._record_compression(span, bucket, packed, where, grads)
            if first_span is None:
                first_span = span
            wire.append(packed)
        return wire, None if use_kernel else items, first_span

    def _bucket_sim_kernel(
        self,
        bucket: FusionBucket,
        compressed: list[CompressedTensor],
        use_kernel: bool,
    ) -> float:
        """Simulated compress+decompress kernel time of one unit.

        Priced from the first payload's ctx alone: a kernel falls back to
        the generic concatenation (an empty tensor in the bucket,
        ``index_encoding``, ``entropy_coding``) on layout or parameters
        only, so every rank falls back with it.
        """
        decoder = self.compressors[0]
        if use_kernel and not isinstance(compressed[0].ctx, FusedConcatCtx):
            # One batched kernel launch covers the whole bucket.
            return self.perf_model.compression_seconds(
                decoder.name, bucket.numel
            )
        return sum(
            self.perf_model.compression_seconds(decoder.name, seg.size)
            for seg in bucket.segments
        )

    def _fused_memory_update(
        self,
        rank: int,
        bucket: FusionBucket,
        buffer: np.ndarray,
        packed: CompressedTensor,
    ) -> None:
        """Run ψ over the whole flat bucket (fused-kernel path only)."""
        memory = self.memories[rank]
        compressor = self.compressors[rank]
        transmitted = None
        if memory.fused_transmitted == "values":
            transmitted = compressor.decompress_fused(
                packed,
                out=self._rank_scratch[rank].take(
                    ("transmit", bucket.index), bucket.numel
                ),
            )
        elif memory.fused_transmitted == "indices":
            transmitted = self._transmitted_positions(compressor, packed)
        memory.update_fused(buffer, bucket, transmitted)

    @staticmethod
    def _transmitted_positions(
        compressor: Compressor, packed: CompressedTensor
    ) -> np.ndarray | None:
        """Flat bucket positions a fused payload carries (``None`` when the
        compressor exposes no ``transmitted_indices``).

        A kernel payload answers for the whole bucket; where the kernel
        fell back to the generic concatenation, each tensor's payload
        answers for its own slice, as :meth:`Compressor.decompress_fused`
        decodes it.
        """
        indices_of = getattr(compressor, "transmitted_indices", None)
        if indices_of is None:
            return None
        ctx = packed.ctx
        if not isinstance(ctx, FusedConcatCtx):
            return indices_of(packed)
        positions = []
        start = 0
        for seg, n_parts, seg_ctx in zip(
            ctx.bucket.segments, ctx.splits, ctx.ctxs
        ):
            sub = CompressedTensor(
                payload=packed.payload[start:start + n_parts], ctx=seg_ctx
            )
            positions.append(
                np.asarray(indices_of(sub), dtype=np.int64) + seg.offset
            )
            start += n_parts
        return np.concatenate(positions)

    def _aggregation_active(self, decoder: Compressor) -> bool:
        """Whether the compressed-domain aggregation fast path applies.

        Requires a sequential, non-overlapped run (worker mode ships
        payloads between processes, not decoded results; the overlapped
        exchange schedules plain gathers), a communicator advertising
        ``supports_compressed_aggregation`` (the resilient wrapper does
        not, so fault injection auto-disables the path), a gather-style
        strategy, and the default mean :meth:`Compressor.aggregate`
        (the compressed-domain sum realizes exactly that mean).  Under
        ``auto`` only ``exact-linear`` schemes qualify — the fast path
        then cannot change training numerics; ``all`` extends it to any
        declared kind (codebook/sketch), trading bounded decode error
        for the single-fan-out download.
        """
        if self.aggregation == "off" or self.rank is not None or self.overlap:
            return False
        if not getattr(self.comm, "supports_compressed_aggregation", False):
            return False
        if decoder.communication not in ("allgather", "broadcast"):
            return False
        if type(decoder).aggregate is not Compressor.aggregate:
            return False
        if self.aggregation == "all":
            return decoder.aggregation != "none"
        return decoder.aggregation == "exact-linear"

    def _issue(
        self,
        compressed: list[CompressedTensor],
        ready_at: float = 0.0,
        timeline: SimTimeline | None = None,
        **where,
    ) -> tuple[str, AsyncHandle, Any]:
        """Issue half of one unit's collective.

        Returns the kind of finish the result needs (``"allreduce"``,
        ``"allgather"`` or ``"aggregated"``), the handle and the
        ``collective`` span, which :meth:`_wait` completes.
        """
        decoder = self.compressors[0]
        strategy = decoder.communication
        if strategy == "allreduce":
            kind, attrs = "allreduce", {"op": "allreduce"}
        elif strategy not in ("allgather", "broadcast"):
            raise ValueError(f"unknown communication strategy {strategy!r}")
        elif self._aggregation_active(decoder):
            kind = "aggregated"
            attrs = {"op": "allgather", "aggregation": "compressed"}
        else:
            kind = "allgather"
            attrs = {"op": "allgather", "aggregation": "legacy"}
        record = self.comm.record
        with self.tracer.span("collective", **where, **attrs) as span:
            sim_before = record.simulated_seconds
            sent_before = record.bytes_sent_per_worker
            if kind == "aggregated":
                handle = AsyncHandle(
                    self.comm.allreduce_compressed(list(compressed), decoder)
                )
            else:
                # All payload parts travel as one message: a single
                # per-message latency per unit, not one per part.
                start = (
                    self.comm.iallreduce_parts if kind == "allreduce"
                    else self.comm.iallgather
                )
                handle = start(
                    [c.payload for c in compressed],
                    ready_at=ready_at, timeline=timeline,
                )
            span.set(
                bytes_per_worker=record.bytes_sent_per_worker - sent_before
            )
            if timeline is None:
                span.add_sim(record.simulated_seconds - sim_before)
        return kind, handle, span

    def _wait(self, handle: AsyncHandle, span):
        """The collective's result; what was charged or scheduled only
        now (the arena's allgather learns the peers' sizes at the wait)
        lands on the span it was issued under."""
        record = self.comm.record
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
                self._sim_epoch + handle.event.start,
                self._sim_epoch + handle.event.end,
            )
        return result

    def _finish_bucket(
        self,
        bucket: FusionBucket,
        where: dict,
        wire: list[CompressedTensor],
        items: list | None,
        kind: str,
        handle: AsyncHandle,
        span,
        own: "_DecodeOnce | None",
        aggregated: dict[str, np.ndarray],
    ) -> None:
        """Finish half of a unit: decode its result and aggregate it.

        Kernel payloads decode with ``decompress_fused`` into
        aggregate-side scratch and average as one flat bucket; per-tensor
        payloads decode tensor by tensor, where worker mode reuses ψ's
        decode of the rank's own payload (``own``).
        """
        result = self._wait(handle, span)
        decoder = self.compressors[0]
        tracer = self.tracer
        if kind == "allgather":
            ranks = wire if items is None else items
            if self.rank is not None:
                # Worker mode: peers' payloads come from the gather and
                # decode under this rank's ctx, which is receiver-known
                # metadata by the §IV-B honesty contract.  This rank's
                # slot keeps what it compressed: what ψ may have decoded.
                slot = self._active_ranks.index(self.rank)
                ranks = [
                    ranks[0] if position == slot else _like(ranks[0], payload)
                    for position, payload in enumerate(result)
                ]
            with tracer.span("decompress", **where, ranks=len(ranks)):
                if items is None:
                    flats = [
                        decoder.decompress_fused(c, out=self._agg_scratch.take(
                            ("gather", rank, bucket.index), bucket.numel
                        ))
                        for rank, c in enumerate(ranks)
                    ]
                else:
                    decode = decoder.decompress if own is None else (
                        lambda c: own.decoded(c, decoder)
                    )
                    # Tensor by tensor, each over the cohort's ranks.
                    per_tensor = [
                        list(map(decode, sent)) for sent in zip(*ranks)
                    ]
            with tracer.span("aggregate", **where):
                if items is None:
                    if type(decoder).aggregate is Compressor.aggregate:
                        # Default Agg is an elementwise mean: one
                        # bucket-level pass, then per-tensor views.
                        aggregated.update(
                            bucket.unpack(np.mean(np.stack(flats), axis=0))
                        )
                        return
                    per_tensor = [list(tensors) for tensors in zip(*(
                        bucket.unpack(flat).values() for flat in flats
                    ))]
                for seg, tensors in zip(bucket.segments, per_tensor):
                    aggregated[seg.name] = decoder.aggregate(tensors)
            return
        with tracer.span("decompress", **where):
            if kind == "aggregated":
                # The communicator already summed the cohort's payloads
                # server side: one decode whatever the rank count, and
                # the mean falls out of the summand-count division.
                flat = np.ravel(decoder.decompress_aggregated(result))
            elif items is None:
                flat = decoder.decompress_fused(
                    CompressedTensor(payload=result, ctx=wire[0].ctx),
                    out=self._agg_scratch.take(("reduce", bucket.index),
                                               bucket.numel),
                )
            else:
                flat = None
                summed = [
                    decoder.decompress(c) for c in _like(items[0], result)
                ]
        with tracer.span("aggregate", **where):
            if flat is not None:
                aggregated.update(bucket.unpack(flat / self._n_active))
            else:
                for seg, tensor in zip(bucket.segments, summed):
                    aggregated[seg.name] = tensor / self._n_active

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


def _like(mine, payload):
    """A peer's gathered ``payload`` in the form of this rank's ``mine``.

    One :class:`CompressedTensor` under ``mine``'s ctx or, for a unit
    compressed tensor by tensor, one per tensor, split at ``mine``'s part
    counts.  The last tensor takes every remaining part, since a lone
    tensor's part count may depend on its data (sketchml's does).
    """
    if isinstance(mine, CompressedTensor):
        return CompressedTensor(payload=list(payload), ctx=mine.ctx)
    tensors = []
    start = 0
    for item in mine[:-1]:
        end = start + len(item.payload)
        tensors.append(
            CompressedTensor(payload=list(payload[start:end]), ctx=item.ctx)
        )
        start = end
    tensors.append(
        CompressedTensor(payload=list(payload[start:]), ctx=mine[-1].ctx)
    )
    return tensors
