"""Training runner shared by the CLI, the experiments and the harnesses.

:func:`run_cell` trains one :class:`~repro.core.config.Cell` of the
paper's evaluation grid on its backend and returns the run's report,
whose ``best_quality`` is the best witnessed model quality (the paper's
§V-A protocol).  :func:`build_trainer` is the one way a cell becomes a
trainer, in this process or in each spawned rank.
"""

from __future__ import annotations

import time

from repro.bench.suite import BenchmarkSpec, get_benchmark
from repro.core.config import Cell, WorkerMode, sanitizes
from repro.core.registry import create
from repro.core.trainer import DistributedTrainer


def build_trainer(
    cell: Cell | BenchmarkSpec,
    compressor: str | None = None,
    *,
    tracer=None,
    communicator=None,
    worker: WorkerMode | None = None,
    n_workers: int = 4,
    seed: int = 0,
    overlap: bool = False,
    fusion_mb: float = 0.0,
):
    """Build one cell's ``(trainer, run)`` pair.

    This is the single construction path for sequential runs *and* for
    each rank of the real-parallel backend: a worker process passes its
    :class:`~repro.comm.parallel.ParallelWorkerCommunicator` plus its
    :class:`~repro.core.config.WorkerMode` and gets a trainer whose
    model, optimizer, compressors and per-rank RNG streams are built
    bit-identically to the sequential simulator's — which is what makes
    the sequential-vs-parallel agreement check meaningful.

    ``tracer`` records the run's spans and metrics.  A
    :class:`~repro.bench.suite.BenchmarkSpec` in place of the cell,
    with ``compressor`` and the keywords after ``worker``, is the short
    form of a simulator cell.
    """
    if isinstance(cell, BenchmarkSpec):
        cell = Cell(cell.key, compressor, workers=n_workers, seed=seed,
                    overlap=overlap, fusion_mb=fusion_mb)
    spec = get_benchmark(cell.benchmark)
    if communicator is None and cell.topology == "ps":
        from repro.comm import ParameterServerCommunicator

        communicator = ParameterServerCommunicator(n_workers=cell.workers)
    elif communicator is None and cell.topology == "hier":
        from repro.comm import HierarchicalCommunicator

        communicator = HierarchicalCommunicator(
            n_workers=cell.workers, n_racks=cell.racks
        )
    run = spec.build(n_workers=cell.workers, seed=cell.seed,
                     compressor_name=cell.compressor)
    kernel = create(cell.compressor, seed=cell.seed,
                    **cell.compressor_params)
    if sanitizes(cell.sanitize, "contract"):
        from repro.core.contract import ContractChecker

        kernel = ContractChecker(kernel)
    memory_params = {}
    if cell.compressor == "efsignsgd" and cell.memory is None:
        # §V-A: EFsignSGD runs with beta=1 and gamma = the initial LR.
        memory_params = {"beta": 1.0, "gamma": run.task.optimizer.lr}
    trainer = DistributedTrainer(
        run.task,
        kernel,
        n_workers=cell.workers,
        memory=cell.memory,
        memory_params=memory_params,
        seed=cell.seed,
        tracer=tracer,
        fusion_mb=cell.fusion_mb,
        perf_model=spec.make_perf_model() if cell.overlap else None,
        overlap=cell.overlap,
        communicator=communicator,
        aggregation=cell.aggregation or "auto",
        resilience=cell.resilience,
        worker=worker,
    )
    return trainer, run


def cell_tracer(trace: bool, profile: bool):
    """The tracer a traced (``trace``) or profiled run records with."""
    if profile:
        from repro.telemetry.profile import ProfilingTracer

        return ProfilingTracer()
    if trace:
        from repro.telemetry.tracing import Tracer

        return Tracer()
    return None


def run_cell(cell: Cell, trace: bool = False, profile: bool = False,
             checkpoint_dir: str | None = None):
    """Train ``cell`` on its backend; returns a
    :class:`~repro.comm.parallel.ParallelResult`.

    ``trace`` records every rank's spans and metrics, and ``profile``
    also its memory high-water marks.  ``checkpoint_dir`` is where a
    parallel run's ranks checkpoint (a temporary directory by default;
    the simulator checkpoints in memory).  A simulator run fills the
    result's report, wall clock, events, memory and metrics.  The
    report's ``best_quality`` is the best witnessed model quality (the
    paper's §V-A protocol), in the internal higher-is-better sign;
    print it through :meth:`BenchmarkSpec.display_quality`.
    """
    from repro.comm.parallel import (
        ParallelResult, ParallelRunConfig, run_parallel,
    )

    if cell.backend == "parallel":
        return run_parallel(ParallelRunConfig(
            cell, profile=profile, trace=trace, checkpoint_dir=checkpoint_dir,
        ))
    start = time.perf_counter()
    tracer = cell_tracer(trace, profile)
    trainer, run = build_trainer(cell, tracer=tracer)
    report = trainer.train(run.loader, epochs=cell.epochs,
                           eval_fn=run.eval_fn)
    return ParallelResult(
        report=report,
        digests={},
        wall_seconds=time.perf_counter() - start,
        events=tracer.spans if tracer else [],
        memory_high_water=tracer.finalize() if profile else {},
        metrics=report.metrics,
    )
