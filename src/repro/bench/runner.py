"""Training runner shared by the quality experiments.

``train_quality`` runs one (benchmark, compressor) cell of the paper's
evaluation grid at lite scale: build the benchmark, train for its lite
epoch budget with the GRACE trainer, and return the training report,
whose ``best_quality`` is the best witnessed model quality (the paper's
§V-A protocol).
"""

from __future__ import annotations

from repro.bench.suite import BenchmarkSpec
from repro.core.config import Resilience, WorkerMode, sanitizes
from repro.core.registry import create
from repro.core.trainer import DistributedTrainer, TrainingReport


def build_trainer(
    spec: BenchmarkSpec,
    compressor_name: str,
    n_workers: int = 4,
    seed: int = 0,
    memory: str | None = None,
    memory_params: dict | None = None,
    compressor_params: dict | None = None,
    tracer=None,
    fusion_mb: float = 0.0,
    overlap: bool = False,
    resilience: Resilience = Resilience(),
    sanitize: str = "off",
    communicator=None,
    worker: WorkerMode | None = None,
    topology: str = "flat",
    racks: int = 2,
    aggregation: str = "auto",
):
    """Build one cell's ``(trainer, run)`` pair.

    This is the single construction path for sequential runs *and* for
    each rank of the real-parallel backend: a worker process passes its
    :class:`~repro.comm.parallel.ParallelWorkerCommunicator` plus its
    :class:`~repro.core.config.WorkerMode` and gets a trainer whose
    model, optimizer, compressors and per-rank RNG streams are built
    bit-identically to the sequential simulator's — which is what makes
    the sequential-vs-parallel agreement check meaningful.

    ``topology`` selects the simulated reduction substrate: ``flat``
    (the default ring/allgather communicator), ``ps`` (a central
    parameter server) or ``hier`` (a two-tier rack-then-root tree with
    ``racks`` groups).  ``ps`` and ``hier`` both advertise
    compressed-domain aggregation; ``aggregation`` forwards the
    trainer's auto/off/all policy for using it.
    """
    if topology not in ("flat", "ps", "hier"):
        raise ValueError(
            f"topology must be 'flat', 'ps' or 'hier', got {topology!r}"
        )
    if communicator is None and topology == "ps":
        from repro.comm import ParameterServerCommunicator

        communicator = ParameterServerCommunicator(n_workers=n_workers)
    elif communicator is None and topology == "hier":
        from repro.comm import HierarchicalCommunicator

        communicator = HierarchicalCommunicator(
            n_workers=n_workers, n_racks=racks
        )
    run = spec.build(n_workers=n_workers, seed=seed,
                     compressor_name=compressor_name)
    compressor = create(compressor_name, seed=seed, **(compressor_params or {}))
    if sanitizes(sanitize, "contract"):
        from repro.core.contract import ContractChecker

        compressor = ContractChecker(compressor)
    params = dict(memory_params or {})
    if compressor_name == "efsignsgd" and memory is None and not params:
        # §V-A: EFsignSGD runs with beta=1 and gamma = the initial LR.
        params = {"beta": 1.0, "gamma": run.task.optimizer.lr}
    trainer = DistributedTrainer(
        run.task,
        compressor,
        n_workers=n_workers,
        memory=memory,
        memory_params=params,
        seed=seed,
        tracer=tracer,
        fusion_mb=fusion_mb,
        perf_model=spec.make_perf_model() if overlap else None,
        overlap=overlap,
        communicator=communicator,
        aggregation=aggregation,
        resilience=resilience,
        worker=worker,
    )
    return trainer, run


def train_quality(
    spec: BenchmarkSpec,
    compressor_name: str,
    epochs: int | None = None,
    **options,
) -> TrainingReport:
    """Train one benchmark with one compressor; return its report.

    ``options`` are :func:`build_trainer`'s keywords; ``epochs``
    defaults to the benchmark's lite budget.  The report's
    ``best_quality`` is the best witnessed model quality (the paper's
    §V-A protocol), in the internal higher-is-better sign; print it
    through :meth:`BenchmarkSpec.display_quality`.
    """
    trainer, run = build_trainer(spec, compressor_name, **options)
    return trainer.train(
        run.loader,
        epochs=epochs if epochs is not None else spec.lite_epochs,
        eval_fn=run.eval_fn,
    )
