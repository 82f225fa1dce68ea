"""Fused-vs-unfused exchange benchmark (`repro bench fusion`).

Runs the same training iterations twice — once with the per-tensor
exchange (``fusion_mb=0``) and once with bucketed fusion — and reports
the three numbers the perf trajectory tracks:

* **collective ops** issued (``CommRecord.num_ops``): the per-message α
  term in the cost model is paid once per op, so this is the latency
  proxy;
* **measured wall seconds** of the compress+communicate loop
  (``TrainingReport.measured_compression_seconds``): real Python/NumPy
  call overhead that fusion amortizes;
* **simulated seconds** for the exchange (communication + compression
  kernels under the α-β cost model and the calibrated kernel clock).

The run is one :class:`~repro.bench.result.RunResult` (suite
``fusion``); ``--check`` fails it unless the fused run issues fewer
collectives and reproduces the per-tensor losses bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.result import Metric, RunResult
from repro.bench.suite import BenchmarkSpec, get_benchmark
from repro.core.registry import create
from repro.core.trainer import DistributedTrainer

#: The fig6 CNN, the paper's first benchmark.
BENCHMARK = "resnet20-cifar10"

#: The fused run's bucket budget: Horovod's default fusion buffer.
FUSION_MB = 64.0

#: The model, data and compressor seed of both runs.
SEED = 0


@dataclass
class FusionBenchCell:
    """One training run's exchange costs."""

    collective_ops: int
    wall_seconds: float
    sim_comm_seconds: float
    sim_compression_seconds: float
    bytes_per_worker: float
    fusion_buckets: int
    #: Per-step training losses: fusion must not move them by one bit.
    losses: list

    @property
    def sim_exchange_seconds(self) -> float:
        """Simulated compress + communicate time."""
        return self.sim_comm_seconds + self.sim_compression_seconds


def _ratio(unfused: float, fused: float) -> float:
    """How many times the fused run beats the unfused one."""
    return float("inf") if fused == 0 else unfused / fused


def _run_cell(
    spec: BenchmarkSpec,
    compressor_name: str,
    n_workers: int,
    iterations: int,
    fusion_mb: float,
) -> FusionBenchCell:
    """Train ``iterations`` steps at one fusion setting."""
    run = spec.build(n_workers=n_workers, seed=SEED,
                     compressor_name=compressor_name)
    trainer = DistributedTrainer(
        run.task,
        create(compressor_name, seed=SEED),
        n_workers=n_workers,
        perf_model=spec.make_perf_model(),
        seed=SEED,
        fusion_mb=fusion_mb,
    )
    steps = 0
    while steps < iterations:
        progressed = False
        for batches in run.loader:
            trainer.step(batches)
            progressed = True
            steps += 1
            if steps >= iterations:
                break
        if not progressed:
            raise ValueError("benchmark loader yielded no iterations")
    report = trainer.report
    buckets = int(
        trainer.metrics.counter("fusion_buckets_total").value
    )
    return FusionBenchCell(
        collective_ops=trainer.comm.record.num_ops,
        wall_seconds=report.measured_compression_seconds,
        sim_comm_seconds=report.sim_comm_seconds,
        sim_compression_seconds=report.sim_compression_seconds,
        bytes_per_worker=report.bytes_per_worker,
        fusion_buckets=buckets,
        losses=list(report.losses),
    )


def _metrics(unfused: FusionBenchCell, fused: FusionBenchCell,
             n_tensors: int) -> list[Metric]:
    # Collective counts and simulated seconds are deterministic at a
    # fixed seed, so their bands are tight; measured wall time gets a
    # wide band (CI machines are noisy).
    return [
        Metric("collective_ops_unfused", unfused.collective_ops, "ops",
               "info"),
        Metric("collective_ops_fused", fused.collective_ops, "ops",
               "lower", tolerance=0.0),
        Metric("ops_reduction",
               _ratio(unfused.collective_ops, fused.collective_ops),
               "ratio", "higher", tolerance=0.02),
        Metric("fusion_buckets", fused.fusion_buckets, "buckets", "info"),
        Metric("fusion_buckets_unfused", unfused.fusion_buckets, "buckets",
               "info"),
        Metric("n_tensors", n_tensors, "tensors", "info"),
        Metric("sim_exchange_seconds_unfused", unfused.sim_exchange_seconds,
               "seconds", "info"),
        Metric("sim_exchange_seconds_fused", fused.sim_exchange_seconds,
               "seconds", "lower", tolerance=0.05),
        Metric("sim_speedup",
               _ratio(unfused.sim_exchange_seconds,
                      fused.sim_exchange_seconds),
               "ratio", "higher", tolerance=0.05),
        Metric("sim_comm_seconds_unfused", unfused.sim_comm_seconds,
               "seconds", "info"),
        Metric("sim_comm_seconds_fused", fused.sim_comm_seconds, "seconds",
               "info"),
        Metric("sim_compression_seconds_unfused",
               unfused.sim_compression_seconds, "seconds", "info"),
        Metric("sim_compression_seconds_fused",
               fused.sim_compression_seconds, "seconds", "info"),
        Metric("bytes_per_worker_unfused", unfused.bytes_per_worker,
               "bytes", "info"),
        Metric("bytes_per_worker_fused", fused.bytes_per_worker, "bytes",
               "lower", tolerance=0.02),
        Metric("wall_seconds_unfused", unfused.wall_seconds, "seconds",
               "info"),
        Metric("wall_seconds_fused", fused.wall_seconds, "seconds",
               "lower", tolerance=0.6),
        Metric("wall_speedup",
               _ratio(unfused.wall_seconds, fused.wall_seconds),
               "ratio", "higher", tolerance=0.6),
    ]


def _failures(unfused: FusionBenchCell, fused: FusionBenchCell) -> list[str]:
    failures = []
    if fused.collective_ops >= unfused.collective_ops:
        failures.append(
            f"fused run issued {fused.collective_ops} "
            f"collectives, unfused {unfused.collective_ops}"
        )
    if fused.losses != unfused.losses:
        step = next(
            i for i, pair in enumerate(zip(fused.losses, unfused.losses))
            if pair[0] != pair[1]
        )
        failures.append(
            f"fused and unfused training diverge at step {step}: "
            f"loss {fused.losses[step]!r} vs "
            f"{unfused.losses[step]!r} (must be bitwise equal)"
        )
    return failures


def _format(header: str, unfused: FusionBenchCell,
            fused: FusionBenchCell) -> str:
    """Human-readable comparison table."""
    lines = [header, f"{'':18}{'unfused':>14}{'fused':>14}{'ratio':>10}"]
    rows = [
        ("collective ops", unfused.collective_ops, fused.collective_ops),
        ("wall seconds", unfused.wall_seconds, fused.wall_seconds),
        ("sim exchange s", unfused.sim_exchange_seconds,
         fused.sim_exchange_seconds),
    ]
    for label, a, b in rows:
        if isinstance(a, int):
            lines.append(f"{label:<18}{a:>14d}{b:>14d}{_ratio(a, b):>9.1f}x")
        else:
            lines.append(
                f"{label:<18}{a:>14.4f}{b:>14.4f}{_ratio(a, b):>9.2f}x"
            )
    lines.append(
        f"{'fusion buckets':<18}{unfused.fusion_buckets:>14d}"
        f"{fused.fusion_buckets:>14d}"
    )
    return "\n".join(lines)


def run_fusion_bench(compressor: str, n_workers: int,
                     iterations: int) -> RunResult:
    """Compare the per-tensor exchange against :data:`FUSION_MB` buckets
    on :data:`BENCHMARK`."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    spec = get_benchmark(BENCHMARK)
    probe = spec.build(n_workers=n_workers, seed=SEED,
                       compressor_name=compressor)
    _, probe_grads = probe.task.forward_backward(
        *next(iter(probe.loader))[0]
    )
    n_tensors = len(probe_grads)
    unfused = _run_cell(spec, compressor, n_workers, iterations, 0.0)
    fused = _run_cell(spec, compressor, n_workers, iterations, FUSION_MB)
    header = (
        f"fusion benchmark : {BENCHMARK} / {compressor} "
        f"({n_workers} workers, {iterations} iterations, "
        f"{n_tensors} tensors)"
    )
    return RunResult.new(
        "fusion", BENCHMARK,
        params={
            "compressor": compressor,
            "n_workers": n_workers,
            "iterations": iterations,
            "fusion_mb": FUSION_MB,
            "seed": SEED,
            "compressor_params": None,  # as every recorded run has it
        },
        metrics=_metrics(unfused, fused, n_tensors),
        text=_format(header, unfused, fused),
        failures=_failures(unfused, fused),
    )
