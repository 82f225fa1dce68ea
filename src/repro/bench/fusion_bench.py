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

The result serializes to ``BENCH_fusion.json`` so CI and the benchmark
suite can track the speedups over time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.bench.suite import BenchmarkSpec, get_benchmark
from repro.core.registry import create
from repro.core.trainer import DistributedTrainer


@dataclass
class FusionBenchCell:
    """One training run's exchange costs."""

    fusion_mb: float
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


@dataclass
class FusionBenchResult:
    """Fused vs unfused comparison on one (benchmark, compressor) cell."""

    benchmark: str
    compressor: str
    n_workers: int
    iterations: int
    n_tensors: int
    unfused: FusionBenchCell
    fused: FusionBenchCell

    @property
    def ops_reduction(self) -> float:
        """How many times fewer collectives the fused run issued."""
        if self.fused.collective_ops == 0:
            return float("inf")
        return self.unfused.collective_ops / self.fused.collective_ops

    @property
    def wall_speedup(self) -> float:
        """Measured compress+communicate wall-clock speedup."""
        if self.fused.wall_seconds == 0:
            return float("inf")
        return self.unfused.wall_seconds / self.fused.wall_seconds

    @property
    def sim_speedup(self) -> float:
        """Simulated exchange-time speedup under the cost model."""
        if self.fused.sim_exchange_seconds == 0:
            return float("inf")
        return (
            self.unfused.sim_exchange_seconds / self.fused.sim_exchange_seconds
        )

    def to_dict(self) -> dict:
        payload = asdict(self)
        for key in ("unfused", "fused"):
            payload[key]["sim_exchange_seconds"] = getattr(
                self, key
            ).sim_exchange_seconds
        payload["ops_reduction"] = self.ops_reduction
        payload["wall_speedup"] = self.wall_speedup
        payload["sim_speedup"] = self.sim_speedup
        return payload

    def format(self) -> str:
        """Human-readable comparison table."""
        lines = [
            f"fusion benchmark : {self.benchmark} / {self.compressor} "
            f"({self.n_workers} workers, {self.iterations} iterations, "
            f"{self.n_tensors} tensors)",
            f"{'':18}{'unfused':>14}{'fused':>14}{'ratio':>10}",
        ]
        rows = [
            ("collective ops", self.unfused.collective_ops,
             self.fused.collective_ops, self.ops_reduction),
            ("wall seconds", self.unfused.wall_seconds,
             self.fused.wall_seconds, self.wall_speedup),
            ("sim exchange s", self.unfused.sim_exchange_seconds,
             self.fused.sim_exchange_seconds, self.sim_speedup),
        ]
        for label, a, b, ratio in rows:
            if isinstance(a, int):
                lines.append(
                    f"{label:<18}{a:>14d}{b:>14d}{ratio:>9.1f}x"
                )
            else:
                lines.append(
                    f"{label:<18}{a:>14.4f}{b:>14.4f}{ratio:>9.2f}x"
                )
        lines.append(
            f"{'fusion buckets':<18}{self.unfused.fusion_buckets:>14d}"
            f"{self.fused.fusion_buckets:>14d}"
        )
        return "\n".join(lines)


def _run_cell(
    spec: BenchmarkSpec,
    compressor_name: str,
    n_workers: int,
    iterations: int,
    seed: int,
    fusion_mb: float,
    compressor_params: dict | None,
) -> FusionBenchCell:
    """Train ``iterations`` steps at one fusion setting."""
    run = spec.build(n_workers=n_workers, seed=seed,
                     compressor_name=compressor_name)
    compressor = create(compressor_name, seed=seed,
                        **(compressor_params or {}))
    trainer = DistributedTrainer(
        run.task,
        compressor,
        n_workers=n_workers,
        perf_model=spec.make_perf_model(),
        seed=seed,
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
        fusion_mb=float(fusion_mb),
        collective_ops=trainer.comm.record.num_ops,
        wall_seconds=report.measured_compression_seconds,
        sim_comm_seconds=report.sim_comm_seconds,
        sim_compression_seconds=report.sim_compression_seconds,
        bytes_per_worker=report.bytes_per_worker,
        fusion_buckets=buckets,
        losses=list(report.losses),
    )


def run_fusion_bench(
    benchmark: str = "resnet20-cifar10",
    compressor: str = "topk",
    n_workers: int = 8,
    iterations: int = 30,
    fusion_mb: float = 64.0,
    seed: int = 0,
    compressor_params: dict | None = None,
) -> FusionBenchResult:
    """Compare ``fusion_mb=0`` against ``fusion_mb`` on one benchmark."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if fusion_mb <= 0:
        raise ValueError(
            f"fusion_mb must be positive for the fused run, got {fusion_mb}"
        )
    spec = get_benchmark(benchmark)
    probe = spec.build(n_workers=n_workers, seed=seed,
                       compressor_name=compressor)
    _, probe_grads = probe.task.forward_backward(
        *next(iter(probe.loader))[0]
    )
    n_tensors = len(probe_grads)
    unfused = _run_cell(
        spec, compressor, n_workers, iterations, seed, 0.0, compressor_params
    )
    fused = _run_cell(
        spec, compressor, n_workers, iterations, seed, fusion_mb,
        compressor_params,
    )
    return FusionBenchResult(
        benchmark=benchmark,
        compressor=compressor,
        n_workers=n_workers,
        iterations=iterations,
        n_tensors=n_tensors,
        unfused=unfused,
        fused=fused,
    )


def write_json(path: str, result: FusionBenchResult) -> None:
    """Serialize one benchmark result to ``BENCH_fusion.json``."""
    from repro.bench.metadata import run_metadata

    payload = result.to_dict()
    payload["meta"] = run_metadata()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
