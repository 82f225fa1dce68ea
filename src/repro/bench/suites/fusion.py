"""The fused-vs-unfused exchange harness on the unified suite schema."""

from __future__ import annotations

from repro.bench.fusion_bench import FusionBenchResult, run_fusion_bench
from repro.bench.suites.base import BenchmarkSuite, Execution, Metric
from repro.bench.suite import BENCHMARKS


class FusionSuite(BenchmarkSuite):
    """`repro bench fusion` — collective-count and exchange-time wins."""

    name = "fusion"
    description = ("fused vs per-tensor gradient exchange: collective "
                   "count, wall and simulated exchange time")

    noisy_metrics = ("wall_seconds_unfused", "wall_seconds_fused",
                     "wall_speedup")

    def available_benchmarks(self) -> list[str]:
        return list(BENCHMARKS)

    def default_params(self) -> dict:
        return {
            "compressor": "topk",
            "n_workers": 8,
            "iterations": 30,
            "fusion_mb": 64.0,
            "seed": 0,
            "compressor_params": None,
        }

    def _execute(self, benchmark: str, params: dict) -> Execution:
        result = run_fusion_bench(
            benchmark=benchmark,
            compressor=params["compressor"],
            n_workers=params["n_workers"],
            iterations=params["iterations"],
            fusion_mb=params["fusion_mb"],
            seed=params["seed"],
            compressor_params=params["compressor_params"],
        )
        return Execution(
            metrics=self._metrics(result),
            raw=result.to_dict(),
            text=result.format(),
            failures=self._failures(result),
        )

    @staticmethod
    def _metrics(result: FusionBenchResult) -> list[Metric]:
        # Collective counts and simulated seconds are deterministic at a
        # fixed seed, so their bands are tight; measured wall time gets a
        # wide band (CI machines are noisy).
        return [
            Metric("collective_ops_unfused", result.unfused.collective_ops,
                   "ops", "info"),
            Metric("collective_ops_fused", result.fused.collective_ops,
                   "ops", "lower", tolerance=0.0),
            Metric("ops_reduction", result.ops_reduction, "ratio",
                   "higher", tolerance=0.02),
            Metric("fusion_buckets", result.fused.fusion_buckets,
                   "buckets", "info"),
            Metric("sim_exchange_seconds_unfused",
                   result.unfused.sim_exchange_seconds, "seconds", "info"),
            Metric("sim_exchange_seconds_fused",
                   result.fused.sim_exchange_seconds, "seconds", "lower",
                   tolerance=0.05),
            Metric("sim_speedup", result.sim_speedup, "ratio", "higher",
                   tolerance=0.05),
            Metric("bytes_per_worker_fused", result.fused.bytes_per_worker,
                   "bytes", "lower", tolerance=0.02),
            Metric("wall_seconds_unfused", result.unfused.wall_seconds,
                   "seconds", "info"),
            Metric("wall_seconds_fused", result.fused.wall_seconds,
                   "seconds", "lower", tolerance=0.6),
            Metric("wall_speedup", result.wall_speedup, "ratio", "higher",
                   tolerance=0.6),
        ]

    @staticmethod
    def _failures(result: FusionBenchResult) -> list[str]:
        failures = []
        if result.fused.collective_ops >= result.unfused.collective_ops:
            failures.append(
                f"fused run issued {result.fused.collective_ops} "
                f"collectives, unfused {result.unfused.collective_ops}"
            )
        if result.fused.losses != result.unfused.losses:
            step = next(
                i for i, pair in enumerate(
                    zip(result.fused.losses, result.unfused.losses)
                ) if pair[0] != pair[1]
            )
            failures.append(
                f"fused and unfused training diverge at step {step}: "
                f"loss {result.fused.losses[step]!r} vs "
                f"{result.unfused.losses[step]!r} (must be bitwise equal)"
            )
        return failures
