"""Benchmark harness: performance models, the benchmark suite of Table II,
one experiment module per table/figure of the paper (see DESIGN.md's
experiment index), the `repro bench` harnesses (each returns one
:class:`~repro.bench.result.RunResult`) and the cross-PR perf history +
regression gate (:mod:`repro.bench.history`).
"""

from repro.bench.metadata import run_metadata
from repro.bench.perf import DeviceModel, KernelCostModel, PerfModel, V100
from repro.bench.suite import (
    BenchmarkSpec,
    BENCHMARKS,
    get_benchmark,
    paper_gradient_tensors,
)

__all__ = [
    "DeviceModel",
    "KernelCostModel",
    "PerfModel",
    "V100",
    "BenchmarkSpec",
    "BENCHMARKS",
    "get_benchmark",
    "paper_gradient_tensors",
    "run_metadata",
]
