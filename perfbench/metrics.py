"""Metric names, units and bounds of the ladder, plus the small statistics
every workload shares.

The names are fixed: later PRs are judged against them.  ``BENCHMARK.json``
at the repository root carries the same lists (``tests/test_contract.py``
here checks the two agree); this module is what the code reads.
"""

from __future__ import annotations

import math
import statistics

#: The registry at the commit that defined the benchmark.  The per-layer
#: metric names are derived from it, so they stay fixed even if a later PR
#: registers a 26th compressor.
COMPRESSORS = (
    "none", "adaptive", "atomo", "dgc", "efsignsgd", "eightbit", "gradiveq",
    "gradzip", "inceptionn", "lpcsvrg", "natural", "onebit", "powersgd",
    "qsgd", "qsparse", "randomk", "signsgd", "signum", "sketchml",
    "sketchsgd", "terngrad", "threelc", "thresholdv", "topk", "variance",
)

WORKLOADS = {
    "sweep_large": (
        "25 compressors on ~1M f32 elements in 10 tensors, unfused flat "
        "exchange: compress/decompress kernels are >=70% of a step"
    ),
    "sweep_small_fused": (
        "same 25 on ~400 tensors of 16-2048 elements, fused buckets via a "
        "parameter server with compressed aggregation: per-call framework "
        "work dominates"
    ),
    "train_overlap": (
        "real resnet20 training, 4 ranks, overlapped per-tensor exchange: "
        "ndl forward/backward is >=70% of a step; the only time-to-target "
        "trade-off"
    ),
    "parallel_nproc2": (
        "run_parallel on 2 real processes over the shared-memory arena: "
        "topk_unfused exercises the wire path, none_fused mostly bypasses it"
    ),
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median a metric may get worse by before a PR is rejected.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("steps_to_target", "count", "lower", 0.05),
    ("wire_bytes_per_step", "bytes", "lower", 0.05),
    ("sim_step_ms", "sim_ms", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: End-to-end metrics that must repeat bit-for-bit for a fixed seed.
EXACT = ("steps_to_target", "wire_bytes_per_step", "sim_step_ms")

_FIXED_PER_LAYER = (
    ("compressors.busy_share", "share", "lower"),
    ("compressors.calls_per_step", "count", "lower"),
    ("tensorlib.pack_bits_ms_per_mb", "ms/MB", "lower"),
    ("tensorlib.unpack_bits_ms_per_mb", "ms/MB", "lower"),
    ("tensorlib.quantize_levels_ms_per_mb", "ms/MB", "lower"),
    ("tensorlib.sparsify_topk_ms_per_mb", "ms/MB", "lower"),
    ("tensorlib.count_sketch_ms_per_mb", "ms/MB", "lower"),
    ("memory.compensate_ms_per_step", "ms", "lower"),
    ("memory.update_ms_per_step", "ms", "lower"),
    ("memory.busy_share", "share", "lower"),
    ("fusion.pack_ms_per_mb", "ms/MB", "lower"),
    ("fusion.unpack_ms_per_mb", "ms/MB", "lower"),
    ("fusion.buckets_per_step", "count", "lower"),
    ("comm.collective_ms_per_step", "ms", "lower"),
    ("comm.calls_per_step", "count", "lower"),
    ("comm.busy_share", "share", "lower"),
    ("trainer.self_ms_per_step", "ms", "lower"),
    ("trainer.self_share", "share", "lower"),
    ("trainer.step_ms_p50", "ms", "lower"),
    ("trainer.step_ms_p95", "ms", "lower"),
    ("trainer.final_loss", "loss", "lower"),
    ("ndl.forward_backward_ms_per_step", "ms", "lower"),
    ("ndl.apply_update_ms_per_step", "ms", "lower"),
    ("ndl.busy_share", "share", "lower"),
    ("wire.serialize_ms_per_mb", "ms/MB", "lower"),
    ("wire.deserialize_ms_per_mb", "ms/MB", "lower"),
    ("wire.frame_small_us", "us", "lower"),
    ("shm.post_view_us_p50", "us", "lower"),
    ("shm.post_view_us_p95", "us", "lower"),
    ("shm.dense_gb_per_s", "GB/s", "higher"),
    ("parallel.allreduce_dense_us_p50", "us", "lower"),
    ("parallel.allgather_wire_us_p50", "us", "lower"),
    ("parallel.allreduce_4mb_gb_per_s", "GB/s", "higher"),
    ("parallel.exchange_ms_per_step", "ms", "lower"),
    ("parallel.exchange_share", "share", "lower"),
    ("parallel.spawn_s", "s", "lower"),
    ("telemetry.trace_overhead_share", "share", "lower"),
    ("perfmodel.kernel_error_geomean", "ratio", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
)

PER_LAYER = tuple(
    [(f"compressors.compress_ms_per_mb.{c}", "ms/MB", "lower")
     for c in COMPRESSORS]
    + [(f"compressors.decompress_ms_per_mb.{c}", "ms/MB", "lower")
       for c in COMPRESSORS]
    + list(_FIXED_PER_LAYER)
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def geomean(values) -> float:
    """Geometric mean of positive values (a slow cell cannot drown the rest)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("geomean of nothing")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of nothing")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) the way the driver computes it."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, ((q3 - q1) / mid if mid else 0.0)


def as_metrics(values: dict, units: dict) -> dict:
    """``{name: {"value", "unit"}}`` in the order ``units`` declares."""
    missing = [name for name in units if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
