"""Paper-scale iteration-time and throughput simulation.

Combines the three cost components the paper identifies:

* **compute** — forward+backward time from the calibrated device model;
* **communication** — the baseline rides Horovod's tensor fusion (a few
  large fused ring-Allreduce buffers), while compressed methods pay a
  per-tensor Allgather, exactly the asymmetry GRACE's implementation has
  (§IV-B: Allreduce cannot carry variable-size/typed payloads);
* **compression kernels** — compress+decompress latency per tensor from
  the kernel cost model (§V-D).

Compressed byte counts are *measured*, not assumed: each compressor is
probed on gradient-like tensors and its wire footprint extrapolated to
the paper-scale tensor sizes.  Low-rank methods get a ``sqrt(n)`` term
(PowerSGD sends (m+L)·r elements for an m×L tensor); everything else is
affine in the element count.

`repro bench throughput` records the model's numbers per compressor
(:func:`run_throughput_bench`), so a PR that changes the model or a
compressor's wire footprint moves a gated metric; with ``--parallel``
it measures fused against per-tensor wall clock on real processes
instead (:func:`run_parallel_bench`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bench.perf import KernelCostModel, PerfModel
from repro.bench.result import Metric, RunResult
from repro.bench.suite import BenchmarkSpec, get_benchmark
from repro.comm.backends import Backend, OPENMPI_TCP
from repro.comm.cost import allgather_time, ring_allreduce_time
from repro.comm.network import NetworkModel, ethernet
from repro.core.api import Compressor
from repro.core.registry import compressor_info, create

#: Horovod's default fusion buffer (64 MB) — the baseline Allreduce unit.
FUSION_BUFFER_BYTES = 64 * 1024 * 1024

#: `repro bench throughput`'s model run: the fig6 CNN on the testbed's
#: 8 workers and 10 Gbps links, one representative per major family.
BENCHMARK = "resnet20-cifar10"
COMPRESSORS = ("none", "topk", "randomk", "qsgd", "efsignsgd", "powersgd")
N_WORKERS = 8
GBPS = 10.0
SEED = 0

#: The hierarchical section: 16 workers in 4 racks exchanging topk.
HIER_WORKERS = 16
HIER_RACKS = 4
HIER_COMPRESSOR = "topk"

#: The measured leg (`--parallel`): 4 processes, 4 epochs, dense
#: gradients in 64 MiB buckets against the per-tensor exchange.
NPROC = 4
PARALLEL_EPOCHS = 4
PARALLEL_COMPRESSOR = "none"
PARALLEL_FUSION_MB = 64.0


def _square_probe(n_elements: int, scale: float, rng: np.random.Generator):
    side = int(math.isqrt(n_elements))
    return (scale * rng.standard_normal((side, side))).astype(np.float32)


@dataclass(frozen=True)
class WireFootprint:
    """Wire-size model: bytes(n) = fixed + per_element·n + per_sqrt·√n."""

    fixed_bytes: float
    bytes_per_element: float
    bytes_per_sqrt_element: float = 0.0

    def bytes_for(self, n_elements: int) -> float:
        """Wire bytes for a tensor of the given element count."""
        return (
            self.fixed_bytes
            + self.bytes_per_element * n_elements
            + self.bytes_per_sqrt_element * math.sqrt(n_elements)
        )


def measure_wire_footprint(
    compressor: Compressor,
    probe_elements: int = 1 << 16,
    scale: float = 1e-2,
    seed: int = 0,
) -> WireFootprint:
    """Fit the wire-size model from two square gradient-like probes.

    Probe data is Gaussian with the small magnitudes typical of DNN
    gradients, so data-dependent methods (threshold, adaptive, DGC)
    produce representative selection counts.  Gradients are probed as
    square matrices because low-rank methods factorize the matrix view.
    """
    rng = np.random.default_rng(seed)
    small_n = probe_elements // 4
    small = _square_probe(small_n, scale, rng)
    large = _square_probe(probe_elements, scale, rng)
    bytes_small = compressor.compress(small, "probe-small").nbytes
    bytes_large = compressor.compress(large, "probe-large").nbytes
    if compressor.family == "low-rank":
        # bytes ≈ fixed + c·sqrt(n): fit c on the large probe.
        per_sqrt = bytes_large / math.sqrt(large.size)
        return WireFootprint(
            fixed_bytes=0.0,
            bytes_per_element=0.0,
            bytes_per_sqrt_element=per_sqrt,
        )
    per_element = (bytes_large - bytes_small) / (large.size - small.size)
    per_element = max(per_element, 0.0)
    fixed = max(bytes_small - per_element * small.size, 0.0)
    return WireFootprint(fixed_bytes=fixed, bytes_per_element=per_element)


@lru_cache(maxsize=128)
def _cached_footprint(compressor_name: str) -> WireFootprint:
    return measure_wire_footprint(create(compressor_name, seed=0))


@dataclass
class IterationCost:
    """Simulated per-iteration breakdown at paper scale."""

    compute_seconds: float
    comm_seconds: float
    kernel_seconds: float
    bytes_per_worker: float

    @property
    def total_seconds(self) -> float:
        """Compute + communication + kernel time."""
        return self.compute_seconds + self.comm_seconds + self.kernel_seconds


def simulate_iteration(
    spec: BenchmarkSpec,
    compressor_name: str,
    n_workers: int = 8,
    network: NetworkModel | None = None,
    backend: Backend = OPENMPI_TCP,
    perf: PerfModel | None = None,
    compressor_params: dict | None = None,
) -> IterationCost:
    """Simulate one training iteration of ``spec`` at paper scale."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    network = network if network is not None else ethernet(10.0)
    perf = perf if perf is not None else spec.make_perf_model()
    kernels = KernelCostModel(perf.device)
    if compressor_params:
        footprint = measure_wire_footprint(
            create(compressor_name, seed=0, **compressor_params)
        )
    else:
        footprint = _cached_footprint(compressor_name)
    strategy = compressor_info(compressor_name).cls.communication

    compute = perf.compute_seconds(spec.paper.batch_per_worker)
    sizes = spec.paper_tensor_sizes()
    kernel_critical = 0.0
    kernel_overlappable = 0.0
    for size in sizes:
        critical, overlappable = kernels.latency_breakdown(
            compressor_name, size
        )
        kernel_critical += critical
        kernel_overlappable += overlappable
    per_tensor_bytes = [footprint.bytes_for(s) for s in sizes]
    total_bytes = float(sum(per_tensor_bytes))

    if strategy == "allreduce":
        # Horovod fuses same-dtype dense tensors into 64 MB buffers: the
        # whole gradient moves in ceil(total/64MB) fused Allreduce calls.
        n_buffers = max(1, math.ceil(total_bytes / FUSION_BUFFER_BYTES))
        chunk = total_bytes / n_buffers
        comm = sum(
            ring_allreduce_time(chunk, n_workers, network, backend)
            for _ in range(n_buffers)
        )
    else:
        # Compressed payloads vary in size/dtype: one Allgather per tensor.
        comm = sum(
            allgather_time([nbytes] * n_workers, network, backend)
            for nbytes in per_tensor_bytes
        )
    # Data-independent host work (index shuffles, PCIe copies) hides
    # under back-propagation and communication — §V-D's mitigation.
    kernel = kernel_critical + max(
        0.0, kernel_overlappable - (compute + comm)
    )
    return IterationCost(
        compute_seconds=compute,
        comm_seconds=comm,
        kernel_seconds=kernel,
        bytes_per_worker=total_bytes,
    )


def relative_throughput(
    spec: BenchmarkSpec,
    compressor_name: str,
    n_workers: int = 8,
    network: NetworkModel | None = None,
    backend: Backend = OPENMPI_TCP,
    compressor_params: dict | None = None,
) -> float:
    """Throughput normalized to the no-compression baseline (Fig. 6 x-axis)."""
    baseline = simulate_iteration(
        spec, "none", n_workers=n_workers, network=network, backend=backend
    )
    compressed = simulate_iteration(
        spec,
        compressor_name,
        n_workers=n_workers,
        network=network,
        backend=backend,
        compressor_params=compressor_params,
    )
    return baseline.total_seconds / compressed.total_seconds


def relative_volume(
    spec: BenchmarkSpec,
    compressor_name: str,
    compressor_params: dict | None = None,
) -> float:
    """Per-iteration data volume normalized to the baseline (Fig. 7 x-axis)."""
    if compressor_params:
        footprint = measure_wire_footprint(
            create(compressor_name, seed=0, **compressor_params)
        )
    else:
        footprint = _cached_footprint(compressor_name)
    baseline = _cached_footprint("none")
    sizes = spec.paper_tensor_sizes()
    compressed = sum(footprint.bytes_for(s) for s in sizes)
    raw = sum(baseline.bytes_for(s) for s in sizes)
    return compressed / raw


def _hierarchical_section(
    n_workers: int, n_racks: int, name: str, network: NetworkModel,
    seed: int,
) -> tuple[list[Metric], list[str], list[str]]:
    """Flat-PS relay vs two-tier compressed-domain aggregation.

    One simulated exchange of correlated sparse gradients — the
    regime in-network aggregation targets — priced both ways.  The
    simulation is closed-form (seeded gradients, analytic costs),
    so both gated metrics are deterministic: ``root_bytes_ratio``
    is the root's egress under hierarchical aggregation over the
    flat relay's, and ``sim_wall_speedup`` must stay above 1 or
    the two-tier topology stopped paying for itself.  Returns the
    section's metrics, text lines and failures.
    """
    from repro.comm import (
        HierarchicalCommunicator,
        ParameterServerCommunicator,
    )

    rng = np.random.default_rng(seed)
    # Correlated per-worker gradients: a shared signal plus small
    # noise, so sparsifier supports overlap the way real replicas'
    # heavy hitters do.
    base = rng.standard_normal(1 << 14).astype(np.float32)
    compressors = [create(name, seed=r) for r in range(n_workers)]
    compressed = [
        compressors[rank].compress(
            base + 0.05 * rng.standard_normal(base.size).astype(
                np.float32
            ),
            "hier_bench",
        )
        for rank in range(n_workers)
    ]

    def root_egress(comm) -> float:
        return comm.record.registry.value(
            "comm_root_bytes_total", {"direction": "egress"}
        )

    flat = ParameterServerCommunicator(n_workers=n_workers, network=network)
    flat.allgather([list(c.payload) for c in compressed])
    flat_seconds = flat.record.simulated_seconds
    flat_bytes = root_egress(flat)
    hier = HierarchicalCommunicator(
        n_workers=n_workers, n_racks=n_racks, network=network
    )
    hier.allreduce_compressed(list(compressed), compressors[0])
    hier_seconds = hier.record.simulated_seconds
    hier_bytes = root_egress(hier)
    bytes_ratio = hier_bytes / flat_bytes
    speedup = flat_seconds / hier_seconds
    lines = [
        f"hier topology     : {n_workers} workers / {n_racks} racks "
        f"({name})",
        f"flat PS relay     : {flat_seconds * 1e3:>8.3f} ms, "
        f"{flat_bytes:,.0f} B root egress",
        f"hier aggregated   : {hier_seconds * 1e3:>8.3f} ms, "
        f"{hier_bytes:,.0f} B root egress",
        f"root bytes ratio  : {bytes_ratio:>8.3f}",
        f"sim wall speedup  : {speedup:>8.2f}x",
    ]
    metrics = [
        Metric("hier/root_bytes_ratio", bytes_ratio, "ratio", "lower",
               tolerance=0.02),
        Metric("hier/sim_wall_speedup", speedup, "ratio", "higher",
               tolerance=0.02),
        Metric("hier/flat_ps_seconds", flat_seconds, "seconds", "info"),
        Metric("hier/seconds", hier_seconds, "seconds", "info"),
        Metric("hier/flat_root_egress_bytes", flat_bytes, "bytes", "info"),
        Metric("hier/root_egress_bytes", hier_bytes, "bytes", "info"),
    ]
    failures = []
    if speedup <= 1.0:
        failures.append(
            f"hierarchical aggregation must beat the flat PS relay "
            f"({speedup:.2f}x; flat {flat_seconds * 1e3:.3f} ms vs "
            f"hier {hier_seconds * 1e3:.3f} ms)"
        )
    return metrics, lines, failures


def run_throughput_bench() -> RunResult:
    """Modelled per-iteration costs per compressor, plus the
    hierarchical section (:func:`_hierarchical_section`)."""
    spec = get_benchmark(BENCHMARK)
    network = ethernet(GBPS)
    metrics: list[Metric] = []
    lines = [
        f"throughput model  : {BENCHMARK} ({N_WORKERS} workers, "
        f"{GBPS} Gbps)",
        f"{'compressor':<12}{'iter s':>10}{'comm s':>10}"
        f"{'kernel s':>10}{'rel tput':>10}",
    ]
    failures: list[str] = []
    for name in COMPRESSORS:
        cost = simulate_iteration(
            spec, name, n_workers=N_WORKERS, network=network
        )
        relative = relative_throughput(
            spec, name, n_workers=N_WORKERS, network=network
        )
        lines.append(
            f"{name:<12}{cost.total_seconds:>10.4f}"
            f"{cost.comm_seconds:>10.4f}{cost.kernel_seconds:>10.4f}"
            f"{relative:>9.2f}x"
        )
        # The model is closed-form, so bands are tight.
        metrics += [
            Metric(f"{name}/iteration_seconds", cost.total_seconds,
                   "seconds", "lower", tolerance=0.02),
            Metric(f"{name}/comm_seconds", cost.comm_seconds, "seconds",
                   "lower", tolerance=0.02),
            Metric(f"{name}/bytes_per_worker", cost.bytes_per_worker,
                   "bytes", "lower", tolerance=0.02),
            Metric(f"{name}/relative_throughput", relative, "ratio",
                   "higher", tolerance=0.02),
            Metric(f"{name}/compute_seconds", cost.compute_seconds,
                   "seconds", "info"),
            Metric(f"{name}/kernel_seconds", cost.kernel_seconds,
                   "seconds", "info"),
        ]
        if cost.total_seconds <= 0:
            failures.append(
                f"{name}: modelled iteration time is "
                f"{cost.total_seconds} (must be positive)"
            )
    hier_metrics, hier_lines, hier_failures = _hierarchical_section(
        HIER_WORKERS, HIER_RACKS, HIER_COMPRESSOR, network, SEED
    )
    return RunResult.new(
        "throughput", BENCHMARK,
        params={
            "compressors": COMPRESSORS,
            "n_workers": N_WORKERS,
            "gbps": GBPS,
            "seed": SEED,
            "hier_workers": HIER_WORKERS,
            "hier_racks": HIER_RACKS,
            "hier_compressor": HIER_COMPRESSOR,
        },
        metrics=metrics + hier_metrics,
        text="\n".join(lines + hier_lines),
        failures=failures + hier_failures,
    )


def run_parallel_bench() -> RunResult:
    """Measured wall clock of fused buckets against the per-tensor
    exchange on :data:`NPROC` real processes (suite ``throughput``).

    Both legs pay identical process spawn + import costs and run the
    same kernels (a per-tensor unit is a one-segment bucket), so the
    gated ``parallel/fusion_wall_speedup`` isolates what fusion buys
    on actual hardware (fewer arena collectives, zero-copy dense
    reduction).  It is gated against its history band only: measured
    at 0.96–1.49× over repeats of one afternoon, a ``> 1×`` check sits
    inside the run-to-run noise of a 24-step leg.  The two legs'
    final models must be bitwise equal.
    """
    from repro.comm.parallel import ParallelRunConfig, run_parallel

    unfused, fused = (
        run_parallel(ParallelRunConfig(
            BENCHMARK, PARALLEL_COMPRESSOR, NPROC, seed=SEED,
            epochs=PARALLEL_EPOCHS, fusion_mb=fusion_mb,
        ))
        for fusion_mb in (0.0, PARALLEL_FUSION_MB)
    )
    speedup = unfused.wall_seconds / fused.wall_seconds
    digest = next(iter(fused.digests.values()))
    failures = []
    if fused.digests != unfused.digests:
        failures.append(
            "fused and per-tensor runs end with different models: "
            f"digest {digest[:12]} vs "
            f"{next(iter(unfused.digests.values()))[:12]} "
            "(must be bitwise equal)"
        )
    lines = [
        f"parallel measured : {BENCHMARK} ({NPROC} processes, "
        f"{PARALLEL_COMPRESSOR}, {PARALLEL_EPOCHS} epochs)",
        f"unfused wall      : {unfused.wall_seconds:>8.2f} s",
        f"fused wall        : {fused.wall_seconds:>8.2f} s "
        f"({PARALLEL_FUSION_MB} MB buckets)",
        f"fusion speedup    : {speedup:>8.2f}x",
        f"model digest      : {digest[:12]}",
    ]
    # Wall clock on shared CI hardware is noisy: the speedup is held
    # to its history band, loosely, and to nothing else.
    metrics = [
        Metric("parallel/fusion_wall_speedup", speedup, "ratio", "higher",
               tolerance=0.3, floor=0.1),
        Metric("parallel/wall_seconds_unfused", unfused.wall_seconds,
               "seconds", "info"),
        Metric("parallel/wall_seconds_fused", fused.wall_seconds,
               "seconds", "info"),
    ]
    return RunResult.new(
        "throughput", BENCHMARK,
        params={"nproc": NPROC, "fusion_mb": PARALLEL_FUSION_MB,
                "seed": SEED, "epochs": PARALLEL_EPOCHS,
                "compressor": PARALLEL_COMPRESSOR},
        metrics=metrics,
        text="\n".join(lines),
        failures=failures,
    )
