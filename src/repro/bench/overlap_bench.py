"""Backprop/communication overlap benchmark (`repro bench overlap`).

Models one training iteration at *paper scale* twice under the same cost
models:

* **sequential** — the classic lockstep schedule: all of compute, then
  every compression kernel, then every collective (additive sum);
* **overlapped** — the DDP-style schedule the overlapping trainer
  executes: gradients become ready progressively through the backward
  pass (largest/deepest layers first), each fusion bucket's compress
  kernel and nonblocking collective launch as soon as its last tensor is
  ready, and the iteration ends at the event-timeline **makespan**.

Both schedules price communication with the α-β collective model and
kernels with the calibrated V100 clock, so the ratio isolates exactly
what overlap buys: the share of communication hidden under the backward
pass.  The run is one :class:`~repro.bench.result.RunResult` (suite
``overlap``); ``--check`` asserts that overlap hides communication on
every cell and reaches the target speedup on at least one
bandwidth-bound cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.perf import KernelCostModel
from repro.bench.result import Metric, RunResult
from repro.bench.suite import BenchmarkSpec, get_benchmark
from repro.bench.throughput import _cached_footprint
from repro.comm.backends import Backend, OPENMPI_TCP
from repro.comm.cost import allgather_time, fused_allreduce_time
from repro.comm.network import NetworkModel, Transport, ethernet
from repro.comm.timeline import COMPUTE, KERNEL, NETWORK, SimTimeline
from repro.core.fusion import FusionPlan
from repro.core.registry import compressor_info

#: Minimum speedup the best bandwidth-bound cell must reach.
TARGET_SPEEDUP = 1.3

#: The grid: the fig6 CNN at the testbed's 8 workers, dense against a
#: sparsifier on a bandwidth-bound and a faster link, 128 KiB buckets.
BENCHMARK = "resnet20-cifar10"
COMPRESSORS = ("none", "topk")
NETWORKS = ("1gbps-tcp", "10gbps-tcp")
N_WORKERS = 8
FUSION_MB = 0.125

#: Named testbed links (Fig. 9's bandwidth/transport grid).
NETWORK_PROFILES: dict[str, tuple[float, Transport]] = {
    "1gbps-tcp": (1.0, Transport.TCP),
    "10gbps-tcp": (10.0, Transport.TCP),
    "25gbps-tcp": (25.0, Transport.TCP),
    "10gbps-rdma": (10.0, Transport.RDMA),
    "25gbps-rdma": (25.0, Transport.RDMA),
}


def parse_network_profile(label: str) -> NetworkModel:
    """Resolve a ``<gbps>-<transport>`` profile label to a network model."""
    if label not in NETWORK_PROFILES:
        raise ValueError(
            f"unknown network profile {label!r}; known: "
            f"{sorted(NETWORK_PROFILES)}"
        )
    gbps, transport = NETWORK_PROFILES[label]
    return ethernet(gbps, transport)


@dataclass
class OverlapBenchCell:
    """Sequential-vs-overlapped timing of one (compressor, network) cell."""

    compressor: str
    network: str
    n_buckets: int
    compute_seconds: float
    kernel_seconds: float
    comm_seconds: float
    sequential_seconds: float
    overlapped_seconds: float
    hidden_comm_seconds: float
    exposed_comm_seconds: float

    @property
    def speedup(self) -> float:
        """Sequential over overlapped iteration time."""
        if self.overlapped_seconds == 0:
            return float("inf")
        return self.sequential_seconds / self.overlapped_seconds

    @property
    def overlap_fraction(self) -> float:
        """Share of communication hidden under other work."""
        total = self.hidden_comm_seconds + self.exposed_comm_seconds
        if total == 0:
            return 0.0
        return self.hidden_comm_seconds / total


def _best_speedup(cells: list[OverlapBenchCell]) -> float:
    """The largest sequential/overlapped ratio across the grid."""
    return max((cell.speedup for cell in cells), default=0.0)


def overlap_failures(cells: list[OverlapBenchCell]) -> list[str]:
    """Acceptance failures of one grid (empty when the run passes).

    Every overlapped cell must hide *some* communication, and the
    grid must contain at least one cell where overlap pays the
    :data:`TARGET_SPEEDUP` — the bandwidth-bound regime the
    schedule exists for.
    """
    failures = []
    if not cells:
        failures.append("no cells were benchmarked")
    for cell in cells:
        if not cell.overlap_fraction > 0:
            failures.append(
                f"{cell.compressor}/{cell.network}: overlap_fraction is "
                f"{cell.overlap_fraction:.3f} (expected > 0)"
            )
    best = _best_speedup(cells)
    if cells and not best >= TARGET_SPEEDUP:
        failures.append(
            f"best speedup {best:.2f}x is below the "
            f"{TARGET_SPEEDUP}x target"
        )
    return failures


def _metrics(cells: list[OverlapBenchCell]) -> list[Metric]:
    # The whole grid is analytical (cost models only), so every
    # metric is deterministic and the bands can be tight.
    metrics = [
        Metric("best_speedup", _best_speedup(cells), "ratio", "higher",
               tolerance=0.02),
    ]
    for cell in cells:
        prefix = f"{cell.compressor}/{cell.network}"
        metrics += [
            Metric(f"{prefix}/sequential_seconds", cell.sequential_seconds,
                   "seconds", "info"),
            Metric(f"{prefix}/overlapped_seconds", cell.overlapped_seconds,
                   "seconds", "lower", tolerance=0.02),
            Metric(f"{prefix}/speedup", cell.speedup, "ratio", "higher",
                   tolerance=0.02),
            Metric(f"{prefix}/overlap_fraction", cell.overlap_fraction,
                   "fraction", "higher", tolerance=0.02, floor=0.01),
            Metric(f"{prefix}/n_buckets", cell.n_buckets, "buckets",
                   "info"),
            Metric(f"{prefix}/compute_seconds", cell.compute_seconds,
                   "seconds", "info"),
            Metric(f"{prefix}/kernel_seconds", cell.kernel_seconds,
                   "seconds", "info"),
            Metric(f"{prefix}/comm_seconds", cell.comm_seconds, "seconds",
                   "info"),
            Metric(f"{prefix}/hidden_comm_seconds", cell.hidden_comm_seconds,
                   "seconds", "info"),
            Metric(f"{prefix}/exposed_comm_seconds",
                   cell.exposed_comm_seconds, "seconds", "info"),
        ]
    return metrics


def _format(header: str, cells: list[OverlapBenchCell]) -> str:
    """Human-readable grid."""
    lines = [
        header,
        f"{'compressor':<12}{'network':<14}{'seq s':>10}{'ovl s':>10}"
        f"{'speedup':>9}{'hidden':>9}",
    ]
    for cell in cells:
        lines.append(
            f"{cell.compressor:<12}{cell.network:<14}"
            f"{cell.sequential_seconds:>10.4f}"
            f"{cell.overlapped_seconds:>10.4f}"
            f"{cell.speedup:>8.2f}x"
            f"{100 * cell.overlap_fraction:>8.1f}%"
        )
    lines.append(f"best speedup      : {_best_speedup(cells):.2f}x")
    return "\n".join(lines)


def simulate_overlap_cell(
    spec: BenchmarkSpec,
    compressor_name: str,
    network_label: str,
    n_workers: int = 8,
    fusion_mb: float = 0.125,
    backend: Backend = OPENMPI_TCP,
) -> OverlapBenchCell:
    """Price one iteration of ``spec`` sequentially and overlapped.

    Gradient-ready order at paper scale is the size-descending tensor
    list: conv/FC widths grow with depth, so the largest gradients
    belong to the deepest layers — the ones back-propagation finishes
    first.  Buckets fire when their last (smallest) member is ready,
    at the backward-pass offset given by the cumulative element count.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    network = parse_network_profile(network_label)
    perf = spec.make_perf_model()
    kernels = KernelCostModel(perf.device)
    footprint = _cached_footprint(compressor_name)
    info = compressor_info(compressor_name).cls
    strategy = info.communication
    fused_kernel = bool(getattr(info, "fused_kernel", False))

    sizes = spec.paper_tensor_sizes()  # descending = backward-ready order
    # A compressor without a bucket kernel runs one tensor a unit.
    max_bytes = (
        max(1, int(fusion_mb * 1024 * 1024))
        if fusion_mb > 0 and fused_kernel else 1
    )
    plan = FusionPlan(
        [(f"g{i}", (size,)) for i, size in enumerate(sizes)], max_bytes
    )
    total_elements = sum(sizes)

    compute = perf.compute_seconds(spec.paper.batch_per_worker)
    backward_fraction = perf.backward_fraction
    forward_end = compute * (1.0 - backward_fraction)
    backward_seconds = compute - forward_end

    timeline = SimTimeline()
    if compute > 0:
        timeline.schedule(COMPUTE, compute, name="compute")
    kernel_total = 0.0
    comm_total = 0.0
    ready_elements = 0
    for bucket in plan.buckets:
        ready_elements += bucket.numel
        ready_frac = ready_elements / total_elements
        ready_at = forward_end + backward_seconds * ready_frac
        kernel = kernels.latency_seconds(compressor_name, bucket.numel)
        part_bytes = [footprint.bytes_for(seg.size) for seg in bucket.segments]
        if strategy == "allreduce":
            comm = fused_allreduce_time(part_bytes, n_workers, network, backend)
        else:
            bucket_bytes = float(sum(part_bytes))
            comm = allgather_time(
                [bucket_bytes] * n_workers, network, backend
            )
        kernel_total += kernel
        comm_total += comm
        collective_ready = ready_at
        if kernel > 0:
            event = timeline.schedule(
                KERNEL, kernel, not_before=ready_at,
                name=f"kernel:{bucket.index}",
            )
            collective_ready = event.end
        timeline.schedule(
            NETWORK, comm, not_before=collective_ready,
            name=f"collective:{bucket.index}",
        )

    stats = timeline.overlap_stats(NETWORK)
    return OverlapBenchCell(
        compressor=compressor_name,
        network=network_label,
        n_buckets=plan.num_buckets,
        compute_seconds=compute,
        kernel_seconds=kernel_total,
        comm_seconds=comm_total,
        sequential_seconds=compute + kernel_total + comm_total,
        overlapped_seconds=timeline.makespan,
        hidden_comm_seconds=stats.hidden_comm_seconds,
        exposed_comm_seconds=stats.exposed_comm_seconds,
    )


def run_overlap_bench() -> RunResult:
    """Run the (compressor × network) overlap grid on one benchmark."""
    spec = get_benchmark(BENCHMARK)
    cells = [
        simulate_overlap_cell(
            spec, compressor_name, network_label,
            n_workers=N_WORKERS, fusion_mb=FUSION_MB,
        )
        for compressor_name in COMPRESSORS
        for network_label in NETWORKS
    ]
    header = (
        f"overlap benchmark : {BENCHMARK} "
        f"({N_WORKERS} workers, fusion {FUSION_MB} MB, "
        f"{OPENMPI_TCP.name})"
    )
    return RunResult.new(
        "overlap", BENCHMARK,
        params={
            "compressors": COMPRESSORS,
            "networks": NETWORKS,
            "n_workers": N_WORKERS,
            "fusion_mb": FUSION_MB,
        },
        metrics=_metrics(cells),
        text=_format(header, cells),
        failures=overlap_failures(cells),
    )
