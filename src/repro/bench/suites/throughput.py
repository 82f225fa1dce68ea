"""The paper-scale iteration-cost model on the suite schema.

This is the harness behind every Fig. 6/9/10 throughput claim:
:func:`repro.bench.throughput.simulate_iteration` prices one training
iteration (compute + communication + compression kernels) per
compressor at paper scale.  As a suite it tracks the *modelled*
end-to-end numbers across PRs — the cost model itself is code, so a
regression here means a PR changed the model or a compressor's wire
footprint, exactly the silent drift the history gate exists to catch.
"""

from __future__ import annotations

from repro.bench.suites.base import BenchmarkSuite, Execution, Metric
from repro.bench.suite import BENCHMARKS, get_benchmark
from repro.bench.throughput import relative_throughput, simulate_iteration
from repro.comm.network import ethernet

#: Default compressor column: one representative per major family.
DEFAULT_COMPRESSORS = ("none", "topk", "randomk", "qsgd", "efsignsgd",
                       "powersgd")


class ThroughputSuite(BenchmarkSuite):
    """`repro bench throughput` — modelled per-iteration costs.

    With ``parallel=True`` the suite instead *measures* wall clock on
    the real-parallel backend: the same benchmark cell is trained twice
    across ``nproc`` OS processes — once per-tensor, once with fused
    buckets — and the gated ``parallel/fusion_wall_speedup`` metric is
    the unfused/fused wall-time ratio.  Both legs pay identical process
    spawn + import costs and run the same kernels (a per-tensor unit is
    a one-segment bucket), so the ratio isolates what fusion buys on
    actual hardware (fewer arena collectives, zero-copy dense
    reduction).  It is gated against its history band only: measured
    at 0.96–1.49× over repeats of one afternoon, a ``> 1×`` check sits
    inside the run-to-run noise of a 24-step leg.
    """

    name = "throughput"
    description = ("paper-scale iteration time, bytes and relative "
                   "throughput per compressor under the α-β cost model; "
                   "--parallel measures real multiprocess wall clock")

    #: Wall-clock metrics vary run-to-run; everything else is closed-form.
    noisy_metrics = (
        "parallel/fusion_wall_speedup",
        "parallel/wall_seconds_unfused",
        "parallel/wall_seconds_fused",
    )

    def available_benchmarks(self) -> list[str]:
        return list(BENCHMARKS)

    def default_params(self) -> dict:
        return {
            "compressors": DEFAULT_COMPRESSORS,
            "n_workers": 8,
            "gbps": 10.0,
            "seed": 0,
            "parallel": False,
            "nproc": 4,
            "parallel_epochs": 4,
            "parallel_compressor": "none",
            "parallel_fusion_mb": 64.0,
            "hier_workers": 16,
            "hier_racks": 4,
            "hier_compressor": "topk",
        }

    def _execute_parallel(self, benchmark: str, params: dict) -> Execution:
        from repro.comm.parallel import ParallelRunConfig, run_parallel

        nproc = int(params["nproc"])
        compressor = str(params["parallel_compressor"])
        epochs = int(params["parallel_epochs"])
        base = dict(
            benchmark=benchmark, compressor=compressor, nproc=nproc,
            seed=int(params["seed"]), epochs=epochs,
        )
        unfused = run_parallel(ParallelRunConfig(**base, fusion_mb=0.0))
        fused = run_parallel(ParallelRunConfig(
            **base, fusion_mb=float(params["parallel_fusion_mb"]),
        ))
        speedup = unfused.wall_seconds / fused.wall_seconds
        raw = {
            "benchmark": benchmark, "mode": "parallel", "nproc": nproc,
            "compressor": compressor, "epochs": epochs,
            "wall_seconds_unfused": unfused.wall_seconds,
            "wall_seconds_fused": fused.wall_seconds,
            "fusion_wall_speedup": speedup,
            "digest_unfused": next(iter(unfused.digests.values())),
            "digest_fused": next(iter(fused.digests.values())),
        }
        lines = [
            f"parallel measured : {benchmark} ({nproc} processes, "
            f"{compressor}, {epochs} epochs)",
            f"unfused wall      : {unfused.wall_seconds:>8.2f} s",
            f"fused wall        : {fused.wall_seconds:>8.2f} s "
            f"({params['parallel_fusion_mb']} MB buckets)",
            f"fusion speedup    : {speedup:>8.2f}x",
        ]
        # Wall clock on shared CI hardware is noisy: the speedup is held
        # to its history band, loosely, and to nothing else.
        metrics = [
            Metric("parallel/fusion_wall_speedup", speedup, "ratio",
                   "higher", tolerance=0.3, floor=0.1),
            Metric("parallel/wall_seconds_unfused", unfused.wall_seconds,
                   "seconds", "info"),
            Metric("parallel/wall_seconds_fused", fused.wall_seconds,
                   "seconds", "info"),
        ]
        return Execution(metrics=metrics, raw=raw, text="\n".join(lines))

    def _execute(self, benchmark: str, params: dict) -> Execution:
        if params.get("parallel"):
            return self._execute_parallel(benchmark, params)
        spec = get_benchmark(benchmark)
        network = ethernet(float(params["gbps"]))
        n_workers = int(params["n_workers"])
        metrics: list[Metric] = []
        raw: dict = {"benchmark": benchmark, "n_workers": n_workers,
                     "gbps": params["gbps"], "cells": {}}
        lines = [
            f"throughput model  : {benchmark} ({n_workers} workers, "
            f"{params['gbps']} Gbps)",
            f"{'compressor':<12}{'iter s':>10}{'comm s':>10}"
            f"{'kernel s':>10}{'rel tput':>10}",
        ]
        failures: list[str] = []
        for name in params["compressors"]:
            cost = simulate_iteration(
                spec, name, n_workers=n_workers, network=network
            )
            relative = relative_throughput(
                spec, name, n_workers=n_workers, network=network
            )
            raw["cells"][name] = {
                "compute_seconds": cost.compute_seconds,
                "comm_seconds": cost.comm_seconds,
                "kernel_seconds": cost.kernel_seconds,
                "total_seconds": cost.total_seconds,
                "bytes_per_worker": cost.bytes_per_worker,
                "relative_throughput": relative,
            }
            lines.append(
                f"{name:<12}{cost.total_seconds:>10.4f}"
                f"{cost.comm_seconds:>10.4f}{cost.kernel_seconds:>10.4f}"
                f"{relative:>9.2f}x"
            )
            # The model is closed-form, so bands are tight.
            metrics += [
                Metric(f"{name}/iteration_seconds", cost.total_seconds,
                       "seconds", "lower", tolerance=0.02),
                Metric(f"{name}/comm_seconds", cost.comm_seconds,
                       "seconds", "lower", tolerance=0.02),
                Metric(f"{name}/bytes_per_worker", cost.bytes_per_worker,
                       "bytes", "lower", tolerance=0.02),
                Metric(f"{name}/relative_throughput", relative, "ratio",
                       "higher", tolerance=0.02),
            ]
            if cost.total_seconds <= 0:
                failures.append(
                    f"{name}: modelled iteration time is "
                    f"{cost.total_seconds} (must be positive)"
                )
        self._hier_section(params, metrics, raw, lines, failures)
        return Execution(
            metrics=metrics, raw=raw, text="\n".join(lines),
            failures=failures,
        )

    def _hier_section(
        self,
        params: dict,
        metrics: list[Metric],
        raw: dict,
        lines: list[str],
        failures: list[str],
    ) -> None:
        """Flat-PS relay vs two-tier compressed-domain aggregation.

        One simulated exchange of correlated sparse gradients — the
        regime in-network aggregation targets — priced both ways.  The
        simulation is closed-form (seeded gradients, analytic costs),
        so both gated metrics are deterministic: ``root_bytes_ratio``
        is the root's egress under hierarchical aggregation over the
        flat relay's, and ``sim_wall_speedup`` must stay above 1 or
        the two-tier topology stopped paying for itself.
        """
        import numpy as np

        from repro.comm import (
            HierarchicalCommunicator,
            ParameterServerCommunicator,
        )
        from repro.core.registry import create

        n_workers = int(params["hier_workers"])
        n_racks = int(params["hier_racks"])
        name = str(params["hier_compressor"])
        network = ethernet(float(params["gbps"]))
        rng = np.random.default_rng(int(params["seed"]))
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

        flat = ParameterServerCommunicator(
            n_workers=n_workers, network=network
        )
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
        raw["hier"] = {
            "n_workers": n_workers, "n_racks": n_racks,
            "compressor": name,
            "flat_ps_seconds": flat_seconds,
            "hier_seconds": hier_seconds,
            "flat_root_egress_bytes": flat_bytes,
            "hier_root_egress_bytes": hier_bytes,
            "root_bytes_ratio": bytes_ratio,
            "sim_wall_speedup": speedup,
        }
        lines += [
            f"hier topology     : {n_workers} workers / {n_racks} racks "
            f"({name})",
            f"flat PS relay     : {flat_seconds * 1e3:>8.3f} ms, "
            f"{flat_bytes:,.0f} B root egress",
            f"hier aggregated   : {hier_seconds * 1e3:>8.3f} ms, "
            f"{hier_bytes:,.0f} B root egress",
            f"root bytes ratio  : {bytes_ratio:>8.3f}",
            f"sim wall speedup  : {speedup:>8.2f}x",
        ]
        metrics += [
            Metric("hier/root_bytes_ratio", bytes_ratio, "ratio",
                   "lower", tolerance=0.02),
            Metric("hier/sim_wall_speedup", speedup, "ratio",
                   "higher", tolerance=0.02),
            Metric("hier/flat_ps_seconds", flat_seconds, "seconds",
                   "info"),
            Metric("hier/seconds", hier_seconds, "seconds", "info"),
        ]
        if speedup <= 1.0:
            failures.append(
                f"hierarchical aggregation must beat the flat PS relay "
                f"({speedup:.2f}x; flat {flat_seconds * 1e3:.3f} ms vs "
                f"hier {hier_seconds * 1e3:.3f} ms)"
            )
