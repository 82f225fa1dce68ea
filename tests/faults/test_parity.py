"""Zero-fault wiring parity: the resilience layer must cost nothing.

Wiring a :class:`FaultInjector` with an empty (or never-firing) plan
routes every collective through :class:`ResilientCommunicator`; these
tests pin that this wrapped path reproduces the seed goldens bitwise —
losses, parameters, byte and simulated-second totals — and that the
seed benchmarks' deterministic numbers are unchanged.

(The overlap bench's kernel latencies are *measured*, so its
overlapped/hidden/exposed split jitters run-to-run even on the seed
code; only its analytic quantities are pinned here.)
"""

import numpy as np
import pytest

from repro.comm.resilience import ResilientCommunicator
from repro.core import DistributedTrainer, Resilience, create
from repro.core.trainer import TrainingReport
from repro.faults import FaultPlan

from tests.core.test_trainer import QuadraticTask, noise_batches
from tests.telemetry.test_trainer_telemetry import (
    FlatPerf,
    GOLDEN,
    GOLDEN_LOSSES,
    GOLDEN_PARAM_NORM,
)

#: A plan whose only event sits far outside the exercised window.
NEVER_FIRING = "crash@1000000:rank=0,rejoin=1000001"


def _run_golden(faults):
    task = QuadraticTask(dim=32, lr=0.05, seed=0)
    trainer = DistributedTrainer(
        task, create("topk", ratio=0.25), n_workers=2,
        perf_model=FlatPerf(), seed=0, resilience=Resilience(faults=faults),
    )
    losses = [trainer.step(noise_batches(2, 32, seed=s)) for s in range(5)]
    return task, trainer, losses


class TestZeroFaultTrainerParity:
    @pytest.mark.parametrize("faults", ["", NEVER_FIRING])
    def test_wired_injector_reproduces_seed_goldens(self, faults):
        task, trainer, losses = _run_golden(faults)
        # The wrapper must actually be in the path for this to mean
        # anything.
        assert isinstance(trainer.comm, ResilientCommunicator)
        assert trainer.injector is not None
        assert losses == GOLDEN_LOSSES
        for name, expected in GOLDEN.items():
            assert getattr(trainer.report, name) == expected, name
        assert float(np.linalg.norm(task.x)) == GOLDEN_PARAM_NORM

    def test_wired_and_unwired_reports_are_equal(self):
        _, unwired, _ = _run_golden(None)
        _, wired, _ = _run_golden("")
        assert not isinstance(unwired.comm, ResilientCommunicator)
        for name in TrainingReport._FIELDS:
            if name == "measured_compression_seconds":
                continue  # wall clock: nondeterministic by nature
            assert getattr(unwired.report, name) == \
                getattr(wired.report, name), name

    def test_zero_fault_run_emits_no_resilience_counters(self):
        _, trainer, _ = _run_golden("")
        for counter in ("faults_injected_total", "retries_total",
                        "retransmit_bytes_total", "degraded_iterations_total",
                        "aborted_iterations_total", "recoveries_total",
                        "comm_checksum_failures_total"):
            assert trainer.metrics.value(counter) == 0.0, counter

    def test_explicit_plan_object_matches_spec_string(self):
        plan = FaultPlan.parse(NEVER_FIRING, seed=0)
        _, from_spec, spec_losses = _run_golden(NEVER_FIRING)
        _, from_plan, plan_losses = _run_golden(plan)
        assert spec_losses == plan_losses == GOLDEN_LOSSES


class TestSeedBenchParity:
    """Deterministic seed-bench numbers, captured pre-resilience."""

    def test_fusion_bench_numbers_unchanged(self):
        from repro.bench.fusion_bench import run_fusion_bench

        result = run_fusion_bench("topk", 8, 3)
        assert result.value("collective_ops_fused") == 3
        assert result.value("collective_ops_unfused") == 87
        assert result.value("sim_comm_seconds_fused") == \
            0.001327270588235294
        assert result.value("sim_comm_seconds_unfused") == \
            0.03744653647058823
        # topk's positions travel at the width of each unit's largest
        # tensor, which is narrower for a tensor alone than in a bucket.
        assert result.value("bytes_per_worker_fused") == 3960.0
        assert result.value("bytes_per_worker_unfused") == 3882.0

    def test_overlap_bench_invariants_hold(self):
        from repro.bench.overlap_bench import run_overlap_bench

        result = run_overlap_bench()
        for compressor in ("none", "topk"):
            prefix = f"{compressor}/1gbps-tcp"

            def value(name):
                return result.value(f"{prefix}/{name}")

            assert value("sequential_seconds") == pytest.approx(
                value("compute_seconds") + value("kernel_seconds")
                + value("comm_seconds")
            )
            assert (value("hidden_comm_seconds")
                    + value("exposed_comm_seconds")
                    == pytest.approx(value("comm_seconds")))
            assert (value("overlapped_seconds")
                    <= value("sequential_seconds") + 1e-12)
            assert value("speedup") >= 1.0
