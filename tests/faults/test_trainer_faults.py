"""DistributedTrainer under injected faults: degrade, restart, stragglers."""

import math

import numpy as np
import pytest

from repro.core import DistributedTrainer, Resilience, create
from repro.core.checkpoint import Checkpoint
from repro.faults import CollectiveTimeoutError, WorkerCrashError

from tests.core.test_trainer import QuadraticTask, noise_batches


class FlatPerf:
    def compute_seconds(self, n_samples):
        return 0.010

    def compression_seconds(self, name, n_elements):
        return 0.001


def _run(n_workers=4, steps=8, dim=32, compressor="topk", memory="residual",
         memory_params=None, perf_model=None, **resilience):
    task = QuadraticTask(dim=dim, lr=0.05, seed=0)
    trainer = DistributedTrainer(
        task, create(compressor, seed=0), n_workers=n_workers,
        memory=memory, memory_params=memory_params, perf_model=perf_model,
        seed=0, resilience=Resilience(**resilience),
    )
    losses = [trainer.step(noise_batches(n_workers, dim, seed=s))
              for s in range(steps)]
    return task, trainer, losses


class TestCrashDegrade:
    def test_survivors_keep_training(self):
        task, trainer, losses = _run(faults="crash@2:rank=3,rejoin=5")
        assert all(math.isfinite(loss) for loss in losses)
        assert losses[-1] < losses[0]
        assert trainer.metrics.value(
            "faults_injected_total", {"kind": "crash"}) == 1
        assert trainer.metrics.value(
            "faults_injected_total", {"kind": "rejoin"}) == 1
        assert trainer.metrics.value("degraded_iterations_total") > 0

    def test_degrade_diverges_from_fault_free(self):
        _, _, clean = _run()
        _, _, faulted = _run(faults="crash@2:rank=3,rejoin=5")
        # The loss at iteration 2 is computed before the degraded
        # update applies, so divergence first shows one step later.
        assert clean[:3] == faulted[:3]
        assert clean[3] != faulted[3]

    def test_all_workers_crashed_raises(self):
        with pytest.raises(WorkerCrashError, match="no surviving workers"):
            _run(n_workers=2, faults="crash@1:rank=0;crash@1:rank=1")

    def test_permanent_crash_never_rejoins(self):
        task, trainer, losses = _run(faults="crash@2:rank=1")
        assert all(math.isfinite(loss) for loss in losses)
        assert len(trainer._active_ranks) == 3

    def test_rejoining_rank_keeps_its_error_feedback_memory(self):
        task = QuadraticTask(dim=32, lr=0.05, seed=0)
        trainer = DistributedTrainer(
            task, create("topk", seed=0), n_workers=4, memory="residual",
            seed=0, resilience=Resilience(faults="crash@2:rank=3,rejoin=4"),
        )
        residuals = {}
        for step in range(5):
            trainer.step(noise_batches(4, 32, seed=step))
            residuals[step] = trainer.memories[3].residual("x").copy()
        # Down for iterations 2 and 3: the memory is what it crashed with.
        assert np.array_equal(residuals[1], residuals[2])
        assert np.array_equal(residuals[1], residuals[3])
        # Back at 4, it compensates with that memory and moves on.
        assert not np.array_equal(residuals[3], residuals[4])


class TestCrashRestart:
    def test_restart_with_every_step_checkpoint_is_lossless(self):
        _, _, clean = _run()
        _, trainer, faulted = _run(
            faults="crash@3:rank=1,rejoin=5", recovery="restart",
        )
        assert faulted == clean
        assert trainer.report.sim_recovery_seconds > 0
        assert trainer.metrics.value("recoveries_total") == 1

    def test_restart_params_bitwise_identical(self):
        options = {"compressor": "efsignsgd", "memory": None,
                   "memory_params": {"beta": 1.0, "gamma": 0.05}}
        clean_task, _, _ = _run(**options)
        task, _, _ = _run(faults="crash@3:rank=1,rejoin=5",
                          recovery="restart", **options)
        np.testing.assert_array_equal(task.x, clean_task.x)

    def test_recovery_charges_total_time(self):
        _, trainer, _ = _run(
            faults="crash@3:rank=1,rejoin=5", recovery="restart",
        )
        phase_sum = (trainer.report.sim_comm_seconds
                     + trainer.report.sim_compute_seconds
                     + trainer.report.sim_compression_seconds)
        assert trainer.report.sim_total_seconds == pytest.approx(
            phase_sum + trainer.report.sim_recovery_seconds
        )


class TestStragglerPolicies:
    SPEC = "straggler@2-5:rank=0,slow=4"

    def test_wait_stretches_compute(self):
        _, clean, _ = _run(perf_model=FlatPerf())
        _, slow, _ = _run(faults=self.SPEC, straggler_policy="wait",
                          perf_model=FlatPerf())
        assert (slow.report.sim_compute_seconds
                > clean.report.sim_compute_seconds)

    def test_drop_excludes_slow_rank(self):
        _, clean, _ = _run(perf_model=FlatPerf())
        _, trainer, losses = _run(
            faults=self.SPEC, straggler_policy="drop", perf_model=FlatPerf(),
        )
        # Excluded rank does not stretch compute.
        assert trainer.report.sim_compute_seconds == pytest.approx(
            clean.report.sim_compute_seconds
        )
        assert all(math.isfinite(loss) for loss in losses)

    def test_drop_never_excludes_whole_cohort(self):
        _, trainer, losses = _run(
            faults="straggler@2:rank=*,slow=8", straggler_policy="drop",
        )
        assert all(math.isfinite(loss) for loss in losses)

    def test_backup_applies_stale_gradients(self):
        _, trainer, losses = _run(faults=self.SPEC, straggler_policy="backup")
        assert trainer.metrics.value("stale_gradients_applied_total") > 0
        assert all(math.isfinite(loss) for loss in losses)

    def test_backup_drops_a_gradient_staler_than_the_bound(self):
        # Excluded at 2 (its gradient is buffered), readmitted at 3 and 4,
        # excluded again at 5: the buffered gradient is 3 iterations old.
        _, trainer, _ = _run(
            faults="straggler@2:rank=0,slow=4;straggler@5:rank=0,slow=4",
            straggler_policy="backup",
        )
        assert trainer.metrics.value("stale_gradients_applied_total") == 0
        assert trainer.metrics.value("stale_gradients_dropped_total") == 1


class TestCheckpoint:
    def test_roundtrip_restores_exact_state(self):
        task, trainer, _ = _run(steps=3)
        checkpoint = trainer.save_checkpoint()
        x_at_save = task.x.copy()
        trainer.step(noise_batches(4, 32, seed=99))
        assert not np.array_equal(task.x, x_at_save)
        trainer.restore_checkpoint(checkpoint)
        np.testing.assert_array_equal(task.x, x_at_save)

    def test_checkpoint_covers_memory_residuals(self):
        _, trainer, _ = _run(steps=3, compressor="topk", memory="residual")
        checkpoint = trainer.save_checkpoint()
        residual = trainer.memories[0]._residuals["x"].copy()
        trainer.step(noise_batches(4, 32, seed=99))
        trainer.restore_checkpoint(checkpoint)
        np.testing.assert_array_equal(
            trainer.memories[0]._residuals["x"], residual
        )

    def test_file_roundtrip(self, tmp_path):
        task, trainer, _ = _run(steps=2)
        path = str(tmp_path / "ckpt.npz")
        trainer.save_checkpoint(path)
        x_at_save = task.x.copy()
        trainer.step(noise_batches(4, 32, seed=99))
        trainer.restore_checkpoint(path)
        np.testing.assert_array_equal(task.x, x_at_save)

    def test_nbytes_positive(self):
        _, trainer, _ = _run(steps=1)
        assert Checkpoint.capture(trainer).nbytes > 0

    def test_periodic_capture_counted(self):
        _, trainer, _ = _run(steps=6, checkpoint_every=2)
        assert trainer.metrics.value("checkpoints_total") == 3


class TestValidation:
    @pytest.mark.parametrize("kwargs,match", [
        ({"recovery": "reboot"}, "recovery"),
        ({"straggler_policy": "ignore"}, "straggler_policy"),
        ({"checkpoint_every": -2}, "checkpoint_every"),
    ])
    def test_bad_params_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            DistributedTrainer(
                QuadraticTask(), create("none"), n_workers=2,
                resilience=Resilience(**kwargs),
            )

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            DistributedTrainer(
                QuadraticTask(), create("none"), n_workers=2,
                resilience=Resilience(faults="explode@1"),
            )


class TestAbortedIterationAccounting:
    """Satellite: a fault-aborted step must not poison the report."""

    def test_report_stays_finite_after_collective_timeout(self):
        task = QuadraticTask(dim=32, lr=0.05, seed=0)
        trainer = DistributedTrainer(
            task, create("topk", seed=0), n_workers=2, memory="residual",
            seed=0, resilience=Resilience(faults="drop@1:rank=0,count=10"),
        )
        trainer.step(noise_batches(2, 32, seed=0))
        with pytest.raises(CollectiveTimeoutError):
            trainer.step(noise_batches(2, 32, seed=1))
        report = trainer.report
        assert math.isfinite(report.overlap_fraction)
        assert 0.0 <= report.overlap_fraction <= 1.0
        assert report.bytes_per_worker >= 0
        assert math.isfinite(report.bytes_per_worker)
        assert report.sim_comm_seconds >= 0
        assert math.isfinite(report.sim_total_seconds)
        assert trainer.metrics.value("aborted_iterations_total") == 1
        assert trainer.metrics.value("comm_timeouts_total") == 1

    def test_aborted_iteration_is_retriable_and_keeps_report_sane(self):
        # An aborted iteration does not advance the iteration counter:
        # retrying re-resolves the same fault set, so a deterministic
        # hard fault keeps aborting — each time absorbed cleanly.
        task = QuadraticTask(dim=32, lr=0.05, seed=0)
        trainer = DistributedTrainer(
            task, create("topk", seed=0), n_workers=2, memory="residual",
            seed=0, resilience=Resilience(faults="drop@1:rank=0,count=10"),
        )
        trainer.step(noise_batches(2, 32, seed=0))
        for attempt in range(3):
            with pytest.raises(CollectiveTimeoutError):
                trainer.step(noise_batches(2, 32, seed=1))
        assert trainer.report.iterations == 1
        assert trainer.metrics.value("aborted_iterations_total") == 3
        assert math.isfinite(trainer.report.sim_total_seconds)
        assert trainer.report.bytes_per_worker >= 0
