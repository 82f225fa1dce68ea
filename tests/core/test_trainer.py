"""Algorithm 1 trainer: convergence, accounting and strategy dispatch."""

import time

import numpy as np
import pytest

from repro.comm import Communicator, ethernet, OPENMPI_TCP
from repro.core import DistributedTrainer, create


class QuadraticTask:
    """Minimize ||x - target||^2 over a single parameter tensor."""

    def __init__(self, dim=32, lr=0.1, seed=0):
        rng = np.random.default_rng(seed)
        self.x = np.zeros(dim, dtype=np.float32)
        self.target = rng.standard_normal(dim).astype(np.float32)
        self.lr = lr

    def forward_backward(self, inputs, targets):
        # Per-worker stochastic gradient: noise simulates mini-batch noise.
        noise = np.asarray(inputs, dtype=np.float32)
        grad = 2 * (self.x - self.target) + noise
        loss = float(np.sum((self.x - self.target) ** 2))
        return loss, {"x": grad}

    def apply_update(self, grads):
        self.x -= self.lr * grads["x"]

    def distance(self):
        return float(np.linalg.norm(self.x - self.target))


def noise_batches(n_workers, dim, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    return [
        (scale * rng.standard_normal(dim).astype(np.float32), None)
        for _ in range(n_workers)
    ]


class TestConvergence:
    @pytest.mark.parametrize(
        "name", ["none", "topk", "qsgd", "efsignsgd", "terngrad", "dgc",
                 "powersgd", "sketchml"]
    )
    def test_quadratic_converges(self, name):
        task = QuadraticTask(lr=0.05)
        trainer = DistributedTrainer(task, create(name), n_workers=4)
        start = task.distance()
        for step in range(150):
            trainer.step(noise_batches(4, 32, seed=step))
        assert task.distance() < 0.5 * start, name

    def test_error_feedback_recovers_sparsifier_bias(self):
        # With ratio 0.05 and no memory, most coordinates never move;
        # with residual memory every coordinate is eventually corrected.
        def run(memory):
            task = QuadraticTask(lr=0.05)
            trainer = DistributedTrainer(
                task, create("topk", ratio=0.05), n_workers=2, memory=memory
            )
            for step in range(300):
                trainer.step(noise_batches(2, 32, seed=step))
            return task.distance()

        assert run("residual") < run("none")


class TestAccounting:
    def test_report_counts_iterations_and_samples(self):
        task = QuadraticTask()
        trainer = DistributedTrainer(task, create("none"), n_workers=2)
        for step in range(5):
            trainer.step(noise_batches(2, 32, seed=step))
        assert trainer.report.iterations == 5
        assert trainer.report.samples_processed == 5 * 2 * 32

    def test_compression_reduces_recorded_bytes(self):
        def bytes_for(name):
            task = QuadraticTask(dim=1024)
            trainer = DistributedTrainer(task, create(name), n_workers=2)
            trainer.step(noise_batches(2, 1024, seed=0))
            return trainer.report.bytes_per_worker

        assert bytes_for("topk") < 0.1 * bytes_for("none")

    def test_sim_comm_time_accumulates(self):
        task = QuadraticTask()
        trainer = DistributedTrainer(task, create("none"), n_workers=2)
        trainer.step(noise_batches(2, 32, seed=0))
        first = trainer.report.sim_comm_seconds
        trainer.step(noise_batches(2, 32, seed=1))
        assert trainer.report.sim_comm_seconds > first > 0

    def test_perf_model_drives_sim_clock(self):
        class FlatPerf:
            def compute_seconds(self, n_samples):
                return 0.010

            def compression_seconds(self, name, n_elements):
                return 0.001

        task = QuadraticTask()
        trainer = DistributedTrainer(
            task, create("topk"), n_workers=2, perf_model=FlatPerf()
        )
        trainer.step(noise_batches(2, 32, seed=0))
        assert trainer.report.sim_compute_seconds == pytest.approx(0.010)
        assert trainer.report.sim_compression_seconds == pytest.approx(0.001)
        assert trainer.report.sim_total_seconds > 0.011


class SlowCommunicator(Communicator):
    """Every collective takes 10 ms of wall clock where it runs: at issue."""

    SECONDS = 0.010

    def allgather(self, payloads):
        time.sleep(self.SECONDS)
        return super().allgather(payloads)

    def allreduce_parts(self, payloads):
        time.sleep(self.SECONDS)
        return super().allreduce_parts(payloads)


class TestMeasuredExchangeTime:
    @pytest.mark.parametrize("name", ["topk", "none"])
    @pytest.mark.parametrize("fusion_mb,overlap", [
        (0.0, False), (64.0, False), (0.0, True), (64.0, True),
    ])
    def test_measured_time_includes_every_collective(
        self, name, fusion_mb, overlap
    ):
        trainer = DistributedTrainer(
            QuadraticTask(), create(name), n_workers=2,
            communicator=SlowCommunicator(2), fusion_mb=fusion_mb,
            overlap=overlap,
        )
        for step in range(3):
            trainer.step(noise_batches(2, 32, seed=step))
        collectives = trainer.comm.record.num_ops
        assert collectives == 3
        assert trainer.report.measured_compression_seconds >= (
            SlowCommunicator.SECONDS * collectives
        )


class TestStrategies:
    def test_allreduce_and_allgather_agree_for_lossless(self):
        # The "none" compressor via allreduce must equal a manual mean.
        task_a = QuadraticTask(lr=0.1, seed=1)
        task_b = QuadraticTask(lr=0.1, seed=1)
        trainer = DistributedTrainer(task_a, create("none"), n_workers=4)
        batches = noise_batches(4, 32, seed=42)
        trainer.step(batches)
        grads = [task_b.forward_backward(*batch)[1]["x"] for batch in batches]
        task_b.apply_update({"x": np.mean(grads, axis=0)})
        np.testing.assert_allclose(task_a.x, task_b.x, rtol=1e-5)

    def test_unknown_strategy_rejected(self):
        compressor = create("none")
        type(compressor).communication = "allreduce"  # restore below
        task = QuadraticTask()
        trainer = DistributedTrainer(task, compressor, n_workers=2)
        for clone in trainer.compressors:
            clone.communication = "gossip"
        with pytest.raises(ValueError, match="communication strategy"):
            trainer.step(noise_batches(2, 32, seed=0))


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            DistributedTrainer(QuadraticTask(), create("none"), n_workers=0)

    def test_rejects_mismatched_communicator(self):
        comm = Communicator(2, ethernet(10.0), OPENMPI_TCP)
        with pytest.raises(ValueError, match="ranks"):
            DistributedTrainer(
                QuadraticTask(), create("none"), n_workers=4, communicator=comm
            )

    def test_rejects_wrong_batch_count(self):
        trainer = DistributedTrainer(QuadraticTask(), create("none"),
                                     n_workers=4)
        with pytest.raises(ValueError, match="per-rank batches"):
            trainer.step(noise_batches(2, 32, seed=0))

    def test_train_rejects_zero_epochs(self):
        trainer = DistributedTrainer(QuadraticTask(), create("none"),
                                     n_workers=2)
        with pytest.raises(ValueError, match="epochs"):
            trainer.train([], epochs=0)

    def test_train_rejects_empty_loader(self):
        trainer = DistributedTrainer(QuadraticTask(), create("none"),
                                     n_workers=2)
        with pytest.raises(ValueError, match="no iterations"):
            trainer.train([], epochs=1)

    def test_best_quality_requires_eval(self):
        trainer = DistributedTrainer(QuadraticTask(), create("none"),
                                     n_workers=2)
        with pytest.raises(ValueError, match="quality"):
            trainer.report.best_quality


class TestMemoryDefaults:
    def test_uses_compressor_default_memory(self):
        from repro.core.memory import DgcMemory, NoneMemory, ResidualMemory

        trainer = DistributedTrainer(QuadraticTask(), create("topk"),
                                     n_workers=2)
        assert all(isinstance(m, ResidualMemory) for m in trainer.memories)
        trainer = DistributedTrainer(QuadraticTask(), create("qsgd"),
                                     n_workers=2)
        assert all(isinstance(m, NoneMemory) for m in trainer.memories)
        trainer = DistributedTrainer(QuadraticTask(), create("dgc"),
                                     n_workers=2)
        assert all(isinstance(m, DgcMemory) for m in trainer.memories)

    def test_memory_override(self):
        from repro.core.memory import NoneMemory

        trainer = DistributedTrainer(
            QuadraticTask(), create("topk"), n_workers=2, memory="none"
        )
        assert all(isinstance(m, NoneMemory) for m in trainer.memories)

    def test_per_worker_compressors_have_distinct_seeds(self):
        trainer = DistributedTrainer(QuadraticTask(), create("randomk"),
                                     n_workers=2)
        grad = np.arange(100, dtype=np.float32)
        a = trainer.compressors[0].compress(grad, "t")
        b = trainer.compressors[1].compress(grad, "t")
        assert not np.array_equal(a.payload[1], b.payload[1])
