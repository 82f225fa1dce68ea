"""The training runner's protocol wiring."""

import pytest

from repro.bench.runner import train_quality
from repro.bench.suite import get_benchmark


class TestTrainQuality:
    def test_returns_report_and_quality(self):
        spec = get_benchmark("ncf-movielens")
        report = train_quality(spec, "none", n_workers=2, epochs=1)
        assert report.iterations > 0
        assert 0 <= report.best_quality <= 1

    def test_display_quality_negates_perplexity(self):
        spec = get_benchmark("lstm-ptb")
        report = train_quality(spec, "none", n_workers=2, epochs=1)
        # Internally best_quality is negative perplexity; displayed
        # perplexity must be positive and lower-is-better.
        assert report.best_quality < 0
        assert spec.display_quality(report.best_quality) == -report.best_quality

    def test_efsignsgd_memory_gamma_is_the_learning_rate(self):
        # §V-A: for EFsignSGD, gamma equals the initial learning rate.
        spec = get_benchmark("resnet20-cifar10")
        run = spec.build(n_workers=2, seed=0, compressor_name="efsignsgd")
        expected_lr = run.task.optimizer.lr

        from repro.core import DistributedTrainer, create
        from repro.core.memory import ResidualMemory

        report = train_quality(spec, "efsignsgd", n_workers=2, epochs=1)
        # Rebuild the trainer path directly to inspect the memory wiring.
        compressor = create("efsignsgd", seed=0)
        trainer = DistributedTrainer(
            compressor=compressor,
            task=run.task,
            n_workers=2,
            memory_params={"beta": 1.0, "gamma": expected_lr},
        )
        for memory in trainer.memories:
            assert isinstance(memory, ResidualMemory)
            assert memory.gamma == pytest.approx(expected_lr)
        assert report.iterations > 0

    def test_compressor_params_forwarded(self):
        spec = get_benchmark("ncf-movielens")
        tight = train_quality(
            spec, "topk", n_workers=2, epochs=1,
            compressor_params={"ratio": 0.001},
        )
        loose = train_quality(
            spec, "topk", n_workers=2, epochs=1,
            compressor_params={"ratio": 0.1},
        )
        assert (
            tight.bytes_per_worker_per_iteration
            < loose.bytes_per_worker_per_iteration
        )

    def test_memory_override_forwarded(self):
        spec = get_benchmark("ncf-movielens")
        report = train_quality(
            spec, "topk", n_workers=2, epochs=1, memory="none"
        )
        assert report.iterations > 0

    def test_same_seed_reproducible(self):
        spec = get_benchmark("ncf-movielens")
        a = train_quality(spec, "qsgd", n_workers=2, epochs=1, seed=5)
        b = train_quality(spec, "qsgd", n_workers=2, epochs=1, seed=5)
        assert a.best_quality == b.best_quality
        assert a.epoch_losses == b.epoch_losses
