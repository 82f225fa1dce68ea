"""The training runner's protocol wiring."""

import pytest

from repro.bench.runner import build_trainer, run_cell
from repro.bench.suite import get_benchmark
from repro.core.config import Cell


class TestRunCell:
    def test_returns_report_and_quality(self):
        report = run_cell(Cell("ncf-movielens", workers=2, epochs=1)).report
        assert report.iterations > 0
        assert 0 <= report.best_quality <= 1

    def test_display_quality_negates_perplexity(self):
        spec = get_benchmark("lstm-ptb")
        report = run_cell(Cell(spec.key, workers=2, epochs=1)).report
        # Internally best_quality is negative perplexity; displayed
        # perplexity must be positive and lower-is-better.
        assert report.best_quality < 0
        assert spec.display_quality(report.best_quality) == -report.best_quality

    def test_efsignsgd_memory_gamma_is_the_learning_rate(self):
        # §V-A: for EFsignSGD, beta is 1 and gamma the initial learning
        # rate, in the memories of the trainer the cell builds.
        from repro.core.memory import ResidualMemory

        trainer, run = build_trainer(
            Cell("resnet20-cifar10", "efsignsgd", workers=2)
        )
        expected_lr = run.task.optimizer.lr
        assert expected_lr != 1.0  # the memory's own default gamma
        assert len(trainer.memories) == 2
        for memory in trainer.memories:
            assert isinstance(memory, ResidualMemory)
            assert memory.beta == 1.0
            assert memory.gamma == pytest.approx(expected_lr)

    def test_compressor_params_forwarded(self):
        tight, loose = (
            run_cell(Cell("ncf-movielens", "topk", {"ratio": ratio},
                          workers=2, epochs=1)).report
            for ratio in (0.001, 0.1)
        )
        assert (
            tight.bytes_per_worker_per_iteration
            < loose.bytes_per_worker_per_iteration
        )

    def test_memory_override_forwarded(self):
        trainer, _ = build_trainer(
            Cell("ncf-movielens", "topk", memory="none", workers=2)
        )
        assert {type(m).__name__ for m in trainer.memories} == {"NoneMemory"}

    def test_same_seed_reproducible(self):
        a, b = (
            run_cell(Cell("ncf-movielens", "qsgd", workers=2, epochs=1,
                          seed=5)).report
            for _ in range(2)
        )
        assert a.best_quality == b.best_quality
        assert a.epoch_losses == b.epoch_losses
