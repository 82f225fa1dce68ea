"""End-to-end distributed training across task types and compressors."""

import numpy as np
import pytest

from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.core.config import Cell
from repro.comm import Communicator, NCCL, ethernet
from repro.core import DistributedTrainer, create
from repro.datasets import make_image_classification
from repro.metrics import top1_accuracy
from repro.ndl import ArrayDataset, ModelTask, SGD, ShardedLoader
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP


def mlp_setup(n_workers=4, seed=0):
    images, labels = make_image_classification(
        384, image_size=8, channels=1, num_classes=4, noise=0.4, seed=seed
    )
    x, y = images[:256], labels[:256]
    xt, yt = images[256:], labels[256:]
    model = MLP(64, [48], 4, seed=seed)
    task = ModelTask(
        model, SGD(model.named_parameters(), lr=0.1, momentum=0.9),
        softmax_cross_entropy,
    )
    loader = ShardedLoader(ArrayDataset(x, y), n_workers, 16, seed=seed)
    return model, task, loader, (xt, yt)


class TestImageClassificationEndToEnd:
    @pytest.mark.parametrize(
        "name",
        ["none", "topk", "dgc", "efsignsgd", "qsgd", "powersgd", "terngrad",
         "onebit", "natural", "adaptive"],
    )
    def test_compressed_training_learns(self, name):
        model, task, loader, (xt, yt) = mlp_setup()
        trainer = DistributedTrainer(task, create(name), n_workers=4)
        report = trainer.train(
            loader, epochs=6, eval_fn=lambda: top1_accuracy(model, xt, yt)
        )
        assert report.best_quality > 0.5, name  # chance is 0.25

    def test_loss_decreases_monotonically_enough(self):
        _, task, loader, _ = mlp_setup()
        trainer = DistributedTrainer(task, create("topk"), n_workers=4)
        report = trainer.train(loader, epochs=4)
        assert report.epoch_losses[-1] < report.epoch_losses[0]


class TestBenchmarkCells:
    """One (benchmark, compressor) training cell per task family."""

    def test_recommendation_with_compression(self):
        report = run_cell(
            Cell("ncf-movielens", "topk", workers=2, epochs=3)
        ).report
        assert report.best_quality > 0.3

    def test_language_modeling_with_compression(self):
        spec = get_benchmark("lstm-ptb")
        report = run_cell(Cell(spec.key, "qsgd", workers=2, epochs=3)).report
        perplexity = spec.display_quality(report.best_quality)
        assert perplexity < 33  # vocabulary size: uniform model scores 32

    def test_segmentation_with_compression(self):
        report = run_cell(
            Cell("unet-dagm", "efsignsgd", workers=2, epochs=3)
        ).report
        assert report.best_quality > 0.2

    def test_report_accounts_volume_reduction(self):
        spec = get_benchmark("ncf-movielens")
        base, topk = (
            run_cell(Cell(spec.key, name, workers=2, epochs=1)).report
            for name in ("none", "topk")
        )
        assert (
            topk.bytes_per_worker_per_iteration
            < 0.2 * base.bytes_per_worker_per_iteration
        )


class TestBackendConstraints:
    def test_nccl_cannot_carry_variable_sparse_payloads(self):
        # The paper's footnote 7: NCCL constrains input sizes.  Top-k
        # payloads are equal-size across ranks, but threshold-based
        # selection produces variable sizes, which NCCL must reject.
        _, task, loader, _ = mlp_setup(n_workers=2)
        comm = Communicator(2, ethernet(10.0), NCCL)
        trainer = DistributedTrainer(
            task, create("thresholdv", threshold=1e-4), n_workers=2,
            communicator=comm,
        )
        with pytest.raises(ValueError, match="uniform input sizes"):
            trainer.train(loader, epochs=1)


class TestReproducibility:
    def test_same_seed_same_trajectory(self):
        def run():
            model, task, loader, _ = mlp_setup(seed=7)
            trainer = DistributedTrainer(
                task, create("qsgd"), n_workers=4, seed=11
            )
            trainer.train(loader, epochs=1)
            return model.state_dict()

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_compressor_seeds_diverge(self):
        def run(seed):
            model, task, loader, _ = mlp_setup(seed=7)
            trainer = DistributedTrainer(
                task, create("qsgd"), n_workers=4, seed=seed
            )
            trainer.train(loader, epochs=1)
            return model.state_dict()

        a, b = run(1), run(2)
        assert any(not np.array_equal(a[n], b[n]) for n in a)


class TestScalingWorkers:
    @pytest.mark.parametrize("n_workers", [1, 2, 8])
    def test_trainer_supports_worker_counts(self, n_workers):
        model, task, loader, (xt, yt) = mlp_setup(n_workers=n_workers)
        trainer = DistributedTrainer(task, create("topk"),
                                     n_workers=n_workers)
        report = trainer.train(loader, epochs=1)
        assert report.iterations == len(loader)

    def test_more_workers_more_bytes_same_per_worker_volume(self):
        results = {}
        for n_workers in (2, 4):
            model, task, loader, _ = mlp_setup(n_workers=n_workers)
            trainer = DistributedTrainer(task, create("none"),
                                         n_workers=n_workers)
            trainer.train(loader, epochs=1)
            results[n_workers] = (
                trainer.report.bytes_per_worker_per_iteration
            )
        # Allreduce: each worker contributes the same tensor volume
        # regardless of the worker count.
        assert results[2] == pytest.approx(results[4], rel=0.01)
