"""Local SGD: periodic averaging with compressed delta sync."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, LocalSGDTrainer, create
from repro.datasets import make_image_classification
from repro.metrics import top1_accuracy
from repro.ndl import ModelTask, SGD
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP


def make_tasks(n_nodes, seed=0, lr=0.1):
    tasks = []
    reference = None
    for _ in range(n_nodes):
        model = MLP(16, [24], 3, seed=seed)
        if reference is None:
            reference = model.state_dict()
        else:
            model.load_state_dict(reference)
        tasks.append(
            ModelTask(model, SGD(model.named_parameters(), lr=lr),
                      softmax_cross_entropy)
        )
    return tasks


def shared_data(seed=0):
    images, labels = make_image_classification(
        480, image_size=4, channels=1, num_classes=3, noise=0.4, seed=seed
    )
    return images.reshape(len(images), -1), labels


def batches_from(x, y, n_nodes, seed):
    rng = np.random.default_rng(seed)
    idx = rng.choice(384, size=(n_nodes, 8))
    return [(x[i], y[i]) for i in idx]


class TestConstruction:
    def test_validates_sync_period(self):
        with pytest.raises(ValueError, match="sync_period"):
            LocalSGDTrainer(make_tasks(2), create("none"), sync_period=0)

    def test_requires_identical_replicas(self):
        tasks = make_tasks(2)
        tasks[1].model.weightless = None  # no-op attr; now perturb weights
        params = tasks[1].model.state_dict()
        key = next(iter(params))
        params[key] = params[key] + 1.0
        tasks[1].model.load_state_dict(params)
        with pytest.raises(ValueError, match="identical"):
            LocalSGDTrainer(tasks, create("none"))

    def test_rejects_wrong_batch_count(self):
        trainer = LocalSGDTrainer(make_tasks(2), create("none"))
        with pytest.raises(ValueError, match="batches"):
            trainer.step([(np.zeros((1, 16), np.float32), np.zeros(1,
                                                                   np.int64))])


class TestEquivalence:
    def test_period_one_identity_compressor_matches_sync_sgd(self):
        # With H=1, plain SGD and lossless transport, local SGD equals
        # synchronous gradient averaging exactly.
        x, y = shared_data()
        local_tasks = make_tasks(4, lr=0.1)
        local = LocalSGDTrainer(local_tasks, create("none"), sync_period=1)

        sync_task = make_tasks(1, lr=0.1)[0]
        sync = DistributedTrainer(sync_task, create("none"), n_workers=4)

        for step in range(5):
            batch = batches_from(x, y, 4, step)
            local.step(batch)
            sync.step(batch)
        a = local_tasks[0].model.state_dict()
        b = sync_task.model.state_dict()
        for name in a:
            np.testing.assert_allclose(a[name], b[name], atol=1e-5)


class TestLearningAndAccounting:
    def test_learns_with_compressed_sync(self):
        x, y = shared_data()
        tasks = make_tasks(4)
        trainer = LocalSGDTrainer(
            tasks, create("topk", ratio=0.25), sync_period=4
        )
        first = None
        for step in range(40):
            loss = trainer.step(batches_from(x, y, 4, step))
            first = first if first is not None else loss
        assert loss < first
        accuracy = top1_accuracy(tasks[0].model, x[384:], y[384:])
        assert accuracy > 0.5

    def test_longer_period_fewer_sync_rounds_fewer_bytes(self):
        def run(sync_period):
            x, y = shared_data()
            tasks = make_tasks(2)
            trainer = LocalSGDTrainer(tasks, create("none"),
                                      sync_period=sync_period)
            for step in range(12):
                trainer.step(batches_from(x, y, 2, step))
            return trainer

        frequent = run(1)
        rare = run(4)
        assert frequent.report.iterations // frequent.sync_period == 12
        assert rare.report.iterations // rare.sync_period == 3
        assert (rare.report.bytes_per_worker
                < 0.5 * frequent.report.bytes_per_worker)

    def test_replicas_identical_right_after_sync(self):
        x, y = shared_data()
        tasks = make_tasks(3)
        trainer = LocalSGDTrainer(tasks, create("qsgd"), sync_period=2)
        trainer.step(batches_from(x, y, 3, 0))
        trainer.step(batches_from(x, y, 3, 1))  # sync happens here
        states = [task.model.state_dict() for task in tasks]
        for name in states[0]:
            np.testing.assert_array_equal(states[0][name], states[1][name])
            np.testing.assert_array_equal(states[0][name], states[2][name])

    def test_divergence_grows_between_syncs(self):
        x, y = shared_data()
        tasks = make_tasks(3)
        trainer = LocalSGDTrainer(tasks, create("none"), sync_period=10)
        trainer.step(batches_from(x, y, 3, 0))
        states = [task.model.state_dict() for task in tasks]
        assert any(
            not np.array_equal(states[0][name], states[1][name])
            for name in states[0]
        )
