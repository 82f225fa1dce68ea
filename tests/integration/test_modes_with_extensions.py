"""Extension compressors compose with every training mode."""

import numpy as np
import pytest

from repro.comm import ring_topology
from repro.core import (
    DecentralizedTrainer,
    DistributedTrainer,
    LocalSGDTrainer,
    create,
)
from repro.ndl import ModelTask, SGD
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP


def make_tasks(n, seed=0):
    tasks = []
    reference = None
    for _ in range(n):
        model = MLP(8, [12], 3, seed=seed)
        if reference is None:
            reference = model.state_dict()
        else:
            model.load_state_dict(reference)
        tasks.append(
            ModelTask(model, SGD(model.named_parameters(), lr=0.1),
                      softmax_cross_entropy)
        )
    return tasks


def make_batches(n, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((4, 8)).astype(np.float32),
         rng.integers(0, 3, 4))
        for _ in range(n)
    ]


EXTENSION_PARAMS = {
    "lpcsvrg": {},
    "variance": {"ratio": 0.25},
    "sketchsgd": {"ratio": 0.1},
    "qsparse": {"ratio": 0.2},
    "threelc": {},
    "atomo": {"min_compress_size": 16},
    "gradiveq": {"min_compress_size": 16},
    "gradzip": {"min_compress_size": 16},
}


@pytest.mark.parametrize("name,params", sorted(EXTENSION_PARAMS.items()))
class TestExtensionCompose:
    def test_synchronous_trainer(self, name, params):
        tasks = make_tasks(1)
        trainer = DistributedTrainer(tasks[0], create(name, **params),
                                     n_workers=2)
        for step in range(3):
            loss = trainer.step(make_batches(2, step))
        assert np.isfinite(loss)

    def test_local_sgd_trainer(self, name, params):
        trainer = LocalSGDTrainer(
            make_tasks(2), create(name, **params), sync_period=2
        )
        for step in range(4):
            trainer.step(make_batches(2, step))
        assert trainer.report.iterations // trainer.sync_period == 2

    def test_decentralized_trainer(self, name, params):
        trainer = DecentralizedTrainer(
            make_tasks(3), create(name, **params), ring_topology(3),
            consensus_period=2,
        )
        for step in range(4):
            loss = trainer.step(make_batches(3, step))
        assert np.isfinite(loss)
        assert np.isfinite(trainer.consensus_distances[-1])
