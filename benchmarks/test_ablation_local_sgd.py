"""Ablation: communication frequency (Local SGD, related-work §VI).

Periodic averaging trades synchronization bytes against convergence:
longer local periods cut communication linearly but let replicas drift.
Sweeps the sync period H on a shared classification task with compressed
delta synchronization.
"""

import numpy as np

from repro.bench.report import format_table
from repro.core import LocalSGDTrainer, create
from repro.datasets import make_image_classification
from repro.metrics import top1_accuracy
from repro.ndl import ModelTask, SGD
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP

PERIODS = (1, 4, 16)
STEPS = 48
N_NODES = 4


def run_period(sync_period: int) -> dict:
    images, labels = make_image_classification(
        600, image_size=4, channels=1, num_classes=3, noise=0.4, seed=0
    )
    x = images.reshape(len(images), -1)
    tasks = []
    reference = None
    for _ in range(N_NODES):
        model = MLP(16, [24], 3, seed=0)
        if reference is None:
            reference = model.state_dict()
        else:
            model.load_state_dict(reference)
        tasks.append(
            ModelTask(model, SGD(model.named_parameters(), lr=0.1),
                      softmax_cross_entropy)
        )
    trainer = LocalSGDTrainer(
        tasks, create("topk", ratio=0.25), sync_period=sync_period
    )
    rng = np.random.default_rng(0)
    for step in range(STEPS):
        idx = rng.choice(480, size=(N_NODES, 8))
        trainer.step([(x[i], labels[i]) for i in idx])
    accuracy = float(np.mean([
        top1_accuracy(task.model, x[480:], labels[480:]) for task in tasks
    ]))
    return {
        "sync_period": sync_period,
        "accuracy": accuracy,
        "sync_rounds": trainer.report.iterations // trainer.sync_period,
        "bytes_per_worker": trainer.report.bytes_per_worker,
    }


def test_ablation_local_sgd(benchmark, record):
    rows = benchmark.pedantic(
        lambda: [run_period(h) for h in PERIODS], rounds=1, iterations=1
    )
    record(
        "ablation_local_sgd",
        format_table(
            ["Sync period H", "Accuracy", "Sync rounds", "Bytes/worker"],
            [[r["sync_period"], r["accuracy"], r["sync_rounds"],
              r["bytes_per_worker"]] for r in rows],
        ),
    )
    by_period = {r["sync_period"]: r for r in rows}
    # Communication drops linearly with H.
    assert by_period[16]["bytes_per_worker"] < (
        0.15 * by_period[1]["bytes_per_worker"]
    )
    # All settings still learn (well above 1/3 chance).
    for row in rows:
        assert row["accuracy"] > 0.45, row
