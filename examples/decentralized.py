"""Decentralized (gossip) training over P2P overlays — the paper's §VI
future-work item, built on GRACE's own compressors.

Trains the same classification task three ways: centralized Allreduce,
a gossip ring, and a gossip complete graph, all with Top-k compression,
and compares accuracy, replica consensus and per-round communication.

Run:  python examples/decentralized.py
"""

import numpy as np

from repro.comm import complete_topology, ring_topology
from repro.core import DecentralizedTrainer, DistributedTrainer, create
from repro.datasets import make_image_classification
from repro.metrics import top1_accuracy
from repro.ndl import ArrayDataset, ModelTask, SGD, ShardedLoader
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP

N_NODES = 6
STEPS = 80


def build_data(seed=0):
    images, labels = make_image_classification(
        720, image_size=4, channels=1, num_classes=3, noise=0.4, seed=seed
    )
    images = images.reshape(len(images), -1)
    return (images[:576], labels[:576]), (images[576:], labels[576:])


def make_task(seed=0):
    model = MLP(16, [24], 3, seed=seed)
    return ModelTask(
        model, SGD(model.named_parameters(), lr=0.1), softmax_cross_entropy
    )


def run_centralized(train, test):
    (x, y), (xt, yt) = train, test
    task = make_task()
    trainer = DistributedTrainer(
        task, create("topk", ratio=0.1), n_workers=N_NODES
    )
    loader = ShardedLoader(ArrayDataset(x, y), N_NODES, 8, seed=0)
    iterator = iter(loader)
    for step in range(STEPS):
        try:
            batches = next(iterator)
        except StopIteration:
            iterator = iter(loader)
            batches = next(iterator)
        trainer.step(batches)
    accuracy = top1_accuracy(task.model, xt, yt)
    return accuracy, 0.0, trainer.report.bytes_per_worker / STEPS


def run_gossip(topology, train, test):
    (x, y), (xt, yt) = train, test
    tasks = [make_task(seed=0) for _ in range(N_NODES)]
    reference = tasks[0].model.state_dict()
    for task in tasks[1:]:
        task.model.load_state_dict(reference)
    trainer = DecentralizedTrainer(
        tasks, create("topk", ratio=0.1), topology, consensus_period=5
    )
    rng = np.random.default_rng(0)
    for step in range(STEPS):
        idx = rng.choice(len(x), size=(N_NODES, 8))
        trainer.step([(x[i], y[i]) for i in idx])
    accuracy = float(np.mean([
        top1_accuracy(task.model, xt, yt) for task in tasks
    ]))
    return (
        accuracy,
        trainer.consensus_distances[-1],
        trainer.report.bytes_per_worker / STEPS,
    )


def main():
    train, test = build_data()
    print(f"{'setting':<22} {'accuracy':>8} {'consensus dist':>14} "
          f"{'bytes/node/round':>16}")
    for label, runner in (
        ("centralized allreduce", lambda: run_centralized(train, test)),
        ("gossip ring",
         lambda: run_gossip(ring_topology(N_NODES), train, test)),
        ("gossip complete",
         lambda: run_gossip(complete_topology(N_NODES), train, test)),
    ):
        accuracy, distance, volume = runner()
        print(f"{label:<22} {accuracy:>8.3f} {distance:>14.4f} "
              f"{volume:>16,.0f}")
    print(
        "\nThe overlay trades per-round traffic (ring sends to 2 "
        "neighbours) against\nconsensus quality — the trade-off the "
        "paper's future-work note points at."
    )


if __name__ == "__main__":
    main()
