"""Decentralized (gossip) training with compression."""

import numpy as np
import pytest

from repro.comm import complete_topology, ring_topology
from repro.core import DecentralizedTrainer, create
from repro.datasets import make_image_classification
from repro.metrics import top1_accuracy
from repro.ndl import ModelTask, SGD
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP


def make_tasks(n_nodes, seed=0, lr=0.1):
    """Identical replicas (same init), one task per node."""
    tasks = []
    reference = None
    for node in range(n_nodes):
        model = MLP(16, [24], 3, seed=seed)  # same seed -> same init
        if reference is None:
            reference = model.state_dict()
        else:
            model.load_state_dict(reference)
        tasks.append(
            ModelTask(model, SGD(model.named_parameters(), lr=lr),
                      softmax_cross_entropy)
        )
    return tasks


def make_batches(n_nodes, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((8, 16)).astype(np.float32),
         rng.integers(0, 3, 8))
        for _ in range(n_nodes)
    ]


class TestConstruction:
    def test_rejects_task_topology_mismatch(self):
        with pytest.raises(ValueError, match="topology"):
            DecentralizedTrainer(
                make_tasks(3), create("none"), ring_topology(4)
            )

    def test_rejects_negative_consensus_period(self):
        with pytest.raises(ValueError, match="consensus_period"):
            DecentralizedTrainer(
                make_tasks(4), create("none"), ring_topology(4),
                consensus_period=-1,
            )

    def test_rejects_wrong_batch_count(self):
        trainer = DecentralizedTrainer(
            make_tasks(4), create("none"), ring_topology(4)
        )
        with pytest.raises(ValueError, match="batches"):
            trainer.step(make_batches(2, 0))


class TestLearning:
    def test_gossip_training_learns_a_shared_task(self):
        # All nodes draw from the same distribution: a connected overlay
        # with mixing must learn it and keep replicas close.
        images, labels = make_image_classification(
            480, image_size=4, channels=1, num_classes=3, noise=0.4, seed=0
        )
        images = images.reshape(len(images), -1)
        tasks = make_tasks(4, lr=0.1)
        trainer = DecentralizedTrainer(
            tasks, create("topk", ratio=0.3), ring_topology(4),
            consensus_period=5,
        )
        rng = np.random.default_rng(0)
        first_loss = None
        for step in range(60):
            idx = rng.choice(384, size=(4, 8))
            batches = [(images[i], labels[i]) for i in idx]
            loss = trainer.step(batches)
            first_loss = first_loss if first_loss is not None else loss
        assert loss < first_loss
        accuracy = np.mean([
            top1_accuracy(task.model, images[384:], labels[384:])
            for task in tasks
        ])
        assert accuracy > 0.55

    def test_consensus_distance_stays_bounded(self):
        tasks = make_tasks(4)
        trainer = DecentralizedTrainer(
            tasks, create("qsgd"), ring_topology(4), consensus_period=3
        )
        for step in range(12):
            trainer.step(make_batches(4, step))
        distances = trainer.consensus_distances
        assert distances[-1] < 0.5
        assert len(distances) == 12

    def test_no_consensus_step_lets_replicas_drift_more(self):
        def final_distance(consensus_period):
            tasks = make_tasks(4)
            trainer = DecentralizedTrainer(
                tasks, create("randomk", ratio=0.1), ring_topology(4),
                consensus_period=consensus_period,
            )
            for step in range(20):
                trainer.step(make_batches(4, step))
            return trainer.consensus_distances[-1]

        assert final_distance(0) >= final_distance(2)

    def test_denser_topology_mixes_faster(self):
        def distance(topology):
            tasks = make_tasks(topology.n_nodes)
            trainer = DecentralizedTrainer(
                tasks, create("none"), topology, consensus_period=0
            )
            # Give each node a *different* data stream to force drift.
            for step in range(15):
                batches = [
                    make_batches(1, 100 * node + step)[0]
                    for node in range(topology.n_nodes)
                ]
                trainer.step(batches)
            return trainer.consensus_distances[-1]

        assert distance(complete_topology(6)) <= distance(ring_topology(6))

    def test_each_node_applies_its_neighbourhood_mix(self):
        topology = ring_topology(4)
        trainer = DecentralizedTrainer(
            make_tasks(4), create("none"), topology, consensus_period=0
        )
        before = [task.model.state_dict() for task in trainer.tasks]
        batches = make_batches(4, 0)
        grads = [
            task.forward_backward(*batch)[1]
            for task, batch in zip(make_tasks(4), batches)
        ]
        trainer.step(batches)
        for node, task in enumerate(trainer.tasks):
            after = task.model.state_dict()
            for name in after:
                mixed = topology.mixing_weight(node, node) * grads[node][name]
                for source in topology.neighbors(node):
                    mixed = mixed + (
                        topology.mixing_weight(node, source)
                        * grads[source][name]
                    )
                np.testing.assert_allclose(
                    after[name], before[node][name] - 0.1 * mixed,
                    rtol=1e-6, atol=1e-7,
                )


class TestAccounting:
    @pytest.mark.parametrize("consensus_period", [0, 2])
    def test_report_holds_every_round_the_record_charged(
        self, consensus_period
    ):
        trainer = DecentralizedTrainer(
            make_tasks(4), create("topk", ratio=0.25), ring_topology(4),
            consensus_period=consensus_period,
        )
        for step in range(4):
            trainer.step(make_batches(4, step))
        record = trainer.comm.record
        assert trainer.report.bytes_per_worker == pytest.approx(
            record.bytes_sent_per_worker, rel=1e-12
        )
        assert trainer.report.sim_comm_seconds == pytest.approx(
            record.simulated_seconds, rel=1e-12
        )

    def test_comm_costs_recorded(self):
        tasks = make_tasks(4)
        trainer = DecentralizedTrainer(
            tasks, create("topk", ratio=0.1), ring_topology(4)
        )
        trainer.step(make_batches(4, 0))
        assert trainer.report.sim_comm_seconds > 0
        assert trainer.report.bytes_per_worker > 0

    def test_compression_reduces_gossip_bytes(self):
        def bytes_for(name, **params):
            tasks = make_tasks(4)
            trainer = DecentralizedTrainer(
                tasks, create(name, **params), ring_topology(4),
                consensus_period=0,
            )
            trainer.step(make_batches(4, 0))
            return trainer.report.bytes_per_worker

        assert bytes_for("topk", ratio=0.05) < 0.25 * bytes_for("none")
