"""Decentralized (gossip) training with compressed communication.

The paper's §VI leaves P2P-overlay aggregation as future work for the
framework; this module provides it.  The loop is compressed D-PSGD:

1. every node computes a local stochastic gradient on its shard;
2. φ/Q/ψ run exactly as in Algorithm 1, through the same per-rank step
   as :class:`~repro.core.trainer.DistributedTrainer` (each tensor a
   one-segment bucket) — but the compressed gradient travels only to
   overlay *neighbours*;
3. each node averages its own gradient with its neighbours' decompressed
   gradients using the topology's Metropolis mixing weights and applies
   the result to its own replica;
4. every ``consensus_period`` iterations, nodes additionally gossip
   their *parameters* (uncompressed) one mixing step, which bounds
   replica disagreement.

Step 3 is why this trainer keeps a loop of its own after the exchange:
Algorithm 1 ends in one aggregate the whole cohort applies, while here
every node applies its own weighted mix of its neighbours' decodes.
Each payload is decoded once, and every receiver mixes the same arrays.

Unlike the synchronous all-to-all trainer, every node owns a distinct
model replica, so the caller supplies one task per node.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.gossip import GossipCommunicator, Topology
from repro.core.api import Compressor
from repro.core.fusion import tensor_bucket
from repro.core.trainer import DistributedTask, RankPipeline, TrainingReport


class DecentralizedTrainer(RankPipeline):
    """Compressed gossip SGD over an overlay topology.

    Parameters
    ----------
    tasks:
        One :class:`DistributedTask` per node (each owns its replica).
        Tasks must expose ``model.state_dict`` / ``load_state_dict`` for
        the periodic parameter-consensus step; pass
        ``consensus_period=0`` to disable it for tasks without models.
    compressor:
        Prototype compressor, cloned per node.
    topology:
        Overlay graph (see :mod:`repro.comm.gossip`).
    consensus_period:
        Gossip the parameters every this many iterations (0 = never).
    tracer:
        Optional :class:`~repro.telemetry.tracing.Tracer`; the default
        no-op tracer leaves the loop untouched.
    """

    def __init__(
        self,
        tasks: list[DistributedTask],
        compressor: Compressor,
        topology: Topology,
        communicator: GossipCommunicator | None = None,
        memory: str | None = None,
        memory_params: dict | None = None,
        consensus_period: int = 10,
        seed: int = 0,
        tracer=None,
    ):
        if len(tasks) != topology.n_nodes:
            raise ValueError(
                f"{len(tasks)} tasks for a {topology.n_nodes}-node topology"
            )
        if consensus_period < 0:
            raise ValueError("consensus_period must be >= 0")
        self.tasks = tasks
        self.topology = topology
        self.comm = (
            communicator
            if communicator is not None
            else GossipCommunicator(topology)
        )
        if self.comm.n_workers != topology.n_nodes:
            raise ValueError("communicator and topology disagree on size")
        self.n_workers = topology.n_nodes
        self.consensus_period = int(consensus_period)
        self._build_ranks(compressor, memory, memory_params, seed, tracer)
        self.report = TrainingReport(metrics=self.metrics)
        #: :meth:`consensus_distance` after every iteration.
        self.consensus_distances: list[float] = []

    # ------------------------------------------------------------------

    def step(self, batches: list[tuple[Any, Any]]) -> float:
        """One decentralized iteration."""
        if len(batches) != self.n_workers:
            raise ValueError(
                f"need {self.n_workers} per-node batches, got {len(batches)}"
            )
        tracer = self.tracer
        with tracer.span(
            "iteration", iteration=self.report.iterations, mode="gossip"
        ):
            return self._step_traced(batches)

    def _step_traced(self, batches: list[tuple[Any, Any]]) -> float:
        tracer = self.tracer
        losses = []
        grads: list[dict[str, np.ndarray]] = []
        for node, (inputs, targets) in enumerate(batches):
            with tracer.span("compute", rank=node):
                loss, gradient = self.tasks[node].forward_backward(
                    inputs, targets
                )
            losses.append(loss)
            grads.append(gradient)

        record = self.comm.record
        comm_before = record.simulated_seconds
        bytes_before = record.bytes_sent_per_worker
        # Compress per tensor, exchange with neighbours, mix locally.
        aggregated: list[dict] = [{} for _ in range(self.n_workers)]
        decoder = self.compressors[0]
        for name, gradient in grads[0].items():
            bucket = tensor_bucket(name, np.shape(gradient))
            where = {"tensor": name}
            wire, decoded, _ = zip(*(
                self._compress_rank(node, grads[node], bucket, None, where)
                for node in range(self.n_workers)
            ))
            self._gossip([c.payload for c in wire], **where)
            with tracer.span("decompress", **where, ranks=len(wire)):
                flats = [
                    flat if flat is not None
                    else decoder.decompress_fused(packed)
                    for packed, flat in zip(wire, decoded)
                ]
            for node in range(self.n_workers):
                with tracer.span("aggregate", rank=node, **where):
                    aggregated[node].update(
                        bucket.unpack(self._mix(node, flats))
                    )
        with tracer.span("apply_update"):
            for node in range(self.n_workers):
                self.tasks[node].apply_update(aggregated[node])

        self.report.iterations += 1
        if (
            self.consensus_period
            and self.report.iterations % self.consensus_period == 0
        ):
            with tracer.span("parameter_consensus"):
                self._parameter_consensus()
        # After the consensus round, so the report holds every round the
        # record charged.
        self.report.sim_comm_seconds += record.simulated_seconds - comm_before
        self.report.bytes_per_worker += (
            record.bytes_sent_per_worker - bytes_before
        )
        self.consensus_distances.append(self.consensus_distance())
        mean_loss = float(np.mean(losses))
        self.report.losses.append(mean_loss)
        return mean_loss

    def _gossip(self, payloads: list, **where) -> None:
        """One neighbourhood exchange (to exactly the topology's
        neighbours, whom :meth:`_mix` reads) under a ``collective`` span
        that carries what the round charged."""
        record = self.comm.record
        sim_before = record.simulated_seconds
        wire_before = record.bytes_sent_per_worker
        with self.tracer.span(
            "collective", **where, op="gossip_exchange"
        ) as span:
            self.comm.exchange(payloads)
        if self.tracer.enabled:
            span.add_sim(record.simulated_seconds - sim_before)
            span.set(
                bytes_per_worker=record.bytes_sent_per_worker - wire_before
            )

    def _mix(self, node: int, values: list[np.ndarray]) -> np.ndarray:
        """``node``'s Metropolis mix of its own and its neighbours' values."""
        mixed = self.topology.mixing_weight(node, node) * values[node]
        for source in self.topology.neighbors(node):
            weight = self.topology.mixing_weight(node, source)
            mixed = mixed + weight * values[source]
        return mixed

    # ------------------------------------------------------------------

    def _states(self) -> list[dict[str, np.ndarray]]:
        return [task.model.state_dict() for task in self.tasks]

    def _parameter_consensus(self) -> None:
        """One uncompressed gossip mixing step over the parameters."""
        states = self._states()
        # Charges the round's cost; the data mixed is `states`.
        self._gossip([list(state.values()) for state in states])
        mixed_states = [
            {
                name: self._mix(node, [state[name] for state in states])
                for name in states[node]
            }
            for node in range(self.n_workers)
        ]
        for task, mixed in zip(self.tasks, mixed_states):
            task.model.load_state_dict(mixed)

    def consensus_distance(self) -> float:
        """Mean parameter distance of replicas from the replica mean."""
        if not hasattr(self.tasks[0], "model"):
            return 0.0
        states = self._states()
        total = 0.0
        for name in states[0]:
            stack = np.stack([state[name] for state in states])
            total += float(np.mean((stack - stack.mean(axis=0)) ** 2))
        return float(np.sqrt(total / max(len(states[0]), 1)))
