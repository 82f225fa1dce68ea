"""Decentralized (gossip) training with compressed communication.

The paper's §VI leaves P2P-overlay aggregation as future work for the
framework; this module provides it.  The loop is compressed D-PSGD:

1. every node computes a local stochastic gradient on its shard;
2. φ/Q/ψ run exactly as in Algorithm 1 (same compressors, same
   memories) — but the compressed gradient travels only to overlay
   *neighbours*;
3. each node averages its own gradient with its neighbours' decompressed
   gradients using the topology's Metropolis mixing weights and applies
   the result to its own replica;
4. every ``consensus_period`` iterations, nodes additionally gossip
   their *parameters* (uncompressed) one mixing step, which bounds
   replica disagreement.

Unlike the synchronous all-to-all trainer, every node owns a distinct
model replica, so the caller supplies one task per node.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.gossip import GossipCommunicator, Topology
from repro.core.api import Compressor
from repro.core.memory import Memory, make_memory
from repro.core.trainer import DistributedTask, TrainingReport
from repro.core.rng import spawn_worker_seeds
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import NULL_TRACER


class DecentralizedTrainer:
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
        metrics: MetricsRegistry | None = None,
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
        node_seeds = spawn_worker_seeds(seed, self.n_workers)
        self.compressors = [
            compressor.clone(seed=node_seeds[node])
            for node in range(self.n_workers)
        ]
        memory_kind = memory if memory is not None else compressor.default_memory
        self.memories: list[Memory] = [
            make_memory(memory_kind, **dict(memory_params or {}))
            for _ in range(self.n_workers)
        ]
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if metrics is not None:
            self.metrics = metrics
        elif self.tracer.enabled and isinstance(
            self.tracer.metrics, MetricsRegistry
        ):
            self.metrics = self.tracer.metrics
        else:
            self.metrics = MetricsRegistry()
        self.comm.record.bind(self.metrics)
        if self.tracer.enabled:
            for mem in self.memories:
                mem.attach_telemetry(self.metrics)
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

        names = list(grads[0])
        comm_before = self.comm.record.simulated_seconds
        bytes_before = self.comm.record.bytes_sent_per_worker
        # Compress per tensor, exchange with neighbours, mix locally.
        aggregated: list[dict[str, np.ndarray]] = [
            {} for _ in range(self.n_workers)
        ]
        for name in names:
            compressed = []
            for node in range(self.n_workers):
                memory = self.memories[node]
                with tracer.span("memory_compensate", rank=node, tensor=name):
                    compensated = memory.compensate(grads[node][name], name)
                with tracer.span("compress", rank=node, tensor=name) as span:
                    packed = self.compressors[node].compress(compensated, name)
                if tracer.enabled:
                    span.set(
                        nbytes_in=int(np.asarray(compensated).nbytes),
                        nbytes_out=packed.nbytes,
                    )
                memory.update(compensated, name, self.compressors[node],
                              packed)
                compressed.append(packed)
            sim_before = self.comm.record.simulated_seconds
            wire_before = self.comm.record.bytes_sent_per_worker
            with tracer.span(
                "collective", tensor=name, op="gossip_exchange"
            ) as span:
                inbox = self.comm.exchange([c.payload for c in compressed])
            if tracer.enabled:
                span.add_sim(self.comm.record.simulated_seconds - sim_before)
                span.set(
                    bytes_per_worker=self.comm.record.bytes_sent_per_worker
                    - wire_before
                )
            decoder = self.compressors[0]
            for node in range(self.n_workers):
                with tracer.span("decompress", rank=node, tensor=name):
                    own_weight = self.topology.mixing_weight(node, node)
                    mixed = own_weight * decoder.decompress(compressed[node])
                    for source, _payload in inbox[node]:
                        weight = self.topology.mixing_weight(node, source)
                        mixed = mixed + weight * decoder.decompress(
                            compressed[source]
                        )
                with tracer.span("aggregate", rank=node, tensor=name):
                    aggregated[node][name] = mixed
        with tracer.span("apply_update"):
            for node in range(self.n_workers):
                self.tasks[node].apply_update(aggregated[node])

        self.report.iterations += 1
        self.report.sim_comm_seconds += (
            self.comm.record.simulated_seconds - comm_before
        )
        self.report.bytes_per_worker += (
            self.comm.record.bytes_sent_per_worker - bytes_before
        )
        if (
            self.consensus_period
            and self.report.iterations % self.consensus_period == 0
        ):
            with tracer.span("parameter_consensus"):
                self._parameter_consensus()
        self.consensus_distances.append(self.consensus_distance())
        mean_loss = float(np.mean(losses))
        self.report.losses.append(mean_loss)
        return mean_loss

    # ------------------------------------------------------------------

    def _states(self) -> list[dict[str, np.ndarray]]:
        return [task.model.state_dict() for task in self.tasks]

    def _parameter_consensus(self) -> None:
        """One uncompressed gossip mixing step over the parameters."""
        states = self._states()
        payloads = [
            [value for value in state.values()] for state in states
        ]
        self.comm.exchange(payloads)  # charges the cost; data is `states`
        mixed_states = []
        for node in range(self.n_workers):
            mixed = {
                name: self.topology.mixing_weight(node, node) * value
                for name, value in states[node].items()
            }
            for neighbor in self.topology.neighbors(node):
                weight = self.topology.mixing_weight(node, neighbor)
                for name, value in states[neighbor].items():
                    mixed[name] = mixed[name] + weight * value
            mixed_states.append(mixed)
        for node in range(self.n_workers):
            self.tasks[node].model.load_state_dict(mixed_states[node])

    def consensus_distance(self) -> float:
        """Mean parameter distance of replicas from the replica mean."""
        if not hasattr(self.tasks[0], "model"):
            return 0.0
        states = self._states()
        names = list(states[0])
        total = 0.0
        count = 0
        for name in names:
            stack = np.stack([state[name] for state in states])
            mean = stack.mean(axis=0)
            total += float(np.mean((stack - mean) ** 2))
            count += 1
        return float(np.sqrt(total / max(count, 1)))
