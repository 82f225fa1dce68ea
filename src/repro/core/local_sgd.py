"""Local SGD: fewer communication rounds, compressed sync (related-work
§VI: periodic-averaging SGD; the "local computations" half of
Qsparse-local-SGD from Table I).

Every node runs ``sync_period`` purely local optimizer steps, then the
nodes synchronize by exchanging their *model deltas* since the last
synchronization point, compressed with any GRACE compressor (with error
feedback, per the method's default).  After a sync every replica equals
``x_sync + mean_i Q(x_i - x_sync)`` — with ``sync_period=1`` and the
identity compressor this reduces to ordinary synchronous data-parallel
SGD.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.collectives import Communicator
from repro.core.api import Compressor
from repro.core.memory import Memory, make_memory
from repro.core.trainer import DistributedTask, TrainingReport
from repro.core.rng import spawn_worker_seeds


class LocalSGDTrainer:
    """Periodic model averaging with compressed delta synchronization.

    Parameters
    ----------
    tasks:
        One task per node; each owns its replica (``task.model`` must
        support ``state_dict`` / ``load_state_dict``).  Replicas must
        start identical.
    compressor:
        Applied to the per-node model deltas at each sync.
    sync_period:
        Local steps between synchronizations (H in the literature).
    """

    def __init__(
        self,
        tasks: list[DistributedTask],
        compressor: Compressor,
        sync_period: int = 4,
        communicator: Communicator | None = None,
        memory: str | None = None,
        memory_params: dict | None = None,
        seed: int = 0,
    ):
        if len(tasks) < 1:
            raise ValueError("need at least one task")
        if sync_period < 1:
            raise ValueError(f"sync_period must be >= 1, got {sync_period}")
        self.tasks = tasks
        self.n_workers = len(tasks)
        self.sync_period = int(sync_period)
        self.comm = (
            communicator
            if communicator is not None
            else Communicator(n_workers=self.n_workers)
        )
        if self.comm.n_workers != self.n_workers:
            raise ValueError("communicator size disagrees with task count")
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
        self._sync_point = self.tasks[0].model.state_dict()
        for task in self.tasks[1:]:
            for name, value in task.model.state_dict().items():
                if not np.array_equal(value, self._sync_point[name]):
                    raise ValueError("replicas must start identical")
        self.report = TrainingReport()

    @property
    def sync_rounds(self) -> int:
        """Synchronizations so far: one every ``sync_period`` iterations."""
        return self.report.iterations // self.sync_period

    # ------------------------------------------------------------------

    def step(self, batches: list[tuple[Any, Any]]) -> float:
        """One local step per node; sync every ``sync_period`` steps."""
        if len(batches) != self.n_workers:
            raise ValueError(
                f"need {self.n_workers} per-node batches, got {len(batches)}"
            )
        losses = []
        for node, (inputs, targets) in enumerate(batches):
            loss, grads = self.tasks[node].forward_backward(inputs, targets)
            self.tasks[node].apply_update(grads)  # purely local
            losses.append(loss)
        self.report.iterations += 1
        if self.report.iterations % self.sync_period == 0:
            self._synchronize()
        mean_loss = float(np.mean(losses))
        self.report.losses.append(mean_loss)
        return mean_loss

    def _synchronize(self) -> None:
        """Compressed delta averaging back to a common point."""
        comm_before = self.comm.record.simulated_seconds
        bytes_before = self.comm.record.bytes_sent_per_worker
        states = [task.model.state_dict() for task in self.tasks]
        new_point: dict[str, np.ndarray] = {}
        for name, anchor in self._sync_point.items():
            compressed = []
            for node in range(self.n_workers):
                delta = states[node][name] - anchor
                memory = self.memories[node]
                compensated = memory.compensate(delta, name)
                packed = self.compressors[node].compress(compensated, name)
                memory.update(compensated, name, self.compressors[node],
                              packed)
                compressed.append(packed)
            decoder = self.compressors[0]
            if decoder.communication == "allreduce":
                summed_parts = [
                    self.comm.allreduce(
                        [c.payload[part] for c in compressed]
                    )
                    for part in range(len(compressed[0].payload))
                ]
                from repro.core.api import CompressedTensor

                summed = CompressedTensor(
                    payload=summed_parts, ctx=compressed[0].ctx
                )
                mean_delta = decoder.decompress(summed) / self.n_workers
            else:
                self.comm.allgather([c.payload for c in compressed])
                mean_delta = decoder.aggregate(
                    [decoder.decompress(c) for c in compressed]
                )
            new_point[name] = anchor + mean_delta.reshape(anchor.shape)
        self._sync_point = new_point
        for task in self.tasks:
            task.model.load_state_dict(
                {name: value.copy() for name, value in new_point.items()}
            )
        self.report.sim_comm_seconds += (
            self.comm.record.simulated_seconds - comm_before
        )
        self.report.bytes_per_worker += (
            self.comm.record.bytes_sent_per_worker - bytes_before
        )

    def replica_divergence(self) -> float:
        """Max parameter distance between any replica and the sync point."""
        worst = 0.0
        for task in self.tasks:
            for name, value in task.model.state_dict().items():
                worst = max(
                    worst,
                    float(np.max(np.abs(value - self._sync_point[name]))),
                )
        return worst
