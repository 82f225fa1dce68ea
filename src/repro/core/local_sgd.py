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

A sync is one step of Algorithm 1 (:class:`DistributedTrainer`) whose
"gradients" are the model deltas: the compressor is one operator applied
to whatever vector the algorithm sends, so the sync runs the same φ, Q,
ψ, collective and Agg as gradient training.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.collectives import Communicator
from repro.core.api import Compressor
from repro.core.trainer import DistributedTask, DistributedTrainer, TrainingReport


class _DeltaTask:
    """The task a sync runs Algorithm 1 on.

    Rank ``r``'s gradient is replica ``r``'s model delta since the last
    sync, in the anchor's tensor order; applying the mean delta moves the
    anchor there and loads it into every replica.
    """

    def __init__(self, tasks: list[DistributedTask]):
        self.tasks = tasks
        self.anchor = tasks[0].model.state_dict()

    def forward_backward(self, node: int, _targets) -> tuple[float, dict]:
        state = self.tasks[node].model.state_dict()
        return 0.0, {
            name: state[name] - anchor for name, anchor in self.anchor.items()
        }

    def apply_update(self, mean_delta: dict[str, np.ndarray]) -> None:
        self.anchor = {
            name: anchor + mean_delta[name].reshape(anchor.shape)
            for name, anchor in self.anchor.items()
        }
        for task in self.tasks:
            task.model.load_state_dict(
                {name: value.copy() for name, value in self.anchor.items()}
            )


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
        delta_task = _DeltaTask(tasks)
        for task in self.tasks[1:]:
            for name, value in task.model.state_dict().items():
                if not np.array_equal(value, delta_task.anchor[name]):
                    raise ValueError("replicas must start identical")
        # A sync exchanges payloads by the compressor's own strategy on
        # any communicator, as it always has, so its charges do not
        # depend on whether that communicator aggregates compressed.
        self._sync = DistributedTrainer(
            delta_task, compressor, n_workers=self.n_workers,
            memory=memory, memory_params=memory_params,
            communicator=communicator, seed=seed, aggregation="off",
        )
        self.comm = self._sync.comm
        self.report = TrainingReport()

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
            self._sync.step([(node, None) for node in range(self.n_workers)])
            self.report.sim_comm_seconds = self._sync.report.sim_comm_seconds
            self.report.bytes_per_worker = self._sync.report.bytes_per_worker
        mean_loss = float(np.mean(losses))
        self.report.losses.append(mean_loss)
        return mean_loss
