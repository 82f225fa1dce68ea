"""Fault-injection resilience benchmark (`repro bench faults`).

Trains the same small strongly-convex task once fault-free and once per
fault scenario — crashes under both recovery policies, payload
corruption, packet drops and stragglers —
all with an error-feedback compressor, where lost residual state is the
failure mode worth measuring.

Every faulted cell reports its final loss next to the baseline's plus
the resilience accounting the run produced: retransmits, checksum
verdicts, recovery seconds and fault-overhead seconds from the cost
model.  The result serializes to ``BENCH_faults.json``; ``--check``
asserts the acceptance criteria:

* every crash scenario converges within :data:`LOSS_TOLERANCE` of the
  fault-free final loss (EF checkpoint/restore works);
* every injected corruption is caught by the CRC32 trailer (zero
  checksum misses) and retransmitted;
* wire faults surface in the cost model — the faulted run's simulated
  communication time exceeds the baseline's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.registry import create
from repro.core.trainer import DistributedTrainer

#: Maximum relative final-loss gap ``check()`` tolerates on crash cells.
LOSS_TOLERANCE = 0.01

#: The benchmark's compressor: error feedback makes crashes interesting.
COMPRESSOR = "efsignsgd"

#: Fault scenarios benchmarked against the fault-free baseline.
#: Every spec window sits inside the run's iteration range.
SCENARIOS: dict[str, dict] = {
    "crash-degrade": {
        "faults": "crash@8:rank=3,rejoin=12",
        "recovery": "degrade",
    },
    "crash-restart": {
        "faults": "crash@8:rank=3,rejoin=12",
        "recovery": "restart",
    },
    "corrupt": {
        "faults": "corrupt@5-20:rank=1,bits=8,p=0.5",
    },
    "drop": {
        "faults": "drop@5-20:rank=2,count=1,p=0.5",
    },
    "straggler-drop": {
        "faults": "straggler@5-20:rank=0,slow=4.0,p=0.5",
        "straggler_policy": "drop",
    },
}


class _QuadraticTask:
    """Minimize ``||x - target||²`` — self-contained, deterministic."""

    def __init__(self, dim: int = 64, lr: float = 0.05, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.x = np.zeros(dim, dtype=np.float32)
        self.target = rng.standard_normal(dim).astype(np.float32)
        self.lr = float(lr)

    def forward_backward(self, inputs, targets):
        noise = np.asarray(inputs, dtype=np.float32)
        grad = 2 * (self.x - self.target) + noise
        loss = float(np.sum((self.x - self.target) ** 2))
        return loss, {"x": grad}

    def apply_update(self, grads):
        self.x -= self.lr * grads["x"]


def _noise_batches(n_workers: int, dim: int, seed: int, scale: float = 0.05):
    rng = np.random.default_rng(seed)
    return [
        (scale * rng.standard_normal(dim).astype(np.float32), None)
        for _ in range(n_workers)
    ]


@dataclass
class FaultsBenchCell:
    """One scenario's outcome next to the fault-free baseline."""

    scenario: str
    faults: str
    final_loss: float
    baseline_loss: float
    faults_injected: int
    retries: int
    retransmit_bytes: float
    checksum_failures: int
    checksum_misses: int
    degraded_iterations: int
    recovery_seconds: float
    fault_overhead_seconds: float
    sim_comm_seconds: float

    @property
    def loss_gap(self) -> float:
        """Relative final-loss distance from the fault-free run."""
        scale = max(abs(self.baseline_loss), 1e-12)
        return abs(self.final_loss - self.baseline_loss) / scale

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["loss_gap"] = self.loss_gap
        return payload


@dataclass
class FaultsBenchResult:
    """The scenario grid plus its acceptance checks."""

    compressor: str
    n_workers: int
    iterations: int
    seed: int
    baseline_loss: float
    baseline_sim_comm_seconds: float
    cells: list[FaultsBenchCell] = field(default_factory=list)

    def check(self) -> list[str]:
        """Acceptance failures (empty when the run passes)."""
        failures = []
        if not self.cells:
            failures.append("no scenarios were benchmarked")
        for cell in self.cells:
            if cell.scenario.startswith("crash") and not (
                cell.loss_gap <= LOSS_TOLERANCE
            ):
                failures.append(
                    f"{cell.scenario}: final loss {cell.final_loss:.6f} is "
                    f"{100 * cell.loss_gap:.2f}% from the baseline "
                    f"{cell.baseline_loss:.6f} (tolerance "
                    f"{100 * LOSS_TOLERANCE:.0f}%)"
                )
            if cell.checksum_misses:
                failures.append(
                    f"{cell.scenario}: {cell.checksum_misses} corrupted "
                    f"frames slipped past the CRC32 trailer"
                )
            if cell.faults_injected == 0:
                failures.append(
                    f"{cell.scenario}: the plan injected no faults "
                    f"(window/probability bug?)"
                )
        restart = {c.scenario: c for c in self.cells}.get("crash-restart")
        if restart is not None and not restart.recovery_seconds > 0:
            failures.append(
                "crash-restart: the outage was not priced — "
                "sim recovery seconds is "
                f"{restart.recovery_seconds:.6f} (expected > 0)"
            )
        corrupt = {c.scenario: c for c in self.cells}.get("corrupt")
        if corrupt is not None:
            if corrupt.checksum_failures == 0:
                failures.append(
                    "corrupt: no corrupted frame was caught by the checksum"
                )
            if not corrupt.sim_comm_seconds > self.baseline_sim_comm_seconds:
                failures.append(
                    "corrupt: retransmits did not surface in the cost model "
                    f"({corrupt.sim_comm_seconds:.6f}s vs baseline "
                    f"{self.baseline_sim_comm_seconds:.6f}s)"
                )
        drop = {c.scenario: c for c in self.cells}.get("drop")
        if drop is not None and drop.retries == 0:
            failures.append("drop: no retransmission was performed")
        return failures

    def to_dict(self) -> dict:
        return {
            "compressor": self.compressor,
            "n_workers": self.n_workers,
            "iterations": self.iterations,
            "seed": self.seed,
            "baseline_loss": self.baseline_loss,
            "baseline_sim_comm_seconds": self.baseline_sim_comm_seconds,
            "loss_tolerance": LOSS_TOLERANCE,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def format(self) -> str:
        """Human-readable scenario table."""
        lines = [
            f"faults benchmark  : {self.compressor}, {self.n_workers} "
            f"workers, {self.iterations} iterations, seed {self.seed}",
            f"baseline loss     : {self.baseline_loss:.6f}",
            f"{'scenario':<22}{'loss':>12}{'gap':>9}{'faults':>8}"
            f"{'retries':>9}{'recovery s':>12}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.scenario:<22}{cell.final_loss:>12.6f}"
                f"{100 * cell.loss_gap:>8.2f}%{cell.faults_injected:>8}"
                f"{cell.retries:>9}{cell.recovery_seconds:>12.6f}"
            )
        return "\n".join(lines)


def _run_cell(
    scenario: str | None,
    options: dict,
    n_workers: int,
    iterations: int,
    dim: int,
    seed: int,
) -> tuple[float, DistributedTrainer]:
    """Train one configuration; returns (final loss, trainer)."""
    task = _QuadraticTask(dim=dim, seed=seed)
    trainer = DistributedTrainer(
        task,
        create(COMPRESSOR),
        n_workers=n_workers,
        memory_params={"beta": 1.0, "gamma": task.lr},
        seed=seed,
        **options,
    )
    loss = 0.0
    for step in range(iterations):
        loss = trainer.step(_noise_batches(n_workers, dim, seed=step))
    return loss, trainer


def _counter_total(trainer: DistributedTrainer, name: str) -> float:
    """Sum a counter across all of its label sets."""
    return sum(
        instrument.value
        for instrument in trainer.metrics.instruments()
        if instrument.name == name
    )


def run_faults_bench(
    n_workers: int = 4,
    iterations: int = 40,
    dim: int = 64,
    seed: int = 0,
    scenarios: dict[str, dict] | None = None,
) -> FaultsBenchResult:
    """Run every fault scenario against one fault-free baseline."""
    if n_workers < 2:
        raise ValueError("the crash scenarios need at least 2 workers")
    if iterations < 21:
        raise ValueError(
            "iterations must be > 20 so every scenario window is exercised"
        )
    grid = scenarios if scenarios is not None else SCENARIOS
    baseline_loss, baseline = _run_cell(
        None, {}, n_workers, iterations, dim, seed
    )
    result = FaultsBenchResult(
        compressor=COMPRESSOR,
        n_workers=n_workers,
        iterations=iterations,
        seed=seed,
        baseline_loss=baseline_loss,
        baseline_sim_comm_seconds=baseline.report.sim_comm_seconds,
    )
    for name, options in grid.items():
        loss, trainer = _run_cell(
            name, options, n_workers, iterations, dim, seed
        )
        result.cells.append(FaultsBenchCell(
            scenario=name,
            faults=options["faults"],
            final_loss=loss,
            baseline_loss=baseline_loss,
            faults_injected=int(
                _counter_total(trainer, "faults_injected_total")
            ),
            retries=int(_counter_total(trainer, "retries_total")),
            retransmit_bytes=_counter_total(
                trainer, "retransmit_bytes_total"
            ),
            checksum_failures=int(
                _counter_total(trainer, "comm_checksum_failures_total")
            ),
            checksum_misses=int(
                _counter_total(trainer, "comm_checksum_misses_total")
            ),
            degraded_iterations=int(
                _counter_total(trainer, "degraded_iterations_total")
            ),
            recovery_seconds=trainer.report.sim_recovery_seconds,
            fault_overhead_seconds=_counter_total(
                trainer, "comm_fault_overhead_seconds_total"
            ),
            sim_comm_seconds=trainer.report.sim_comm_seconds,
        ))
    return result


def write_json(path: str, result: FaultsBenchResult) -> None:
    """Serialize one benchmark run to ``BENCH_faults.json``."""
    from repro.bench.metadata import run_metadata

    payload = result.to_dict()
    payload["meta"] = run_metadata(seed=result.seed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
