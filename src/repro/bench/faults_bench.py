"""Fault-injection resilience benchmark (`repro bench faults`).

Trains the same small strongly-convex task once fault-free and once per
fault scenario — crashes under both recovery policies, payload
corruption, packet drops and stragglers —
all with an error-feedback compressor, where lost residual state is the
failure mode worth measuring.

Every faulted cell reports its final loss next to the baseline's plus
the resilience accounting the run produced: retransmits, checksum
verdicts, recovery seconds and fault-overhead seconds from the cost
model.  The run is one :class:`~repro.bench.result.RunResult` (suite
``faults``); ``--check`` asserts the acceptance criteria:

* every crash scenario converges within :data:`LOSS_TOLERANCE` of the
  fault-free final loss (EF checkpoint/restore works);
* every injected corruption is caught by the CRC32 trailer (zero
  checksum misses) and retransmitted;
* wire faults surface in the cost model — the faulted run's simulated
  communication time exceeds the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.result import Metric, RunResult
from repro.core.config import Resilience
from repro.core.registry import create
from repro.core.trainer import DistributedTrainer

#: Maximum relative final-loss gap tolerated on crash cells.
LOSS_TOLERANCE = 0.01

#: The benchmark's compressor: error feedback makes crashes interesting.
COMPRESSOR = "efsignsgd"

#: The harness trains its own strongly-convex task, not a Table II row.
SYNTHETIC_BENCHMARK = "quadratic-ef"

#: The run: the testbed's 8 workers, 30 iterations (every scenario
#: window ends by iteration 20), a 64-element model and one seed.
N_WORKERS = 8
ITERATIONS = 30
DIM = 64
SEED = 0

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

    def __init__(self, lr: float = 0.05):
        rng = np.random.default_rng(SEED)
        self.x = np.zeros(DIM, dtype=np.float32)
        self.target = rng.standard_normal(DIM).astype(np.float32)
        self.lr = float(lr)

    def forward_backward(self, inputs, targets):
        noise = np.asarray(inputs, dtype=np.float32)
        grad = 2 * (self.x - self.target) + noise
        loss = float(np.sum((self.x - self.target) ** 2))
        return loss, {"x": grad}

    def apply_update(self, grads):
        self.x -= self.lr * grads["x"]


def _noise_batches(seed: int, scale: float = 0.05):
    rng = np.random.default_rng(seed)
    return [
        (scale * rng.standard_normal(DIM).astype(np.float32), None)
        for _ in range(N_WORKERS)
    ]


@dataclass
class FaultsBenchCell:
    """One scenario's outcome next to the fault-free baseline."""

    scenario: str
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


def _failures(cells: list[FaultsBenchCell],
              baseline_sim_comm_seconds: float) -> list[str]:
    """Acceptance failures (empty when the run passes)."""
    failures = []
    for cell in cells:
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
    by_name = {cell.scenario: cell for cell in cells}
    restart = by_name["crash-restart"]
    if not restart.recovery_seconds > 0:
        failures.append(
            "crash-restart: the outage was not priced — "
            "sim recovery seconds is "
            f"{restart.recovery_seconds:.6f} (expected > 0)"
        )
    corrupt = by_name["corrupt"]
    if corrupt.checksum_failures == 0:
        failures.append(
            "corrupt: no corrupted frame was caught by the checksum"
        )
    if not corrupt.sim_comm_seconds > baseline_sim_comm_seconds:
        failures.append(
            "corrupt: retransmits did not surface in the cost model "
            f"({corrupt.sim_comm_seconds:.6f}s vs baseline "
            f"{baseline_sim_comm_seconds:.6f}s)"
        )
    if by_name["drop"].retries == 0:
        failures.append("drop: no retransmission was performed")
    return failures


def _metrics(cells: list[FaultsBenchCell], baseline_loss: float,
             baseline_sim_comm_seconds: float) -> list[Metric]:
    # Loss gaps hover near zero for healthy recovery, so their gate
    # is a small absolute floor on top of the relative band;
    # checksum misses must stay at their baseline of exactly zero.
    metrics = [
        Metric("baseline_loss", baseline_loss, "loss", "info"),
        Metric("baseline_sim_comm_seconds", baseline_sim_comm_seconds,
               "seconds", "info"),
    ]
    for cell in cells:
        name = cell.scenario
        metrics += [
            Metric(f"{name}/loss_gap", cell.loss_gap, "fraction", "lower",
                   tolerance=0.1, floor=0.005),
            Metric(f"{name}/checksum_misses", cell.checksum_misses,
                   "frames", "lower", tolerance=0.0),
            Metric(f"{name}/recovery_seconds", cell.recovery_seconds,
                   "seconds", "lower", tolerance=0.05, floor=1e-9),
            Metric(f"{name}/sim_comm_seconds", cell.sim_comm_seconds,
                   "seconds", "lower", tolerance=0.05),
            Metric(f"{name}/faults_injected", cell.faults_injected,
                   "faults", "info"),
            Metric(f"{name}/retries", cell.retries, "retries", "info"),
            Metric(f"{name}/final_loss", cell.final_loss, "loss", "info"),
            Metric(f"{name}/retransmit_bytes", cell.retransmit_bytes,
                   "bytes", "info"),
            Metric(f"{name}/checksum_failures", cell.checksum_failures,
                   "frames", "info"),
            Metric(f"{name}/degraded_iterations", cell.degraded_iterations,
                   "iterations", "info"),
            Metric(f"{name}/fault_overhead_seconds",
                   cell.fault_overhead_seconds, "seconds", "info"),
        ]
    return metrics


def _format(header: str, baseline_loss: float,
            cells: list[FaultsBenchCell]) -> str:
    """Human-readable scenario table."""
    lines = [
        header,
        f"baseline loss     : {baseline_loss:.6f}",
        f"{'scenario':<22}{'loss':>12}{'gap':>9}{'faults':>8}"
        f"{'retries':>9}{'recovery s':>12}",
    ]
    for cell in cells:
        lines.append(
            f"{cell.scenario:<22}{cell.final_loss:>12.6f}"
            f"{100 * cell.loss_gap:>8.2f}%{cell.faults_injected:>8}"
            f"{cell.retries:>9}{cell.recovery_seconds:>12.6f}"
        )
    return "\n".join(lines)


def _run_cell(options: dict) -> tuple[float, DistributedTrainer]:
    """Train one configuration; returns (final loss, trainer)."""
    task = _QuadraticTask()
    trainer = DistributedTrainer(
        task,
        create(COMPRESSOR),
        n_workers=N_WORKERS,
        memory_params={"beta": 1.0, "gamma": task.lr},
        seed=SEED,
        resilience=Resilience(**options),
    )
    loss = 0.0
    for step in range(ITERATIONS):
        loss = trainer.step(_noise_batches(seed=step))
    return loss, trainer


def _counter_total(trainer: DistributedTrainer, name: str) -> float:
    """Sum a counter across all of its label sets."""
    return sum(
        instrument.value
        for instrument in trainer.metrics.instruments()
        if instrument.name == name
    )


def run_faults_bench() -> RunResult:
    """Run every fault scenario against one fault-free baseline."""
    baseline_loss, baseline = _run_cell({})
    baseline_sim_comm_seconds = baseline.report.sim_comm_seconds
    cells = []
    for name, options in SCENARIOS.items():
        loss, trainer = _run_cell(options)
        cells.append(FaultsBenchCell(
            scenario=name,
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
    header = (
        f"faults benchmark  : {COMPRESSOR}, {N_WORKERS} "
        f"workers, {ITERATIONS} iterations, seed {SEED}"
    )
    return RunResult.new(
        "faults", SYNTHETIC_BENCHMARK,
        params={"n_workers": N_WORKERS, "iterations": ITERATIONS,
                "dim": DIM, "seed": SEED},
        metrics=_metrics(cells, baseline_loss, baseline_sim_comm_seconds),
        text=_format(header, baseline_loss, cells),
        failures=_failures(cells, baseline_sim_comm_seconds),
    )
