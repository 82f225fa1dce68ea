"""Chaos harness: seeded kill-schedules against the real-parallel backend.

Fault-injection tests pick the failure point; chaos testing samples it.
:func:`run_chaos` first runs one **clean** parallel run to learn the
iteration count and the reference outcome, then derives ``trials``
seeded kill-schedules (a kill iteration and a victim rank per trial,
from a counter-based RNG so schedules are reproducible and independent
of trial order) and replays the run under each schedule with recovery
enabled.  Every trial asserts the recovery invariants:

* the run **completes** — no hang past the watchdog deadline, no
  unhandled crash escaping :func:`repro.comm.parallel.run_parallel`;
* the recovery actually happened and was **priced** — at least one
  cohort respawn, ``sim_recovery_seconds > 0``;
* nothing **leaked** — the set of ``/dev/shm`` segments after the trial
  equals the set before it;
* the surviving model is **right** — bitwise-equal final state under
  ``restart`` recovery, final loss within ``loss_tolerance`` of the
  clean run under ``degrade`` (the survivors legitimately see a
  different gradient average);
* the arena protocol was **clean** — every run (the clean reference
  and every kill trial) records its shared-memory protocol events and
  replays them through the happens-before checker
  (:mod:`repro.comm.sanitizer`); any violation fails the trial.  The
  sanitizer is always on under chaos: a kill-truncated event stream is
  exactly where publication-order bugs hide.

The harness is the backing for ``repro chaos`` and the CI
``chaos-smoke`` job; see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import glob
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm.parallel import ParallelRunConfig, run_parallel
from repro.comm.sanitizer import ArenaSanitizerError
from repro.core.config import Resilience

#: Domain separator for the kill-schedule RNG (arbitrary, fixed).
_CHAOS_STREAM = 0xC4A05

#: Where CPython's ``multiprocessing.shared_memory`` segments live.
_SHM_GLOB = "/dev/shm/psm_*"


def _shm_segments() -> frozenset:
    return frozenset(glob.glob(_SHM_GLOB))


@dataclass
class ChaosTrial:
    """Outcome of one seeded kill against one training run."""

    trial: int
    kill_iteration: int
    victim_rank: int
    completed: bool = False
    recovered: bool = False
    digest_match: bool | None = None  # restart only; None under degrade
    final_loss: float | None = None
    loss_gap: float | None = None
    recovery_seconds: float = 0.0
    wall_seconds: float = 0.0
    leaked_segments: list[str] = field(default_factory=list)
    sanitizer: dict | None = None
    sanitizer_events: int = 0
    sanitizer_violations: int = 0
    error: str | None = None

    @property
    def passed(self) -> bool:
        """All recovery invariants held for this trial."""
        return (
            self.completed
            and self.recovered
            and self.recovery_seconds > 0
            and not self.leaked_segments
            and self.digest_match is not False
            and self.sanitizer_violations == 0
            and self.error is None
        )

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        detail = (
            f"kill rank {self.victim_rank} @ iter {self.kill_iteration}: "
            f"recovered={self.recovered} "
            f"recovery_s={self.recovery_seconds:.6f} "
            f"loss_gap={self.loss_gap if self.loss_gap is not None else '-'} "
            f"leaks={len(self.leaked_segments)} "
            f"sanitizer={self.sanitizer_events}ev/"
            f"{self.sanitizer_violations}viol"
        )
        if self.error:
            detail += f" error={self.error}"
        return f"trial {self.trial}: {verdict}  {detail}"


@dataclass
class ChaosResult:
    """A full chaos campaign: the clean reference plus every trial."""

    benchmark: str
    compressor: str
    nproc: int
    recovery: str
    seed: int
    baseline_iterations: int
    baseline_loss: float
    baseline_digest: str
    baseline_sanitizer: dict | None = None
    trials: list[ChaosTrial] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.trials) and all(t.passed for t in self.trials)

    def sanitizer_summary(self) -> dict:
        """JSON-ready artifact: every run's happens-before replay."""
        total_events = sum(t.sanitizer_events for t in self.trials)
        total_violations = sum(t.sanitizer_violations for t in self.trials)
        if self.baseline_sanitizer is not None:
            total_events += self.baseline_sanitizer.get("events_total", 0)
            total_violations += len(
                self.baseline_sanitizer.get("violations", [])
            )
        return {
            "ok": total_violations == 0,
            "events_total": total_events,
            "violations_total": total_violations,
            "clean": self.baseline_sanitizer,
            "trials": [
                {
                    "trial": t.trial,
                    "kill_iteration": t.kill_iteration,
                    "victim_rank": t.victim_rank,
                    "report": t.sanitizer,
                }
                for t in self.trials
            ],
        }

    def describe(self) -> str:
        san = self.sanitizer_summary()
        lines = [
            f"chaos: {self.benchmark}/{self.compressor} "
            f"nproc={self.nproc} recovery={self.recovery} seed={self.seed} "
            f"({self.baseline_iterations} iterations clean)",
        ]
        lines.extend(trial.describe() for trial in self.trials)
        lines.append(
            f"arena sanitizer: {san['events_total']} events, "
            f"{san['violations_total']} violation(s) across clean + "
            f"{len(self.trials)} trial(s)"
        )
        lines.append(
            f"{sum(t.passed for t in self.trials)}/{len(self.trials)} "
            "trials passed"
        )
        return "\n".join(lines)


def kill_schedule(
    seed: int, trials: int, iterations: int, nproc: int
) -> list[tuple[int, int]]:
    """The ``(kill_iteration, victim_rank)`` pairs for a campaign.

    Counter-based: each trial's pair comes from its own RNG keyed on
    ``(seed, stream, trial)``, so trial 3's schedule never depends on
    whether trials 0–2 ran.  Kills land strictly inside the run (never
    iteration 0, never the last) so there is always work to lose *and*
    work left to finish.
    """
    if iterations < 3:
        raise ValueError(
            f"chaos needs a run of >= 3 iterations to place a mid-run "
            f"kill, got {iterations}"
        )
    schedule = []
    for trial in range(trials):
        rng = np.random.default_rng(
            (seed & 0x7FFFFFFF, _CHAOS_STREAM, trial)
        )
        kill = int(rng.integers(1, iterations - 1))
        victim = int(rng.integers(0, nproc))
        schedule.append((kill, victim))
    return schedule


def run_chaos(
    benchmark: str = "ncf-movielens",
    compressor: str = "topk",
    nproc: int = 2,
    trials: int = 3,
    seed: int = 0,
    epochs: int | None = 1,
    resilience: Resilience = Resilience(recovery="restart",
                                        checkpoint_every=1),
    loss_tolerance: float = 0.15,
    arena_bytes: int = 8 << 20,
    stall_timeout: float = 30.0,
) -> ChaosResult:
    """Run a chaos campaign; every trial SIGKILLs one seeded victim.

    Each trial runs under ``resilience`` with its kill as the fault
    plan; the clean reference run injects nothing.  ``loss_tolerance``
    bounds ``|final_loss - clean_loss|`` for ``degrade`` recovery
    (restart demands bitwise equality instead).  Raises nothing on
    trial failure — failures are recorded on the returned
    :class:`ChaosResult` so the caller (CLI, CI) decides the exit code.
    """
    base = dict(
        benchmark=benchmark,
        compressor=compressor,
        nproc=nproc,
        seed=seed,
        epochs=epochs,
        arena_bytes=arena_bytes,
        sanitize="arena",
    )
    clean = run_parallel(ParallelRunConfig(**base))
    baseline_iterations = int(clean.report.iterations)
    baseline_loss = float(clean.report.losses[-1])
    baseline_digest = next(iter(clean.digests.values()))
    result = ChaosResult(
        benchmark=benchmark,
        compressor=compressor,
        nproc=nproc,
        recovery=resilience.recovery,
        seed=seed,
        baseline_iterations=baseline_iterations,
        baseline_loss=baseline_loss,
        baseline_digest=baseline_digest,
        baseline_sanitizer=(
            clean.sanitizer.to_dict() if clean.sanitizer is not None
            else None
        ),
    )
    schedule = kill_schedule(seed, trials, baseline_iterations, nproc)
    for trial, (kill, victim) in enumerate(schedule):
        outcome = ChaosTrial(
            trial=trial, kill_iteration=kill, victim_rank=victim
        )
        before = _shm_segments()
        started = time.perf_counter()
        try:
            run = run_parallel(ParallelRunConfig(
                **base,
                resilience=replace(
                    resilience, faults=f"crash@{kill}:rank={victim}"
                ),
                stall_timeout=stall_timeout,
                join_grace=5.0,
            ))
        except ArenaSanitizerError as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.sanitizer = exc.report.to_dict()
            outcome.sanitizer_events = exc.report.events_total
            outcome.sanitizer_violations = len(exc.report.violations)
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome.error = f"{type(exc).__name__}: {exc}"
        else:
            outcome.completed = True
            if run.sanitizer is not None:
                outcome.sanitizer = run.sanitizer.to_dict()
                outcome.sanitizer_events = run.sanitizer.events_total
                outcome.sanitizer_violations = len(
                    run.sanitizer.violations
                )
            outcome.recovered = len(run.recoveries) >= 1
            outcome.recovery_seconds = float(
                run.report.sim_recovery_seconds
            )
            outcome.final_loss = float(run.report.losses[-1])
            outcome.loss_gap = abs(outcome.final_loss - baseline_loss)
            if resilience.recovery == "restart":
                outcome.digest_match = (
                    next(iter(run.digests.values())) == baseline_digest
                )
                if not outcome.digest_match:
                    outcome.error = (
                        "restart recovery did not reproduce the clean "
                        "run's model state bitwise"
                    )
            elif outcome.loss_gap > loss_tolerance:
                outcome.error = (
                    f"degraded final loss drifted {outcome.loss_gap:.4f} "
                    f"from clean (> {loss_tolerance})"
                )
        outcome.wall_seconds = time.perf_counter() - started
        outcome.leaked_segments = sorted(_shm_segments() - before)
        result.trials.append(outcome)
    return result
