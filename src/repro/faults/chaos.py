"""Chaos harness: seeded kill-schedules against the real-parallel backend.

Fault-injection tests pick the failure point; chaos testing samples it.
:func:`run_chaos` runs one **clean** parallel run to learn the iteration
count and the reference outcome, derives ``trials`` seeded
kill-schedules (a kill iteration and a victim rank per trial, from a
counter-based RNG so schedules are reproducible and independent of
trial order) and replays the run under each with recovery enabled.
Every trial must **complete** (no hang past the watchdog deadline, no
crash escaping :func:`repro.comm.parallel.run_parallel`), **recover**
and **price** it (a cohort respawn, ``sim_recovery_seconds > 0``) and
end **right**: bitwise-equal to the clean run under ``restart``, within
:data:`LOSS_TOLERANCE` of its final loss under ``degrade``, where the
survivors legitimately average other gradients.  Every run, the clean
one included, must leak no ``/dev/shm`` segment and replay its arena
protocol events through the happens-before checker
(:mod:`repro.comm.sanitizer`) without a violation: a kill-truncated
event stream is exactly where publication-order bugs hide.

The campaign is one :class:`~repro.bench.result.RunResult` (suite
``chaos``) whose ``failures`` name every broken invariant; ``repro
chaos`` and the CI ``chaos-smoke`` job print and write it.  See
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import glob
import time
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.bench.result import Metric, RunResult
from repro.comm.parallel import ParallelRunConfig, run_parallel
from repro.comm.sanitizer import ArenaSanitizerError, SanitizerReport
from repro.core.config import Cell, Resilience

#: Domain separator for the kill-schedule RNG (arbitrary, fixed).
_CHAOS_STREAM = 0xC4A05

#: Every run's arena data segment.
_ARENA_BYTES = 8 << 20

#: Max ``|final_loss - clean_loss|`` of a ``degrade`` trial (restart
#: demands bitwise equality instead).
LOSS_TOLERANCE = 0.15


def _shm_segments() -> frozenset:
    """CPython's ``multiprocessing.shared_memory`` segments."""
    return frozenset(glob.glob("/dev/shm/psm_*"))


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


def run_failures(leaked: Sequence[str],
                 sanitizer: SanitizerReport) -> list[str]:
    """The hygiene every run must keep: no leak, no protocol violation."""
    broken = [f"sanitizer {violation}" for violation in sanitizer.violations]
    if leaked:
        broken.append(f"leaked {len(leaked)} shared-memory segment(s): "
                      + " ".join(leaked))
    return broken


def trial_failures(recovery: str, *, sanitizer: SanitizerReport,
                   leaked: Sequence[str] = (), error: str | None = None,
                   recoveries: int = 0, recovery_seconds: float = 0.0,
                   digest_match: bool = False,
                   loss_gap: float = 0.0) -> list[str]:
    """Every invariant one kill trial broke, a line apiece.

    ``error`` is what the run raised instead of completing; the
    recovery numbers describe a completed run.  ``restart`` recovery is
    judged on ``digest_match`` alone and ``degrade`` on ``loss_gap``.
    """
    if error is not None:
        broken = [f"did not complete: {error}"]
    else:
        broken = []
        if recoveries < 1:
            broken.append("did not recover: no cohort respawned")
        if not recovery_seconds > 0:
            broken.append(f"outage not priced: sim recovery seconds "
                          f"{recovery_seconds:.6f}")
        if recovery == "restart":
            if not digest_match:
                broken.append("restart recovery did not reproduce the "
                              "clean run's model state bitwise")
        elif loss_gap > LOSS_TOLERANCE:
            broken.append(f"degraded final loss drifted {loss_gap:.4f} "
                          f"from clean (> {LOSS_TOLERANCE})")
    return broken + run_failures(leaked, sanitizer)


def _run_metrics(run: str, leaked: Sequence[str],
                 sanitizer: SanitizerReport) -> list[Metric]:
    """One run's leak count and happens-before replay counts."""
    return [
        Metric(f"{run}/leaked_segments", len(leaked), "segments", "lower",
               tolerance=0.0),
        Metric(f"{run}/sanitizer_events", sanitizer.events_total, "events"),
        *(Metric(f"{run}/sanitizer_events/rank{rank}", count, "events")
          for rank, count in sorted(sanitizer.per_rank_events.items())),
        Metric(f"{run}/sanitizer_dropped", sum(sanitizer.dropped.values()),
               "events"),
        Metric(f"{run}/sanitizer_violations", len(sanitizer.violations),
               "violations", "lower", tolerance=0.0),
    ]


def run_chaos(cell: Cell, trials: int = 3,
              recovery: str = "restart") -> RunResult:
    """Run a chaos campaign on ``cell``; every trial SIGKILLs one seeded
    victim.

    Every run trains the cell for one epoch on the parallel backend,
    over an 8 MiB arena and under the arena sanitizer; each trial
    checkpoints every iteration and recovers by ``recovery``.  A broken
    invariant is a line of ``failures``, not an exception, so the
    caller (CLI, CI) decides the exit code.
    """
    if trials < 1:
        raise ValueError(f"chaos needs >= 1 trial, got {trials}")
    cell = replace(cell, epochs=1, sanitize="arena", backend="parallel")
    nproc = cell.workers
    before = _shm_segments()
    clean = run_parallel(ParallelRunConfig(cell, arena_bytes=_ARENA_BYTES))
    leaked = sorted(_shm_segments() - before)
    iterations = int(clean.report.iterations)
    clean_loss = float(clean.report.losses[-1])
    clean_digest = next(iter(clean.digests.values()))
    schedule = kill_schedule(cell.seed, trials, iterations, nproc)
    metrics = [
        Metric("clean/iterations", iterations, "iterations"),
        Metric("clean/final_loss", clean_loss, "loss"),
        *_run_metrics("clean", leaked, clean.sanitizer),
    ]
    failures = [f"clean run: {line}"
                for line in run_failures(leaked, clean.sanitizer)]
    lines = [f"chaos: {cell.benchmark}/{cell.compressor} nproc={nproc} "
             f"recovery={recovery} seed={cell.seed} ({iterations} "
             "iterations clean)"]
    reports, passed = [clean.sanitizer], 0
    for trial, (kill, victim) in enumerate(schedule):
        before = _shm_segments()
        started = time.perf_counter()
        outcome = dict(sanitizer=SanitizerReport())
        try:
            run = run_parallel(ParallelRunConfig(replace(
                cell, resilience=Resilience(f"crash@{kill}:rank={victim}",
                                            recovery, checkpoint_every=1),
            ), arena_bytes=_ARENA_BYTES))
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            outcome["error"] = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, ArenaSanitizerError):
                outcome["sanitizer"] = exc.report
        else:
            outcome.update(
                sanitizer=run.sanitizer,
                recoveries=len(run.recoveries),
                recovery_seconds=float(run.report.sim_recovery_seconds),
                digest_match=next(iter(run.digests.values())) == clean_digest,
                loss_gap=abs(float(run.report.losses[-1]) - clean_loss),
            )
        name, sanitizer = f"trial{trial}", outcome["sanitizer"]
        outcome["leaked"] = leaked = sorted(_shm_segments() - before)
        broken = trial_failures(recovery, **outcome)
        failures += [f"trial {trial}: {line}" for line in broken]
        passed += not broken
        reports.append(sanitizer)
        metrics += [
            Metric(f"{name}/wall_seconds", time.perf_counter() - started,
                   "seconds"),
            *_run_metrics(name, leaked, sanitizer),
        ]
        if "error" not in outcome:
            metrics += [
                Metric(f"{name}/recovery_seconds",
                       outcome["recovery_seconds"], "seconds", "lower",
                       tolerance=0.05, floor=1e-9),
                Metric(f"{name}/loss_gap", outcome["loss_gap"], "loss",
                       "lower", tolerance=0.1, floor=0.005),
            ]
        lines.append(
            f"trial {trial}: {'FAIL' if broken else 'PASS'}  "
            f"kill rank {victim} @ iter {kill}: "
            f"recovered={outcome.get('recoveries', 0) >= 1} "
            f"recovery_s={outcome.get('recovery_seconds', 0.0):.6f} "
            f"loss_gap={outcome.get('loss_gap', '-')} "
            f"leaks={len(leaked)} sanitizer={sanitizer.events_total}ev/"
            f"{len(sanitizer.violations)}viol"
        )
    events = sum(report.events_total for report in reports)
    violations = sum(len(report.violations) for report in reports)
    lines += [
        f"arena sanitizer: {events} events, {violations} violation(s) "
        f"across clean + {trials} trial(s)",
        f"{passed}/{trials} trials passed",
    ]
    metrics += [
        Metric("sanitizer_events", events, "events"),
        Metric("sanitizer_violations", violations, "violations", "lower",
               tolerance=0.0),
        Metric("trials_passed", passed, "trials", "higher", tolerance=0.0),
    ]
    return RunResult.new(
        "chaos", cell.benchmark,
        params={"cell": cell.to_dict(), "trials": trials,
                "recovery": recovery, "schedule": [list(p) for p in schedule]},
        metrics=metrics, text="\n".join(lines), failures=failures,
    )
