"""Real fault actions for parallel worker processes.

The sequential simulator *models* faults: a crash removes a rank from
the cohort's bookkeeping, a straggler multiplies simulated compute
time.  Under the real-parallel backend each rank is an OS process, so
the same :class:`~repro.faults.plan.FaultPlan` clauses resolve to real
actions instead:

* ``crash`` — the targeted rank SIGKILLs itself at the start of the
  crash iteration.  No Python teardown runs (that is the point): the
  parent's watchdog must notice the death from the exitcode and the
  stale heartbeat, exactly as it would for a genuine OOM kill.
* ``stall`` — the targeted rank stops heartbeating and sleeps forever.
  Only heartbeat staleness can surface this one; the process stays
  alive until the parent's escalating teardown removes it.
* ``straggler`` — the targeted rank sleeps ``(slow - 1) x base`` real
  seconds *without* refreshing its heartbeat, so a sleep longer than
  the watchdog's ``stall_timeout`` evicts it (the ``drop`` policy, which
  degrades the cohort) while a shorter one simply stretches the
  iteration.

The remaining kinds (``drop``/``corrupt``/``degrade``) manipulate
simulator-only wire state and are rejected for worker mode before a
process is ever spawned (see ``repro.core.config.Cell``).
"""

from __future__ import annotations

import os
import signal
import time

from repro.faults.plan import REAL_KINDS, FaultPlan, IterationFaults

#: Real seconds of injected sleep per 1.0 of straggler slowdown beyond
#: parity.  Chosen so ``slow=3`` delays ~0.5s: long enough for a tight
#: stall timeout to evict, short enough for tests.
DEFAULT_STRAGGLER_SECONDS = 0.25

_STALL_NAP = 3600.0  # re-sleep interval while wedged (never beats)


def validate_worker_plan(plan: FaultPlan) -> None:
    """Reject plans a parallel worker cannot execute for real.

    Raises ``ValueError`` naming the offending kinds so the CLI can
    fail fast, before any process is spawned.
    """
    unsupported = sorted(
        {event.kind for event in plan.events} - REAL_KINDS
    )
    if unsupported:
        raise ValueError(
            f"fault kinds {unsupported} manipulate simulator-only wire "
            f"state and cannot run under --backend parallel; supported "
            f"worker kinds: {sorted(REAL_KINDS)}"
        )


class RealFaultExecutor:
    """Executes one rank's share of an iteration's faults, for real."""

    def __init__(
        self,
        rank: int,
        straggler_seconds: float = DEFAULT_STRAGGLER_SECONDS,
    ):
        self.rank = int(rank)
        self.straggler_seconds = float(straggler_seconds)

    def execute(self, faults: IterationFaults) -> None:
        """Act on this iteration's faults targeting this rank.

        Called after the rank has beaten its heartbeat for the
        iteration (so the parent knows how far it got) and before any
        compute, mirroring where the simulator resolves faults.
        """
        if self.rank in faults.crashed:
            self._crash()
        if self.rank in faults.stalled:
            self._stall()
        slowdown = faults.compute_slowdown.get(self.rank, 1.0)
        if slowdown > 1.0:
            time.sleep((slowdown - 1.0) * self.straggler_seconds)

    def _crash(self):  # pragma: no cover - the process dies here
        """Die the way a real failure does: no teardown, no goodbye."""
        os.kill(os.getpid(), signal.SIGKILL)
        # SIGKILL cannot be caught, but delivery is asynchronous on
        # some platforms; make absolutely sure nothing runs after it.
        while True:
            time.sleep(0.01)

    def _stall(self):  # pragma: no cover - only exits via teardown
        """Wedge: stay alive but silent until the parent removes us."""
        while True:
            time.sleep(_STALL_NAP)
