"""Run options that travel unchanged from the CLI to every rank.

Two frozen records, each validated once, when it is built.  The CLI
builds them; :func:`repro.bench.runner.build_trainer` hands them to the
trainer on the sequential path, and
:class:`repro.comm.parallel.ParallelRunConfig` carries them to each
spawned rank on the parallel one.  Rules of one backend stay with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultPlan

#: ``--sanitize`` levels: the compressor contract checker, the arena
#: happens-before replay, or both.
SANITIZE_LEVELS = ("off", "contract", "arena", "all")
RECOVERY_POLICIES = ("degrade", "restart")
STRAGGLER_POLICIES = ("wait", "drop", "backup")


def sanitizes(level: str, checker: str) -> bool:
    """Whether sanitize ``level`` turns on ``"contract"`` or ``"arena"``."""
    if level not in SANITIZE_LEVELS:
        raise ValueError(
            f"sanitize must be one of {SANITIZE_LEVELS}, got {level!r}"
        )
    return level in (checker, "all")


@dataclass(frozen=True)
class Resilience:
    """Faults to inject and the policies that absorb them.

    ``faults`` is a :class:`~repro.faults.FaultPlan` or its spec string
    (``docs/ROBUSTNESS.md``); ``None`` leaves the communicator unwrapped.
    ``recovery="degrade"`` re-normalizes over the survivors of a crash,
    ``"restart"`` rolls back to the latest EF-aware checkpoint, taken
    every ``checkpoint_every`` iterations (0: never; restart under a
    plan then checkpoints every iteration, which makes it lossless).
    ``straggler_policy`` waits for the slowest rank, drops slow ranks
    from the cohort, or folds their gradients back in while fresh
    (``"backup"``).
    """

    faults: FaultPlan | str | None = None
    recovery: str = "degrade"
    checkpoint_every: int = 0
    straggler_policy: str = "wait"

    def __post_init__(self):
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be 'degrade' or 'restart', "
                f"got {self.recovery!r}"
            )
        if self.straggler_policy not in STRAGGLER_POLICIES:
            raise ValueError(
                f"straggler_policy must be 'wait', 'drop' or 'backup', "
                f"got {self.straggler_policy!r}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if isinstance(self.faults, str):
            FaultPlan.parse(self.faults)  # a bad spec fails here, not mid-run
        if (
            self.faults is not None
            and self.recovery == "restart"
            and self.checkpoint_every == 0
        ):
            object.__setattr__(self, "checkpoint_every", 1)

    def plan(self, seed: int) -> FaultPlan | None:
        """The fault plan, a spec string parsed under the run's ``seed``."""
        if isinstance(self.faults, str):
            return FaultPlan.parse(self.faults, seed=seed)
        return self.faults


@dataclass(frozen=True)
class WorkerMode:
    """This process computes rank ``rank`` of a real-parallel run.

    ``active_ranks`` is the cohort this incarnation runs with (``None``:
    every rank), ``consumed_faults`` the fault-plan clauses an earlier
    incarnation already executed (so a respawn does not re-crash), and
    ``checkpoint_dir`` where per-rank checkpoints go.
    """

    rank: int
    active_ranks: tuple[int, ...] | None = None
    consumed_faults: tuple[int, ...] = ()
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.active_ranks is not None:
            cohort = tuple(sorted({int(r) for r in self.active_ranks}))
            if self.rank not in cohort:
                raise ValueError(
                    f"rank {self.rank} is not in active_ranks {list(cohort)}"
                )
            object.__setattr__(self, "active_ranks", cohort)

    def cohort(self, n_workers: int) -> list[int]:
        """The incarnation's ranks, checked against the run's size."""
        cohort = list(self.active_ranks or range(n_workers))
        if not {self.rank, *cohort} <= set(range(n_workers)):
            raise ValueError(
                f"rank {self.rank} with cohort {cohort} is out of range "
                f"for {n_workers} workers"
            )
        return cohort
