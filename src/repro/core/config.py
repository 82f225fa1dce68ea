"""Run options that travel unchanged from the CLI to every rank.

Frozen records, each validated once, when it is built.  A
:class:`Cell` is one experiment: the CLI, the experiments and the
harnesses build it, :func:`repro.bench.runner.run_cell` runs it on
either backend, :func:`repro.bench.runner.build_trainer` turns it into
a trainer, and :class:`repro.comm.parallel.ParallelRunConfig` carries
it to each spawned rank.  :class:`Resilience` is the cell's faults and
policies; :class:`WorkerMode` is what one rank adds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.faults.plan import FaultPlan

#: ``--sanitize`` levels: the compressor contract checker, the arena
#: happens-before replay, or both.
SANITIZE_LEVELS = ("off", "contract", "arena", "all")
RECOVERY_POLICIES = ("degrade", "restart")
STRAGGLER_POLICIES = ("wait", "drop", "backup")
BACKENDS = ("sim", "parallel")
TOPOLOGIES = ("flat", "ps", "hier")
AGGREGATION_POLICIES = ("auto", "off", "all")


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


#: Cell fields only some topologies read: the topologies and the
#: default.  Elsewhere the field is None.
_TOPOLOGY_FIELDS = {"racks": (("hier",), 2),
                    "aggregation": (("ps", "hier"), "auto")}


@dataclass(frozen=True)
class Cell:
    """One cell of the evaluation grid, on one backend.

    ``compressor_params`` are the compressor's keywords and ``memory``
    its memory kind (None: its Table I default).  ``epochs`` defaults
    to the benchmark's lite budget.  ``topology`` is the simulator's
    reduction substrate: flat collectives, a parameter server, or
    ``racks`` racks under a root (``racks`` defaults to 2 under
    ``hier``); ``aggregation`` is the compressed-domain aggregation
    policy of ``ps`` and ``hier`` (default ``"auto"``).  ``backend``
    trains in the sequential simulator or in ``workers`` real
    processes.

    Building a cell is where a bad one is rejected, with one line: an
    unknown name, an out-of-range count, a field the topology or
    backend does not read, or a combination the backend cannot run.
    """

    benchmark: str
    compressor: str = "none"
    compressor_params: dict = field(default_factory=dict, hash=False)
    memory: str | None = None
    workers: int = 4
    seed: int = 0
    epochs: int | None = None
    fusion_mb: float = 0.0
    overlap: bool = False
    topology: str = "flat"
    racks: int | None = None
    aggregation: str | None = None
    resilience: Resilience = Resilience()
    sanitize: str = "off"
    backend: str = "sim"

    def __post_init__(self):
        # Imported here: the suite and the registry load every model and
        # compressor, which importing this module must not.
        from repro.bench.suite import get_benchmark
        from repro.core.memory import MEMORIES
        from repro.core.registry import check_params

        try:
            spec = get_benchmark(self.benchmark)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        check_params(self.compressor, self.compressor_params or {})
        if self.epochs is None:
            object.__setattr__(self, "epochs", spec.lite_epochs)
        if self.memory is not None and self.memory not in MEMORIES:
            raise ValueError(f"unknown memory {self.memory!r}; expected "
                             f"one of {sorted(MEMORIES)}")
        for name, choices in (("topology", TOPOLOGIES),
                              ("sanitize", SANITIZE_LEVELS),
                              ("backend", BACKENDS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        for name, low in (("workers", 1), ("seed", 0), ("epochs", 1),
                          ("fusion_mb", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")
        object.__setattr__(self, "compressor_params",
                           dict(self.compressor_params or {}))
        for name, (readers, default) in _TOPOLOGY_FIELDS.items():
            if self.topology in readers:
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
            elif getattr(self, name) is not None:
                raise ValueError(f"--{name} requires --topology "
                                 f"{' or '.join(readers)}")
        if self.racks is not None and not 1 <= self.racks <= self.workers:
            raise ValueError(f"racks must be in [1, {self.workers}], "
                             f"got {self.racks}")
        if (self.aggregation is not None
                and self.aggregation not in AGGREGATION_POLICIES):
            raise ValueError(f"aggregation must be one of "
                             f"{AGGREGATION_POLICIES}, "
                             f"got {self.aggregation!r}")
        plan = self.resilience.plan(self.seed)
        for event in plan.events if plan is not None else ():
            if event.rank is not None and event.rank >= self.workers:
                raise ValueError(
                    f"fault {event.kind}@{event.start} targets rank "
                    f"{event.rank}, but the run has {self.workers} workers"
                )
        if self.backend == "parallel":
            self._check_parallel(plan)
        elif sanitizes(self.sanitize, "arena"):
            raise ValueError(f"--sanitize {self.sanitize} requires "
                             "--backend parallel")
        elif plan is not None and any(e.kind == "stall" for e in plan.events):
            raise ValueError(
                "'stall' is a real-parallel-only fault kind (a wedged OS "
                "process); the sequential simulator models slow ranks with "
                "'straggler' instead"
            )

    def _check_parallel(self, plan: FaultPlan | None) -> None:
        """What the real-parallel backend cannot run."""
        from repro.faults.real import validate_worker_plan

        if self.topology != "flat":
            raise ValueError(
                "--backend parallel supports only the flat topology; use "
                "the sequential simulator (--backend sim) for ps/hier"
            )
        resilience = self.resilience
        if resilience.straggler_policy == "backup":
            raise ValueError(
                "the parallel backend supports straggler policies 'wait' "
                "and 'drop', got 'backup' (it buffers peer gradients "
                "in-process and is sequential-only)"
            )
        if (
            resilience.straggler_policy == "drop"
            and resilience.recovery == "restart"
        ):
            raise ValueError(
                "straggler eviction ('drop') permanently removes the rank "
                "and requires --recovery degrade; 'restart' would respawn "
                "the straggler into the same clause forever"
            )
        if plan is None:
            return
        validate_worker_plan(plan)
        if resilience.recovery == "degrade" and any(
            event.kind == "crash" and event.rejoin is not None
            for event in plan.events
        ):
            raise ValueError(
                "crash rejoin= requires --recovery restart under the "
                "parallel backend: a degraded cohort never re-admits ranks"
            )

    def to_dict(self) -> dict:
        """The cell as JSON values; :meth:`from_dict` rebuilds it."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Cell":
        """The cell :meth:`to_dict` wrote."""
        return cls(**{**data, "resilience": Resilience(**data["resilience"])})
