"""EF-aware training checkpoints: model, optimizer and residual state.

Error-feedback compressors carry per-worker state the model parameters
do not contain — Eq. 4 residuals, DGC velocity/accumulation buffers and
each worker's compressor RNG stream.  A checkpoint that forgets them
silently changes the training trajectory on restore: a rejoining worker
whose residuals were dropped re-injects gradient error the rest of the
cohort already compensated for.

One :class:`Checkpoint` serves both backends.  It captures the ranks
this process owns — every rank in the sequential simulator, its own
rank in a real-parallel worker — and holds:

* the task's numeric state.  A task with ``state_dict`` /
  ``load_state_dict`` (:class:`repro.ndl.ModelTask`: parameters,
  module buffers, optimizer slots) is restored in place, so the
  caller's model keeps training; any other task is deep-copied through
  its ``__dict__``;
* each owned rank's :meth:`~repro.core.api.Memory.state_dict` and
  compressor instance state, including the ``numpy.random.Generator``
  — so stochastic compressors resume their exact random stream and a
  restored run replays bitwise (the property
  ``tests/faults/test_checkpoint_property.py`` proves);
* a snapshot of the report.  Only a respawned worker applies it: the
  simulator's rollback keeps its clock and prices the outage instead.

It has two sinks: memory (the simulator's rollback) and an atomic file,
under the canonical per-rank name in a worker's checkpoint directory.
Restore always copies, so one snapshot can be restored many times.
"""

from __future__ import annotations

import contextlib
import copy
import os
import pickle
import re
from dataclasses import dataclass, field

import numpy as np


class CheckpointError(ValueError):
    """A checkpoint file that does not hold a readable :class:`Checkpoint`."""


def _array_nbytes(states: list) -> int:
    """Sum ndarray bytes reachable from ``states`` (dedup by identity)."""
    total = 0
    seen: set[int] = set()
    stack: list = list(states)
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            total += int(value.nbytes)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            stack.extend(vars(value).values())
    return total


def outage_seconds(
    lost_iterations: float,
    mean_iteration_seconds: float,
    checkpoint_bytes: float,
    bytes_per_second: float,
) -> float:
    """Simulated cost of one restart: the cohort redoes (or waits out)
    ``lost_iterations`` at the mean iteration cost, then ships the
    restored checkpoint over the modeled link."""
    return (
        lost_iterations * mean_iteration_seconds
        + checkpoint_bytes / bytes_per_second
    )


def _owned_ranks(trainer) -> list[int]:
    return (
        list(range(trainer.n_workers)) if trainer.rank is None
        else [trainer.rank]
    )


@dataclass
class Checkpoint:
    """One restorable snapshot of a trainer's state, for the ranks it owns."""

    iteration: int
    n_workers: int
    task_state: dict = field(repr=False)
    memory_states: dict[int, dict] = field(repr=False)
    compressor_states: dict[int, dict] = field(repr=False)
    report_state: dict = field(repr=False)

    @classmethod
    def capture(cls, trainer) -> "Checkpoint":
        """Snapshot a trainer after its current iteration."""
        task = trainer.task
        report = trainer.report
        report_state = {
            name: copy.copy(getattr(report, name)) for name in report._FIELDS
        }
        report_state["_sim_epoch"] = trainer._sim_epoch
        ranks = _owned_ranks(trainer)
        return cls(
            iteration=report.iterations,
            n_workers=trainer.n_workers,
            task_state=(
                task.state_dict() if hasattr(task, "state_dict")
                else copy.deepcopy(task.__dict__)
            ),
            memory_states={r: trainer.memories[r].state_dict() for r in ranks},
            compressor_states={
                r: copy.deepcopy(trainer.compressors[r].__dict__)
                for r in ranks
            },
            report_state=report_state,
        )

    def restore(self, trainer, report: bool = False) -> None:
        """Load this snapshot back into a compatible trainer, in place.

        ``report=True`` also rewinds the report and simulated clock —
        what a respawned worker resuming mid-run needs.
        """
        if trainer.n_workers != self.n_workers:
            raise ValueError(
                f"checkpoint was taken with {self.n_workers} workers, "
                f"trainer has {trainer.n_workers}"
            )
        ranks = _owned_ranks(trainer)
        if list(self.memory_states) != ranks:
            raise ValueError(
                f"checkpoint holds ranks {list(self.memory_states)}, "
                f"trainer owns ranks {ranks}"
            )
        task = trainer.task
        if hasattr(task, "load_state_dict"):
            task.load_state_dict(self.task_state)
        else:
            task.__dict__.update(copy.deepcopy(self.task_state))
        for r in ranks:
            trainer.memories[r].load_state_dict(self.memory_states[r])
            trainer.compressors[r].__dict__.update(
                copy.deepcopy(self.compressor_states[r])
            )
        if report:
            state = dict(self.report_state)
            trainer._sim_epoch = float(state.pop("_sim_epoch"))
            for name, value in state.items():
                setattr(trainer.report, name, copy.copy(value))

    @property
    def nbytes(self) -> int:
        """Array payload size (what recovery pricing charges).

        Python object overhead is noise next to the parameter and
        residual arrays and is ignored.
        """
        return _array_nbytes([
            self.task_state,
            *self.memory_states.values(),
            *self.compressor_states.values(),
        ])

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Pickle to ``path`` atomically (write a temp file, then rename).

        A crash mid-write never leaves a torn file under ``path``, where
        :func:`latest_common_iteration` or :meth:`load` would find it.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a checkpoint :meth:`save` wrote.

        Raises :class:`CheckpointError`, naming ``path``, when the file
        is truncated, corrupt or holds anything but a checkpoint.
        """
        with open(path, "rb") as handle:
            try:
                checkpoint = pickle.load(handle)
            except (  # what the pickle docs list for a malformed stream
                pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError,
            ) as exc:
                raise CheckpointError(
                    f"{path!r} is not a readable Checkpoint "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        if not isinstance(checkpoint, cls):
            raise CheckpointError(
                f"{path!r} does not contain a Checkpoint "
                f"(got {type(checkpoint).__name__})"
            )
        return checkpoint


# ---------------------------------------------------------------------------
# Per-rank checkpoint directories for the real-parallel backend
# ---------------------------------------------------------------------------
#
# Each worker saves its checkpoint to a shared directory under a
# canonical name; after a crash the parent restores the survivors (or
# the whole respawned cohort) from the newest iteration **every required
# rank** has on disk, so the restored cohort is mutually consistent.

_WORKER_CKPT_RE = re.compile(r"^ckpt-r(\d{3,})-i(\d{8,})\.pkl$")


def worker_checkpoint_path(directory: str, rank: int, iteration: int) -> str:
    """Canonical on-disk name for rank ``rank``'s iteration snapshot."""
    return os.path.join(directory, f"ckpt-r{rank:03d}-i{iteration:08d}.pkl")


def list_worker_checkpoints(directory: str) -> dict[int, list[int]]:
    """Map each rank to the sorted iterations it has checkpoints for."""
    found: dict[int, list[int]] = {}
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return found
    for name in names:
        match = _WORKER_CKPT_RE.match(name)
        if match:
            found.setdefault(int(match.group(1)), []).append(
                int(match.group(2))
            )
    for iterations in found.values():
        iterations.sort()
    return found


def latest_common_iteration(directory: str, ranks) -> int | None:
    """Newest iteration every rank in ``ranks`` has a checkpoint for."""
    found = list_worker_checkpoints(directory)
    common: set[int] | None = None
    for rank in ranks:
        iterations = set(found.get(int(rank), ()))
        common = iterations if common is None else common & iterations
        if not common:
            return None
    return max(common) if common else None


def prune_worker_checkpoints(
    directory: str, rank: int, keep: int = 2
) -> None:
    """Drop all but the newest ``keep`` snapshots for ``rank``.

    Two generations stay on disk so a crash *during* a checkpoint write
    (the atomic rename means a torn file never has the canonical name,
    but the rank may die before renaming) still leaves a complete,
    mutually consistent generation behind.
    """
    iterations = list_worker_checkpoints(directory).get(rank, [])
    for iteration in iterations[:-keep] if keep > 0 else iterations:
        try:
            os.remove(worker_checkpoint_path(directory, rank, iteration))
        except FileNotFoundError:  # pragma: no cover - concurrent prune
            pass
