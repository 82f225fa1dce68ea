"""Per-rank crash-recovery snapshots (`repro.core.checkpoint`).

The on-disk helpers are pure filename arithmetic and are tested with
touched files; the capture/restore round trip runs a real worker-mode
trainer over an in-process solo arena (one rank, no spawn costs) and
asserts the bitwise-resume guarantee the parallel backend's restart
recovery depends on.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.comm.parallel import ParallelWorkerCommunicator, model_digest
from repro.comm.shm import SharedArena
from repro.core.config import Cell, Resilience, WorkerMode
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointError,
    latest_common_iteration,
    list_worker_checkpoints,
    prune_worker_checkpoints,
    worker_checkpoint_path,
)

BENCH = "ncf-movielens"


def _touch(directory, rank, iteration):
    pathlib.Path(worker_checkpoint_path(
        str(directory), rank, iteration
    )).touch()


class TestOnDiskLayout:
    def test_canonical_name_is_sortable(self, tmp_path):
        path = worker_checkpoint_path(str(tmp_path), 2, 15)
        assert path.endswith("ckpt-r002-i00000015.pkl")

    def test_listing_groups_and_sorts(self, tmp_path):
        for rank, iteration in [(0, 4), (0, 2), (1, 4), (1, 2), (1, 6)]:
            _touch(tmp_path, rank, iteration)
        (tmp_path / "notes.txt").touch()  # ignored: not a checkpoint
        found = list_worker_checkpoints(str(tmp_path))
        assert found == {0: [2, 4], 1: [2, 4, 6]}

    def test_listing_missing_directory_is_empty(self, tmp_path):
        assert list_worker_checkpoints(str(tmp_path / "nope")) == {}

    def test_latest_common_iteration_intersects(self, tmp_path):
        for rank, iteration in [(0, 2), (0, 4), (1, 2), (1, 6)]:
            _touch(tmp_path, rank, iteration)
        assert latest_common_iteration(str(tmp_path), [0, 1]) == 2
        assert latest_common_iteration(str(tmp_path), [0]) == 4
        assert latest_common_iteration(str(tmp_path), [0, 1, 2]) is None

    def test_prune_keeps_newest_generations(self, tmp_path):
        for iteration in (2, 4, 6, 8):
            _touch(tmp_path, 0, iteration)
        _touch(tmp_path, 1, 2)  # other ranks untouched
        prune_worker_checkpoints(str(tmp_path), rank=0, keep=2)
        found = list_worker_checkpoints(str(tmp_path))
        assert found == {0: [6, 8], 1: [2]}


@pytest.fixture
def solo_trainer(tmp_path):
    """A worker-mode (rank 0 of 1) trainer over an in-process arena."""
    from repro.bench.runner import build_trainer

    owner = SharedArena.create(n_ranks=1, data_bytes=1 << 20, meta_slots=64)
    arena = SharedArena.attach(owner.spec, rank=0)
    comm = ParallelWorkerCommunicator(arena, 0, timeout=10.0)
    trainer, run = build_trainer(
        Cell(BENCH, "topk", workers=1,
             resilience=Resilience(checkpoint_every=1)),
        communicator=comm, worker=WorkerMode(0, checkpoint_dir=str(tmp_path)),
    )
    yield trainer, run, str(tmp_path)
    arena.close()
    owner.close()


def _load(directory, iteration):
    return Checkpoint.load(worker_checkpoint_path(directory, 0, iteration))


def _params(run):
    return {
        name: np.asarray(param.data)
        for name, param in run.model.named_parameters()
    }


class TestRoundTrip:
    def test_resume_from_checkpoint_is_bitwise(self, solo_trainer, tmp_path):
        trainer, run, directory = solo_trainer
        report = trainer.train(run.loader, epochs=1)
        clean_digest = model_digest(_params(run))
        clean_losses = list(report.losses)
        iterations = report.iterations
        resume_at = latest_common_iteration(directory, [0])
        assert resume_at is not None and 0 < resume_at <= iterations

        # A fresh process rebuilds the trainer from the same config,
        # restores the snapshot, and must land on the same bits.
        from repro.bench.runner import build_trainer
        from repro.bench.suite import get_benchmark

        owner = SharedArena.create(
            n_ranks=1, data_bytes=1 << 20, meta_slots=64
        )
        arena = SharedArena.attach(owner.spec, rank=0)
        try:
            comm = ParallelWorkerCommunicator(arena, 0, timeout=10.0)
            fresh, fresh_run = build_trainer(
                get_benchmark(BENCH), "topk", n_workers=1, seed=0,
                communicator=comm, worker=WorkerMode(0),
            )
            checkpoint = _load(directory, resume_at)
            checkpoint.restore(fresh, report=True)
            resumed = fresh.train(
                fresh_run.loader, epochs=1, start_iteration=resume_at
            )
            assert model_digest(_params(fresh_run)) == clean_digest
            assert list(resumed.losses) == clean_losses
        finally:
            arena.close()
            owner.close()

    def test_worker_capture_holds_only_its_own_rank(self):
        from repro.bench.runner import build_trainer
        from repro.bench.suite import get_benchmark

        owner = SharedArena.create(
            n_ranks=2, data_bytes=1 << 20, meta_slots=64
        )
        arena = SharedArena.attach(owner.spec, rank=1)
        try:
            trainer, _ = build_trainer(
                get_benchmark(BENCH), "topk", n_workers=2, seed=0,
                communicator=ParallelWorkerCommunicator(arena, 1),
                worker=WorkerMode(1),
            )
            checkpoint = Checkpoint.capture(trainer)
        finally:
            arena.close()
            owner.close()
        assert list(checkpoint.memory_states) == [1]
        assert list(checkpoint.compressor_states) == [1]

    def test_restore_rejects_mismatched_identity(self, solo_trainer):
        trainer, run, directory = solo_trainer
        trainer.train(run.loader, epochs=1)
        resume_at = latest_common_iteration(directory, [0])
        checkpoint = _load(directory, resume_at)

        wrong_rank = dataclasses.replace(
            checkpoint,
            memory_states={1: checkpoint.memory_states[0]},
            compressor_states={1: checkpoint.compressor_states[0]},
        )
        with pytest.raises(ValueError, match="rank"):
            wrong_rank.restore(trainer)

        wrong_world = dataclasses.replace(
            checkpoint, n_workers=checkpoint.n_workers + 1
        )
        with pytest.raises(ValueError, match="workers"):
            wrong_world.restore(trainer)

    def test_restore_rejects_foreign_parameters(self, solo_trainer):
        trainer, run, directory = solo_trainer
        trainer.train(run.loader, epochs=1)
        resume_at = latest_common_iteration(directory, [0])
        checkpoint = _load(directory, resume_at)
        params = dict(checkpoint.task_state["params"])
        params["phantom.weight"] = params.pop(next(iter(params)))
        checkpoint.task_state = dict(
            checkpoint.task_state, params=params
        )
        with pytest.raises(ValueError, match="mismatch"):
            checkpoint.restore(trainer)

    def test_load_rejects_foreign_pickles(self, tmp_path):
        import pickle

        path = worker_checkpoint_path(str(tmp_path), 0, 1)
        with open(path, "wb") as handle:
            pickle.dump({"not": "a checkpoint"}, handle)
        with pytest.raises(CheckpointError, match="Checkpoint"):
            _load(str(tmp_path), 1)

    def test_nbytes_counts_array_payload(self, solo_trainer):
        trainer, run, directory = solo_trainer
        trainer.train(run.loader, epochs=1)
        resume_at = latest_common_iteration(directory, [0])
        checkpoint = _load(directory, resume_at)
        assert checkpoint.nbytes > 0
