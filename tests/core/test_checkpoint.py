"""The one `Checkpoint` on a real model: in-place restore and its file sink.

The simulator's restart and `save_checkpoint(path)` run here on
`ncf-movielens` (an `ndl` model with Adam slots) with error feedback;
the per-rank directory helpers and the worker-mode round trip live in
`test_worker_checkpoint.py`.
"""

import os
import pickle

import numpy as np
import pytest

from repro.bench.runner import build_trainer
from repro.core import DistributedTrainer, create
from repro.core.checkpoint import Checkpoint, CheckpointError, _array_nbytes
from repro.core.config import Cell, Resilience

BENCH = "ncf-movielens"


def _build(resilience=Resilience()):
    return build_trainer(Cell(BENCH, "efsignsgd", resilience=resilience))


def _state(trainer, run) -> dict[str, bytes]:
    """Every numeric array a resume depends on, as bytes."""
    state = {
        f"param/{name}": param.data.tobytes()
        for name, param in run.model.named_parameters()
    }
    optimizer = run.task.optimizer
    for slot in ("_m", "_v"):
        for name, value in getattr(optimizer, slot).items():
            state[f"{slot}/{name}"] = value.tobytes()
    state["_t"] = repr(optimizer._t).encode()
    for rank, memory in enumerate(trainer.memories):
        for name, value in memory._residuals.items():
            state[f"residual{rank}/{name}"] = value.tobytes()
    return state


class TestRestartRestoresInPlace:
    def test_trained_model_is_the_callers_model(self):
        trainer, run = _build(Resilience(
            faults="crash@3:rank=1,rejoin=6", recovery="restart",
        ))
        report = trainer.train(run.loader, epochs=1, eval_fn=run.eval_fn)
        assert trainer.metrics.value("recoveries_total") == 1
        assert run.model is trainer.task.model
        assert report.epoch_quality[-1] == run.eval_fn()


class TestFileRoundTrip:
    def test_restores_parameters_slots_and_residuals_bitwise(self, tmp_path):
        trainer, run = _build()
        batches = iter(run.loader)
        for _ in range(3):
            trainer.step(next(batches))
        path = str(tmp_path / "ckpt.pkl")
        trainer.save_checkpoint(path)
        saved = _state(trainer, run)
        step = next(batches)
        loss = trainer.step(step)
        assert _state(trainer, run) != saved

        trainer.restore_checkpoint(path)
        assert _state(trainer, run) == saved
        # The compressor streams came back too: the step replays.
        assert trainer.step(step) == loss

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        trainer, run = _build()
        trainer.step(next(iter(run.loader)))
        path = str(tmp_path / "ckpt.pkl")
        trainer.save_checkpoint(path)
        before = open(path, "rb").read()

        def torn_dump(obj, handle, protocol=None):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            trainer.save_checkpoint(path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["ckpt.pkl"]

    def test_truncated_file_raises_typed_error_naming_path(self, tmp_path):
        trainer, run = _build()
        trainer.step(next(iter(run.loader)))
        path = str(tmp_path / "ckpt.pkl")
        trainer.save_checkpoint(path)
        whole = open(path, "rb").read()
        for cut in (0, 1, 2, 64, len(whole) // 2, len(whole) - 1):
            with open(path, "wb") as handle:
                handle.write(whole[:cut])
            with pytest.raises(CheckpointError, match="ckpt.pkl"):
                Checkpoint.load(path)

    def test_foreign_pickle_raises_the_same_error(self, tmp_path):
        path = str(tmp_path / "foreign.pkl")
        with open(path, "wb") as handle:
            pickle.dump({"not": "a checkpoint"}, handle)
        with pytest.raises(CheckpointError, match="foreign.pkl"):
            Checkpoint.load(path)


def test_numeric_state_has_no_live_objects():
    trainer, run = _build()
    trainer.step(next(iter(run.loader)))
    state = Checkpoint.capture(trainer).task_state
    assert set(state) == {"params", "modules", "optimizer"}
    assert all(
        isinstance(value, np.ndarray) for value in state["params"].values()
    )
    assert "params" not in state["optimizer"]


class TestFusedMemoryState:
    """A fused memory's flat bucket buffers are views of its name-keyed
    state: a checkpoint holds every residual once, and a run restored
    from it continues exactly as the uninterrupted run."""

    CASES = [("topk", "residual"), ("dgc", "dgc"), ("efsignsgd", "residual")]

    @staticmethod
    def _run(compressor, memory, fusion_mb, steps=3):
        from tests.core.test_fusion import MultiTask

        task = MultiTask()
        trainer = DistributedTrainer(
            task, create(compressor, seed=0), n_workers=2, seed=0,
            memory=memory, fusion_mb=fusion_mb,
        )
        for step in range(steps):
            trainer.step([(2 * step, None), (2 * step + 1, None)])
        return task, trainer

    @staticmethod
    def _memory_nbytes(trainer) -> int:
        return _array_nbytes(
            list(Checkpoint.capture(trainer).memory_states.values())
        )

    @pytest.mark.parametrize("compressor,memory", CASES)
    def test_fused_memory_bytes_equal_unfused(self, compressor, memory):
        unfused = self._memory_nbytes(self._run(compressor, memory, 0.0)[1])
        fused = self._memory_nbytes(self._run(compressor, memory, 1.0)[1])
        assert fused == unfused > 0

    @pytest.mark.parametrize("compressor,memory", CASES)
    def test_restored_fused_run_continues_bitwise(self, compressor, memory):
        task, trainer = self._run(compressor, memory, 1.0)
        checkpoint = Checkpoint.capture(trainer)
        steps = [[(10 + s, None), (20 + s, None)] for s in range(3)]
        losses = [trainer.step(batches) for batches in steps]
        params = {name: p.copy() for name, p in task.params.items()}
        state = [m.state_dict() for m in trainer.memories]

        checkpoint.restore(trainer)
        assert [trainer.step(batches) for batches in steps] == losses
        for name, value in params.items():
            assert task.params[name].tobytes() == value.tobytes(), name
        for memory_now, before in zip(trainer.memories, state):
            now = memory_now.state_dict()
            for key in ("_residuals", "_velocity", "_accumulated"):
                for name, value in before.get(key, {}).items():
                    assert now[key][name].tobytes() == value.tobytes()
