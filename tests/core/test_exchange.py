"""The exchange engine (``repro.core.exchange``): a step readies every
gradient of the plan exactly once, and a unit's collective is issued with
its last gradient."""

import gc
import weakref

import pytest

from repro.core import DistributedTrainer, create
from repro.core.exchange import ReadyError

from tests.core.test_fusion import SPLIT, MultiTask

N_WORKERS = 2


def begun_step():
    """A fused trainer after one step, and its engine begun on a second."""
    task = MultiTask()
    trainer = DistributedTrainer(
        task, create("topk", ratio=0.25), n_workers=N_WORKERS, seed=0,
        fusion_mb=SPLIT,
    )
    trainer.step([(rank, None) for rank in range(N_WORKERS)])
    grads = {
        rank: task.forward_backward(N_WORKERS + rank, None)[1]
        for rank in range(N_WORKERS)
    }
    exchange = trainer.exchange
    exchange.start(grads, list(range(N_WORKERS)), 0.0, None, None)
    return trainer, exchange


class TestReadiness:
    def test_a_name_outside_the_plan_is_refused(self):
        _, exchange = begun_step()
        with pytest.raises(ReadyError, match="'bias' is not in the"):
            exchange.ready("bias")

    def test_a_name_ready_twice_in_one_step_is_refused(self):
        _, exchange = begun_step()
        name = exchange.plan.names[0]
        exchange.ready(name)
        with pytest.raises(ReadyError, match=f"{name!r} was already ready"):
            exchange.ready(name)

    def test_finish_with_a_name_missing_is_refused(self):
        _, exchange = begun_step()
        *ready, missing = exchange.plan.names
        for name in ready:
            exchange.ready(name)
        with pytest.raises(ReadyError, match=f"{missing!r} was ready"):
            exchange.finish()

    def test_a_unit_is_issued_with_its_last_gradient(self):
        trainer, exchange = begun_step()
        record = trainer.comm.record
        unit = next(u for u in exchange.units if len(u.bucket) > 1)
        *first, last = unit.bucket.names
        ops = record.num_ops
        for name in first:
            exchange.ready(name)
        assert record.num_ops == ops
        exchange.ready(last)
        assert record.num_ops == ops + 1
        for name in exchange.plan.names:
            if name not in unit.bucket.names:
                exchange.ready(name)
        assert record.num_ops == ops + len(exchange.units)
        assert set(exchange.finish()) == set(MultiTask.SHAPES)


def test_a_dropped_trainer_is_freed_without_the_cycle_collector():
    """The engine refers back to its trainer weakly, so a process that
    drops trainers (a sweep builds one per compressor) frees each one, its
    memories and scratch included, as soon as the last reference goes."""
    trainer, exchange = begun_step()
    for name in exchange.plan.names:
        exchange.ready(name)
    exchange.finish()
    gc.collect()
    gc.disable()
    try:
        dropped = weakref.ref(trainer)
        del trainer, exchange
        assert dropped() is None
    finally:
        gc.enable()
