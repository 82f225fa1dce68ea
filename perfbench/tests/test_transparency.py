"""Proxies are transparent: a traced run computes what an untraced one does.

Same seed, same cell; one trainer steps bare, the other goes through the
timing proxies on every other step, exactly as the traced run drives it.
Aggregated gradients, losses and wire bytes must be equal bit for bit.
"""

import numpy as np
import pytest

from perfbench import metrics as M
from perfbench import workloads as W
from perfbench.proxies import Instrumentation
from perfbench.spans import SpanRecorder

SIZING = W.Sizing(seconds=1.0, smoke=True)


def _run(build, steps, traced):
    trainer, batches = build()
    task = W.CheckedTask(trainer.task)
    trainer.task = task
    inst = Instrumentation(trainer, SpanRecorder("cell")) if traced else None
    outputs = []
    for index in range(steps):
        task.begin_step()
        if inst is None:
            loss = trainer.step(next(batches))
        else:
            inst.attach() if index % 2 == 0 else inst.detach()
            loss = inst.step(next(batches))
        outputs.append((loss, {
            name: np.array(value) for name, value in task.aggregated.items()
        }))
    report = trainer.report
    return outputs, list(report.losses), report.bytes_per_worker, (
        report.sim_total_seconds)


def _assert_same(plain, traced):
    for (loss_a, grads_a), (loss_b, grads_b) in zip(plain[0], traced[0]):
        assert loss_a == loss_b
        assert list(grads_a) == list(grads_b)
        for name in grads_a:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
    assert plain[1:] == traced[1:]


@pytest.mark.parametrize("workload", ["sweep_large", "sweep_small_fused"])
@pytest.mark.parametrize("name", M.COMPRESSORS)
def test_sweep_cells(workload, name):
    build = W.sweep_builder(workload, SIZING, seed=5)[0]
    plain = _run(lambda: build(name), 4, traced=False)
    traced = _run(lambda: build(name), 4, traced=True)
    _assert_same(plain, traced)


@pytest.mark.parametrize("compressor,n_workers,kwargs", [
    ("topk", 4, {"overlap": True, "fusion_mb": 0.0}),
    ("qsgd", 4, {"overlap": True, "fusion_mb": 0.0}),
    ("none", 2, {"fusion_mb": 64.0}),
])
def test_training_cells(compressor, n_workers, kwargs):
    def build():
        return W._build_training(compressor, n_workers, **kwargs)

    _assert_same(_run(build, 4, traced=False), _run(build, 4, traced=True))
