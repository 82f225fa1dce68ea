"""Timing proxies: every layer is measured from outside.

Each proxy wraps one object a :class:`DistributedTrainer` holds — the task,
the communicator, the per-rank compressors and memories — and forwards every
call to it inside a :class:`~spans.SpanRecorder` span.  The wrapped object
does all the work and keeps all the state, so a proxy can be swapped in and
out between two steps of the same trainer without changing a bit of what the
trainer computes (``tests/test_transparency.py`` holds that).  That is what
lets the traced run pair every traced step with an untraced one.
"""

from __future__ import annotations

from repro.comm.collectives import Communicator
from repro.core.api import Compressor

from perfbench.spans import SpanRecorder


class Delegate:
    """Anything not timed goes straight to the wrapped object."""

    def __getattr__(self, attr: str):
        # Only reached when normal lookup fails; 'inner' itself must raise
        # (not recurse) while copy/pickle rebuilds an empty instance.
        if attr == "inner" or attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self.inner, attr)


class TimedTask(Delegate):
    """``ndl`` layer: forward/backward and the optimizer update."""

    def __init__(self, inner, recorder: SpanRecorder):
        self.inner = inner
        self._rec = recorder

    def forward_backward(self, inputs, targets):
        return self._rec.call(
            ("ndl", "forward_backward"), self.inner.forward_backward,
            (inputs, targets),
        )

    def apply_update(self, gradients):
        return self._rec.call(
            ("ndl", "apply_update"), self.inner.apply_update, (gradients,)
        )


class TimedMemory(Delegate):
    """``memory`` layer: φ (compensate) and ψ (update), per-tensor and fused."""

    def __init__(self, inner, recorder: SpanRecorder):
        self.inner = inner
        self._rec = recorder

    def compensate(self, tensor, name):
        return self._rec.call(
            ("memory", "compensate"), self.inner.compensate, (tensor, name)
        )

    def update(self, compensated, name, compressor, compressed):
        return self._rec.call(
            ("memory", "update"), self.inner.update,
            (compensated, name, compressor, compressed),
        )

    def compensate_fused(self, gradients, bucket, out):
        return self._rec.call(
            ("memory", "compensate"), self.inner.compensate_fused,
            (gradients, bucket, out),
        )

    def update_fused(self, compensated, bucket, transmitted):
        return self._rec.call(
            ("memory", "update"), self.inner.update_fused,
            (compensated, bucket, transmitted),
        )


def _timed_collective(name: str):
    def method(self, *args, **kwargs):
        return self._rec.call(key, getattr(self.inner, name), args, kwargs)

    key = ("comm", name)
    method.__name__ = name
    return method


class TimedCommunicator(Delegate, Communicator):
    """``comm`` layer: every collective of the wrapped communicator.

    A subclass so it is accepted wherever a communicator is, but it shares
    the wrapped one's ``record`` and never runs a base-class collective:
    every public method of :class:`Communicator` is overridden below
    (``tests/test_proxies.py`` fails if a later PR adds one that is not).
    """

    def __init__(self, inner: Communicator, recorder: SpanRecorder):
        # No super().__init__: the accounting lives in the wrapped object.
        self.inner = inner
        self._rec = recorder
        self.n_workers = inner.n_workers
        self.network = inner.network
        self.backend = inner.backend
        self.record = inner.record

    def heartbeat(self, progress=None):
        return self.inner.heartbeat(progress)


for _name in (
    "allreduce", "allreduce_parts", "allgather", "allreduce_compressed",
    "iallreduce_parts", "iallgather", "sparse_allreduce", "broadcast",
):
    setattr(TimedCommunicator, _name, _timed_collective(_name))
del _name


class TimedCompressor(Delegate, Compressor):
    """``compressors`` layer: compress side and decompress side.

    ``compress`` spans cover ``compress``/``compress_fused``; ``decompress``
    spans cover ``decompress``/``decompress_fused``/``decompress_aggregated``/
    ``aggregate``/``aggregate_compressed``.  The Table I metadata the trainer
    dispatches on (``fused_kernel``, ``aggregation``, ``communication``,
    ``default_memory``) mirrors the wrapped compressor, and :meth:`clone`
    wraps the clone, so per-worker copies stay timed.

    The trainer takes its compressed-aggregation and bucket-mean fast paths
    only when ``type(c).aggregate is Compressor.aggregate``.  To stay on the
    same path as the wrapped compressor this class does not define
    ``aggregate``: :func:`wrap_compressor` picks the subclass that does for
    compressors with their own Agg, and times the default one through an
    instance attribute, which the ``type()`` test does not see.
    """

    def __init__(self, inner: Compressor, recorder: SpanRecorder):
        # No super().__init__: the wrapper draws no randomness of its own.
        self.inner = inner
        self._rec = recorder
        self.name = inner.name
        self.family = inner.family
        self.stochastic = inner.stochastic
        self.communication = inner.communication
        self.default_memory = inner.default_memory
        self.fused_kernel = inner.fused_kernel
        self.aggregation = inner.aggregation
        if type(self).aggregate is Compressor.aggregate:
            self.aggregate = self._aggregate

    def _aggregate(self, tensors):
        return self._rec.call(
            ("compressors", "decompress"), self.inner.aggregate, (tensors,)
        )

    def reseed(self, seed):
        self.inner.reseed(seed)

    def clone(self, seed):
        return wrap_compressor(self.inner.clone(seed), self._rec)

    def compress(self, tensor, name):
        return self._rec.call(
            ("compressors", "compress"), self.inner.compress, (tensor, name),
            nbytes=tensor.nbytes,
        )

    def compress_fused(self, buffer, bucket):
        return self._rec.call(
            ("compressors", "compress"), self.inner.compress_fused,
            (buffer, bucket), nbytes=buffer.nbytes,
        )

    def decompress(self, compressed):
        return self._rec.call(
            ("compressors", "decompress"), self.inner.decompress, (compressed,)
        )

    def decompress_fused(self, compressed, out=None):
        return self._rec.call(
            ("compressors", "decompress"), self.inner.decompress_fused,
            (compressed,), {"out": out},
        )

    def decompress_aggregated(self, compressed):
        return self._rec.call(
            ("compressors", "decompress"), self.inner.decompress_aggregated,
            (compressed,),
        )

    def aggregate_compressed(self, items):
        return self._rec.call(
            ("compressors", "decompress"), self.inner.aggregate_compressed,
            (items,),
        )


class _TimedCompressorOwnAgg(TimedCompressor):
    """For compressors that override Agg: the trainer must see an override."""

    def aggregate(self, tensors):
        return self._aggregate(tensors)


def wrap_compressor(inner: Compressor, recorder: SpanRecorder) -> TimedCompressor:
    if type(inner).aggregate is Compressor.aggregate:
        return TimedCompressor(inner, recorder)
    return _TimedCompressorOwnAgg(inner, recorder)


class Instrumentation:
    """The four proxy sets of one trainer, attachable and detachable."""

    def __init__(self, trainer, recorder: SpanRecorder):
        self.trainer = trainer
        self.recorder = recorder
        self._plain = (
            trainer.task, trainer.comm,
            list(trainer.compressors), list(trainer.memories),
        )
        self._timed = (
            TimedTask(trainer.task, recorder),
            TimedCommunicator(trainer.comm, recorder),
            [wrap_compressor(c, recorder) for c in trainer.compressors],
            [TimedMemory(m, recorder) for m in trainer.memories],
        )
        self.attached = False

    def _install(self, parts) -> None:
        trainer = self.trainer
        trainer.task, trainer.comm = parts[0], parts[1]
        trainer.compressors = list(parts[2])
        trainer.memories = list(parts[3])

    def attach(self) -> None:
        self._install(self._timed)
        self.attached = True

    def detach(self) -> None:
        self._install(self._plain)
        self.attached = False

    def step(self, batches):
        """One step; inside a ``trainer.step`` root span when attached."""
        if not self.attached:
            return self.trainer.step(batches)
        return self.recorder.call(
            ("trainer", "step"), self.trainer.step, (batches,)
        )
