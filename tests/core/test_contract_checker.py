"""Unit tests for the runtime contract checker.

The sweep (``test_contract_sweep.py``) proves real compressors pass;
these tests prove the checker actually *catches* each violation class,
using deliberately broken fake compressors.
"""

import numpy as np
import pytest

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.core.contract import ContractChecker, ContractViolation
from repro.core.registry import create


def _tensor():
    return np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0


class IdentityCompressor(Compressor):
    """Minimal contract-abiding compressor the broken fakes derive from."""

    name = "fake-identity"
    family = "none"
    communication = "allreduce"

    def compress(self, tensor, name):
        flat, shape = flatten_with_shape(tensor)
        return CompressedTensor(payload=[flat.copy()], ctx=(shape,))

    def decompress(self, compressed):
        (shape,) = compressed.ctx
        return compressed.payload[0].reshape(shape)


class ListPayloadCompressor(IdentityCompressor):
    def compress(self, tensor, name):
        return CompressedTensor(
            payload=[tensor.ravel().tolist()], ctx=(tensor.shape,)
        )


class CtxSmugglingCompressor(IdentityCompressor):
    def compress(self, tensor, name):
        flat, shape = flatten_with_shape(tensor)
        scales = np.abs(flat[:2]).copy()
        return CompressedTensor(payload=[flat.copy()], ctx=(shape, scales))


class UnserializableCompressor(IdentityCompressor):
    def compress(self, tensor, name):
        part = tensor.ravel().astype(np.complex64)  # no wire dtype code
        return CompressedTensor(payload=[part], ctx=(tensor.shape,))


class TamperedNbytesCompressor(IdentityCompressor):
    def compress(self, tensor, name):
        compressed = super().compress(tensor, name)
        compressed.nbytes  # populate the cache...
        compressed.payload.append(np.zeros(4, dtype=np.float32))  # ...then lie
        return compressed


class MutatingCompressor(IdentityCompressor):
    def compress(self, tensor, name):
        compressed = super().compress(tensor, name)
        tensor.ravel()[0] = 123.0
        return compressed


class WrongShapeCompressor(IdentityCompressor):
    def decompress(self, compressed):
        return super().decompress(compressed).ravel()


class Float64Compressor(IdentityCompressor):
    def decompress(self, compressed):
        return super().decompress(compressed).astype(np.float64)


_GLOBAL_COUNTER = {"calls": 0}


class NondeterministicCompressor(IdentityCompressor):
    """Output depends on state outside the instance — replay diverges."""

    def compress(self, tensor, name):
        _GLOBAL_COUNTER["calls"] += 1
        flat, shape = flatten_with_shape(tensor)
        part = flat + np.float32(_GLOBAL_COUNTER["calls"])
        return CompressedTensor(payload=[part], ctx=(shape,))


class AliasingCompressor(IdentityCompressor):
    """Returns a view of the input — retains a reference into scratch."""

    def compress(self, tensor, name):
        flat = np.asarray(tensor, dtype=np.float32).ravel()
        return CompressedTensor(payload=[flat], ctx=(tensor.shape,))


class AliasingFusedCompressor(IdentityCompressor):
    fused_kernel = True

    def compress_fused(self, buffer, bucket):
        half = np.asarray(buffer, dtype=np.float32)[: bucket.numel // 2]
        return CompressedTensor(payload=[half], ctx=(bucket.numel,))


class BrokenFusedCompressor(IdentityCompressor):
    fused_kernel = True

    def compress_fused(self, buffer, bucket):
        return CompressedTensor(
            payload=[np.asarray(buffer, dtype=np.float32) * 2.0],
            ctx=("broken-fused", bucket.numel),
        )

    def decompress_fused(self, compressed, out=None):
        if (
            isinstance(compressed.ctx, tuple)
            and compressed.ctx and compressed.ctx[0] == "broken-fused"
        ):
            return compressed.payload[0]
        return super().decompress_fused(compressed, out=out)


class DataDependentFormatCompressor(IdentityCompressor):
    """Falls back to the generic format when a segment is all zero — what
    qsgd and terngrad used to do on a zero norm / zero scale."""

    fused_kernel = True

    def compress_fused(self, buffer, bucket):
        if any(
            not np.any(buffer[seg.offset:seg.end]) for seg in bucket.segments
        ):
            return super().compress_fused(buffer, bucket)
        return CompressedTensor(
            payload=[np.array(buffer, dtype=np.float32)],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket):
        return payload[0]


def _violation(compressor, **kwargs) -> ContractViolation:
    checker = ContractChecker(compressor, **kwargs)
    with pytest.raises(ContractViolation) as excinfo:
        checker.compress(_tensor(), "t")
    return excinfo.value


class TestViolationDetection:
    def test_non_ndarray_payload(self):
        assert _violation(ListPayloadCompressor()).check == "payload-type"

    def test_ndarray_in_ctx(self):
        assert _violation(CtxSmugglingCompressor()).check == "ctx-honesty"

    def test_unserializable_payload(self):
        assert _violation(UnserializableCompressor()).check == "wire-roundtrip"

    def test_stale_nbytes_cache(self):
        assert _violation(TamperedNbytesCompressor()).check == "nbytes"

    def test_input_mutation(self):
        assert _violation(MutatingCompressor()).check == "input-mutation"

    def test_roundtrip_shape(self):
        assert _violation(WrongShapeCompressor()).check == "roundtrip"

    def test_roundtrip_dtype(self):
        assert _violation(Float64Compressor()).check == "roundtrip"

    def test_nondeterministic_replay(self):
        assert _violation(NondeterministicCompressor()).check == "determinism"

    def test_payload_aliasing_input(self):
        # The per-rank ScratchPool reuses its buffers across calls, so a
        # payload view into the input would silently change later.
        assert _violation(AliasingCompressor()).check == "scratch-aliasing"

    def test_payload_aliasing_is_always_on(self):
        checker = ContractChecker(AliasingCompressor(), check_every=1000)
        checker_input = _tensor()
        with pytest.raises(ContractViolation):
            checker.compress(checker_input, "a")  # expensive call
        with pytest.raises(ContractViolation) as excinfo:
            checker.compress(checker_input, "b")  # off-cycle: still caught
        assert excinfo.value.check == "scratch-aliasing"

    def test_payload_aliasing_fused_buffer(self):
        from repro.core.fusion import FusionPlan

        grads = {"a": _tensor(), "b": np.ones(5, dtype=np.float32)}
        plan = FusionPlan.from_gradients(grads, 1 << 20)
        (bucket,) = plan.buckets
        buffer = np.empty(bucket.numel, dtype=np.float32)
        for seg in bucket.segments:
            buffer[seg.offset:seg.end] = grads[seg.name].ravel()
        checker = ContractChecker(AliasingFusedCompressor())
        with pytest.raises(ContractViolation) as excinfo:
            checker.compress_fused(buffer, bucket)
        assert excinfo.value.check == "scratch-aliasing"

    def test_broken_fused_parity(self):
        from repro.core.fusion import FusionPlan

        grads = {"a": _tensor(), "b": np.ones(5, dtype=np.float32)}
        plan = FusionPlan.from_gradients(grads, 1 << 20)
        (bucket,) = plan.buckets
        buffer = np.empty(bucket.numel, dtype=np.float32)
        for seg in bucket.segments:
            buffer[seg.offset:seg.end] = grads[seg.name].ravel()
        checker = ContractChecker(BrokenFusedCompressor())
        with pytest.raises(ContractViolation) as excinfo:
            checker.compress_fused(buffer, bucket)
        assert excinfo.value.check in ("fused-parity", "roundtrip")

    def test_data_dependent_fused_format(self):
        from repro.core.fusion import FusionPlan

        grads = {"a": _tensor() + 1.0, "b": np.ones(5, dtype=np.float32)}
        plan = FusionPlan.from_gradients(grads, 1 << 20)
        (bucket,) = plan.buckets
        buffer = bucket.pack(grads, np.empty(bucket.numel, dtype=np.float32))
        checker = ContractChecker(DataDependentFormatCompressor())
        with pytest.raises(ContractViolation) as excinfo:
            checker.compress_fused(buffer, bucket)
        assert excinfo.value.check == "format-stability"

    def test_violation_message_names_compressor_and_check(self):
        error = _violation(ListPayloadCompressor())
        assert "fake-identity" in str(error)
        assert "payload-type" in str(error)


class TestCheckEvery:
    def test_expensive_checks_are_thinned(self):
        checker = ContractChecker(NondeterministicCompressor(), check_every=2)
        with pytest.raises(ContractViolation):
            checker.compress(_tensor(), "a")  # call 1: expensive, caught
        checker.compress(_tensor(), "b")  # call 2: off-cycle, passes

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ContractChecker(IdentityCompressor(), check_every=0)


class TestTransparency:
    def test_metadata_mirrors_inner(self):
        inner = create("topk", seed=0)
        checker = ContractChecker(inner)
        assert checker.name == inner.name
        assert checker.family == inner.family
        assert checker.stochastic == inner.stochastic
        assert checker.communication == inner.communication
        assert checker.default_memory == inner.default_memory
        assert checker.fused_kernel == inner.fused_kernel

    def test_unknown_attributes_delegate(self):
        checker = ContractChecker(create("topk", seed=0))
        compressed = checker.compress(_tensor(), "t")
        indices = checker.transmitted_indices(compressed)
        assert indices.dtype == np.int64

    def test_clone_stays_checked(self):
        checker = ContractChecker(ListPayloadCompressor(), check_every=3)
        clone = checker.clone(seed=5)
        assert isinstance(clone, ContractChecker)
        assert clone.check_every == 3
        with pytest.raises(ContractViolation):
            clone.compress(_tensor(), "t")

    def test_reseed_reaches_inner(self):
        inner = create("qsgd", seed=0)
        checker = ContractChecker(inner)
        checker.reseed(99)
        bare = create("qsgd", seed=0)
        bare.reseed(99)
        a = checker.compress(_tensor(), "t")
        b = bare.compress(_tensor(), "t")
        assert a.payload[2].tobytes() == b.payload[2].tobytes()

    def test_aggregate_delegates(self):
        checker = ContractChecker(IdentityCompressor())
        out = checker.aggregate([np.ones(3, np.float32),
                                 3.0 * np.ones(3, np.float32)])
        np.testing.assert_allclose(out, 2.0)

    def test_good_compressor_passes_repeatedly(self):
        checker = ContractChecker(create("powersgd", seed=1))
        tensor = np.random.default_rng(2).standard_normal(
            (8, 6)).astype(np.float32)
        for step in range(3):  # stateful warm start must replay cleanly
            compressed = checker.compress(tensor, "w")
            assert checker.decompress(compressed).shape == tensor.shape
