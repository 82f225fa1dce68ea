"""Unit tests for the runtime contract checker.

The sweep (``test_contract_sweep.py``) proves real compressors pass;
these tests prove the checker actually *catches* each violation class,
using deliberately broken fake compressors.
"""

import numpy as np
import pytest

from repro.core.api import (
    AggregatedCoordsCtx,
    AggregatedDenseCtx,
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
    summand_count,
    unpack_lattice_codes,
)
from repro.core.contract import ContractChecker, ContractViolation
from repro.core.fusion import BucketSegment, FusionBucket
from repro.core.registry import create
from repro.tensorlib.indices import index_dtype


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


class MutatingFusedCompressor(IdentityCompressor):
    """A kernel that uses its input as workspace: correct payload, but the
    caller's buffer (with an identity φ, the gradient) comes back changed."""

    fused_kernel = True

    def compress_fused(self, buffer, bucket):
        payload = [np.array(buffer, dtype=np.float32)]
        np.abs(buffer, out=buffer)
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def _decompress_bucket(self, payload, bucket):
        return payload[0]


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
    """A kernel whose bucket is not its tensors: it doubles a bucket of
    several tensors."""

    fused_kernel = True

    def compress_fused(self, buffer, bucket):
        scale = np.float32(2.0 if len(bucket) > 1 else 1.0)
        return CompressedTensor(
            payload=[np.asarray(buffer, dtype=np.float32) * scale],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket):
        return payload[0]


class DataDependentFormatCompressor(IdentityCompressor):
    """Adds a part when a segment is all zero — the kind of format switch
    qsgd and terngrad used to make on a zero norm / zero scale."""

    fused_kernel = True

    def compress_fused(self, buffer, bucket):
        payload = [np.array(buffer, dtype=np.float32)]
        if any(
            not np.any(buffer[seg.offset:seg.end]) for seg in bucket.segments
        ):
            payload.append(np.ones(1, dtype=np.uint8))
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def _decompress_bucket(self, payload, bucket):
        return payload[0]


class WideLatticeQSGD(type(create("qsgd"))):
    """Ships its summed codes in int64 lanes, eight bytes an element."""

    def aggregate_compressed(self, items):
        agg = super().aggregate_compressed(items)
        deltas, width, packed = agg.payload
        codes = unpack_lattice_codes(width, packed, agg.ctx.size)
        return CompressedTensor(
            payload=[deltas, np.array([64], dtype=np.uint8), codes],
            ctx=agg.ctx,
        )


class CoordinatesOnlyTopK(type(create("topk"))):
    """Ships a wide union as coordinates instead of the dense sum."""

    def aggregate_compressed(self, items):
        agg = super().aggregate_compressed(items)
        if not isinstance(agg.ctx, AggregatedDenseCtx):
            return agg
        (dense,) = agg.payload
        return CompressedTensor(
            payload=[dense, np.arange(dense.size).astype(
                index_dtype(dense.size)
            )],
            ctx=AggregatedCoordsCtx(
                agg.ctx.shape, dense.size, agg.ctx.n_summands
            ),
        )


class Int32PositionsDgc(type(create("dgc"))):
    """Ships its bucket positions as int32 whatever the bucket holds."""

    def compress_fused(self, buffer, bucket):
        compressed = super().compress_fused(buffer, bucket)
        values, indices = compressed.payload
        return CompressedTensor(
            payload=[values, indices.astype(np.int32)], ctx=compressed.ctx
        )


class Int32UnionTopK(type(create("topk"))):
    """Ships an aggregate's union as int32 whatever the segment holds."""

    def aggregate_compressed(self, items):
        agg = super().aggregate_compressed(items)
        values, union = agg.payload
        return CompressedTensor(
            payload=[values, union.astype(np.int32)], ctx=agg.ctx
        )


class TwoTableSketchSGD(type(create("sketchsgd"))):
    """Ships every summed table twice."""

    def aggregate_compressed(self, items):
        agg = super().aggregate_compressed(items)
        return CompressedTensor(
            payload=[agg.payload[0], agg.payload[0].copy()], ctx=agg.ctx
        )


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
        # A dtype with no wire code fails as a payload type, in every run,
        # not only in one whose payloads cross processes.
        error = _violation(UnserializableCompressor())
        assert error.check == "payload-type"
        assert "part 0 has dtype complex64" in str(error)

    def test_stale_nbytes_cache(self):
        assert _violation(TamperedNbytesCompressor()).check == "nbytes"

    def test_input_mutation(self):
        assert _violation(MutatingCompressor()).check == "input-mutation"

    def test_fused_input_mutation(self):
        from repro.core.fusion import FusionPlan

        grads = {"a": _tensor() - 1.0, "b": -np.ones(5, dtype=np.float32)}
        (bucket,) = FusionPlan.from_gradients(grads, 1 << 20).buckets
        buffer = bucket.pack(grads, np.empty(bucket.numel, dtype=np.float32))
        checker = ContractChecker(MutatingFusedCompressor())
        with pytest.raises(ContractViolation) as excinfo:
            checker.compress_fused(buffer, bucket)
        assert excinfo.value.check == "input-mutation"

    def test_fused_input_mutation_of_a_passed_through_gradient(self):
        from repro.core.fusion import tensor_bucket
        from repro.core.memory import NoneMemory

        gradient = -np.ones((2, 3), dtype=np.float32)
        bucket = tensor_bucket("w", gradient.shape)
        scratch = np.empty(bucket.numel, dtype=np.float32)
        buffer = NoneMemory().compensate_fused({"w": gradient}, bucket, scratch)
        assert np.shares_memory(buffer, gradient)  # φ handed on the gradient
        checker = ContractChecker(MutatingFusedCompressor())
        with pytest.raises(ContractViolation) as excinfo:
            checker.compress_fused(buffer, bucket)
        assert excinfo.value.check == "input-mutation"

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


class TestAggregateSize:
    @pytest.mark.parametrize("broken, params", [
        (WideLatticeQSGD, {}),
        (CoordinatesOnlyTopK, {"ratio": 0.9}),
        (TwoTableSketchSGD, {}),
    ])
    def test_aggregate_over_its_bound_is_caught(self, broken, params):
        inner = broken(**params)
        checker = ContractChecker(inner)
        rng = np.random.default_rng(4)
        items = [
            inner.compress(rng.standard_normal(256).astype(np.float32), "t")
            for _ in range(3)
        ]
        with pytest.raises(ContractViolation) as excinfo:
            checker.aggregate_compressed(items)
        assert excinfo.value.check == "aggregate-size"
        assert f"[{broken.name}]" in str(excinfo.value)

    @pytest.mark.parametrize("name, params", [
        ("qsgd", {}), ("topk", {"ratio": 0.9}), ("sketchsgd", {}),
    ])
    def test_the_real_aggregates_stay_within_it(self, name, params):
        checker = ContractChecker(create(name, **params))
        rng = np.random.default_rng(4)
        items = [
            checker.compress(rng.standard_normal(256).astype(np.float32), "t")
            for _ in range(3)
        ]
        assert summand_count(checker.aggregate_compressed(items)) == 3


class TestIndexWidth:
    def test_int32_positions_in_a_32k_bucket_are_caught(self):
        bucket = FusionBucket(0, (
            BucketSegment("w", (128, 250), 0, 32_000),
            BucketSegment("b", (768,), 32_000, 768),
        ))
        assert bucket.numel == 32_768
        buffer = np.random.default_rng(2).standard_normal(
            bucket.numel
        ).astype(np.float32)
        checker = ContractChecker(Int32PositionsDgc())
        with pytest.raises(ContractViolation) as excinfo:
            checker.compress_fused(buffer, bucket)
        assert excinfo.value.check == "index-width"
        assert "[dgc]" in str(excinfo.value)
        assert "index part 1 is int32" in str(excinfo.value)
        assert "uint16" in str(excinfo.value)

    def test_int32_union_on_a_1k_tensor_is_caught(self):
        inner = Int32UnionTopK()
        rng = np.random.default_rng(3)
        items = [
            inner.compress(rng.standard_normal(1024).astype(np.float32), "t")
            for _ in range(3)
        ]
        with pytest.raises(ContractViolation) as excinfo:
            ContractChecker(inner).aggregate_compressed(items)
        assert excinfo.value.check == "index-width"
        assert "[topk]" in str(excinfo.value)
        assert "index part 1 is int32" in str(excinfo.value)


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
