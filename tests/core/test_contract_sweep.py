"""Registry-wide contract sweep.

Every registered compressor is driven through the runtime
:class:`ContractChecker` — payload types, ctx honesty, wire round-trip,
nbytes accounting, determinism replay and fused-vs-unfused parity — over
dense, sparse, scalar and empty tensors plus a fused bucket, and held to
"ctx is receiver-known": a payload decodes the same under the ctx of any
other tensor of its shape.  A new compressor lands in this sweep
automatically the moment it registers; the parameter variants that switch
a kernel's wire format or draws are swept beside the defaults.
"""

import numpy as np
import pytest

from repro.core.api import CompressedTensor
from repro.core.contract import ContractChecker, ContractViolation
from repro.core.fusion import FusionPlan, tensor_bucket
from repro.core.registry import available_compressors, create
from repro.core.wire import serialize_payload
from tests.core import kernel_digest_cases

_RNG = np.random.default_rng(20210705)

CASES = {
    "dense": _RNG.standard_normal((17, 9)).astype(np.float32),
    "sparse": np.where(
        _RNG.random(300) < 0.05, _RNG.standard_normal(300), 0.0
    ).astype(np.float32).reshape(20, 15),
    "scalar": np.array([0.731], dtype=np.float32),
    "empty": np.zeros((0,), dtype=np.float32),
}

#: Every registered compressor with its defaults (by name), plus the
#: kernel digests' parameter variants (``name:variant``).
SWEPT = dict(
    {name: (name, {}) for name in available_compressors()},
    **kernel_digest_cases.VARIANTS,
)


def create_swept(label: str, seed: int):
    name, params = SWEPT[label]
    return create(name, seed=seed, **params)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("label", sorted(SWEPT))
def test_contract_holds_per_tensor(label, case):
    tensor = CASES[case].copy()
    checker = ContractChecker(create_swept(label, seed=3))
    compressed = checker.compress(tensor, "sweep")
    restored = checker.decompress(compressed)
    assert restored.shape == tensor.shape
    assert restored.dtype == np.float32


@pytest.mark.parametrize("label", sorted(SWEPT))
def test_contract_holds_fused(label):
    """A bucket with a tensor of no elements between live ones: the
    kernel must decode it as the tensors' own buckets decode them."""
    rng = np.random.default_rng(11)
    grads = {
        "conv.w": rng.standard_normal((7, 5)).astype(np.float32),
        "gap.w": np.zeros((0, 3), dtype=np.float32),
        "conv.b": rng.standard_normal((64,)).astype(np.float32),
        "block.w": rng.standard_normal((3, 4, 2)).astype(np.float32),
    }
    plan = FusionPlan.from_gradients(grads, 1 << 20)
    (bucket,) = plan.buckets
    buffer = np.empty(bucket.numel, dtype=np.float32)
    for seg in bucket.segments:
        buffer[seg.offset:seg.end] = grads[seg.name].ravel()

    checker = ContractChecker(create_swept(label, seed=3))
    compressed = checker.compress_fused(buffer.copy(), bucket)
    restored = checker.decompress_fused(compressed)
    assert restored.shape == (bucket.numel,)
    assert restored.dtype == np.float32


def _shipping_uint32_indices(label: str):
    """The swept compressor, mutated to ship its index parts as uint32 —
    the real-process backend's wire has no code for that dtype."""
    compressor = create_swept(label, seed=3)
    kernel = type(compressor).compress_fused

    def compress_fused(self, buffer, bucket):
        compressed = kernel(self, buffer, bucket)
        payload = list(compressed.payload)
        for part in self.index_extents(bucket):
            payload[part] = payload[part].astype(np.uint32)
        return CompressedTensor(payload=payload, ctx=compressed.ctx)

    compressor.compress_fused = compress_fused.__get__(compressor)
    return compressor


@pytest.mark.parametrize("label", sorted(
    label for label in SWEPT
    if create_swept(label, seed=0).index_extents(tensor_bucket("t", (8,)))
))
def test_a_part_the_wire_cannot_frame_is_caught(label):
    """A part only a real transport would fail to frame fails the
    sequential sweep, naming the compressor, the part and the dtype."""
    checker = ContractChecker(_shipping_uint32_indices(label))
    with pytest.raises(ContractViolation) as excinfo:
        checker.compress(CASES["dense"].copy(), "sweep")
    assert excinfo.value.check == "payload-type"
    assert f"[{SWEPT[label][0]}]" in str(excinfo.value)
    assert "has dtype uint32" in str(excinfo.value)


#: The contract cases plus a 4-d tensor (``none`` keeps its shape on the
#: wire) and the kernel digests' exact magnitude ties (``topk``'s pick).
ONE_SEGMENT_CASES = dict(
    CASES,
    conv=_RNG.standard_normal((8, 4, 3, 3)).astype(np.float32),
    ties=kernel_digest_cases.inputs(0)["ties"],
)


@pytest.mark.parametrize("case", sorted(ONE_SEGMENT_CASES))
@pytest.mark.parametrize("name", available_compressors())
def test_a_tensor_is_a_one_segment_bucket(name, case):
    """The trainer compresses a per-tensor run's units with
    ``compress_fused`` on one-segment buckets: decoded values, draws and
    serialized bytes must be ``compress``'s."""
    tensor = ONE_SEGMENT_CASES[case]
    per_tensor, kernel = create(name, seed=3), create(name, seed=3)
    compressed = per_tensor.compress(tensor.copy(), "t")
    fused = kernel.compress_fused(
        np.ravel(tensor).astype(np.float32), tensor_bucket("t", tensor.shape)
    )
    assert (
        kernel.decompress_fused(fused).tobytes()
        == np.ravel(per_tensor.decompress(compressed)).tobytes()
    )
    assert (
        kernel._rng.bit_generator.state == per_tensor._rng.bit_generator.state
    )
    assert serialize_payload(fused.payload) == serialize_payload(
        compressed.payload
    )


@pytest.mark.parametrize("name", available_compressors())
def test_checker_is_transparent(name):
    """Wrapping must not change the compressed output bitwise."""
    tensor = CASES["dense"].copy()
    bare = create(name, seed=7).compress(tensor.copy(), "t")
    checked = ContractChecker(create(name, seed=7)).compress(tensor, "t")
    assert len(bare.payload) == len(checked.payload)
    for a, b in zip(bare.payload, checked.payload):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert bare.nbytes == checked.nbytes


# ---------------------------------------------------------------------------
# ctx is receiver-known
# ---------------------------------------------------------------------------


def _zero_block(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out.reshape(-1)[out.size // 5: out.size // 2] = 0.0
    return out


def _heavy_tailed(values: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(0x7A11)
    return (
        0.01 * rng.standard_cauchy(values.shape) ** 3
    ).astype(np.float32)


#: What a peer's gradient of the same shape may look like where mine is
#: dense: a block of zeros (untouched embedding rows), nothing at all (a
#: dead layer), orders of magnitude more spread.
PROBES = {
    "zero-block": _zero_block,
    "all-zero": np.zeros_like,
    "heavy-tailed": _heavy_tailed,
}


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("label", sorted(SWEPT))
def test_ctx_is_receiver_known_per_tensor(label, probe):
    """In worker mode a rank decodes its peers' payloads under its *own*
    ctx (``repro.core.exchange.Exchange``'s finish), so ctx may hold only
    what every rank knows — shape, size, parameters — and
    ``decompress(payload_B, ctx_A)`` must be ``decompress(payload_B,
    ctx_B)`` for same-shape A and B.
    (sketchml's ctx used to carry the sender's non-zero count.)"""
    mine = CASES["dense"].copy()
    theirs = PROBES[probe](mine)
    my_ctx = create_swept(label, seed=3).compress(mine, "t").ctx
    peer = create_swept(label, seed=3)
    sent = peer.compress(theirs, "t")
    under_their_ctx = peer.decompress(sent)
    under_my_ctx = peer.decompress(CompressedTensor(sent.payload, my_ctx))
    assert under_my_ctx.tobytes() == under_their_ctx.tobytes()


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("label", sorted(SWEPT))
def test_ctx_is_receiver_known_fused(label, probe):
    """The same at bucket level, through every ``compress_fused`` — kernel
    or generic concatenation, whose ctx is the tensors' own ctxs."""
    rng = np.random.default_rng(11)
    grads = {
        "conv.w": rng.standard_normal((7, 5)).astype(np.float32),
        "conv.b": rng.standard_normal((64,)).astype(np.float32),
        "block.w": rng.standard_normal((3, 4, 2)).astype(np.float32),
        "head.w": rng.standard_normal((40, 9)).astype(np.float32),
    }
    (bucket,) = FusionPlan.from_gradients(grads, 1 << 20).buckets
    mine = bucket.pack(grads, np.empty(bucket.numel, dtype=np.float32))
    theirs = PROBES[probe](mine)  # the block swallows conv.b whole
    my_ctx = create_swept(label, seed=3).compress_fused(
        mine.copy(), bucket
    ).ctx
    peer = create_swept(label, seed=3)
    sent = peer.compress_fused(theirs.copy(), bucket)
    under_their_ctx = peer.decompress_fused(sent).copy()
    under_my_ctx = peer.decompress_fused(
        CompressedTensor(sent.payload, my_ctx)
    )
    assert under_my_ctx.tobytes() == under_their_ctx.tobytes()
