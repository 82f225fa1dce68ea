"""Registry-wide contract sweep.

Every registered compressor is driven through the runtime
:class:`ContractChecker` — payload types, ctx honesty, wire round-trip,
nbytes accounting, determinism replay and fused-vs-unfused parity — over
dense, sparse, scalar and empty tensors plus a fused bucket, and held to
"ctx is receiver-known": a payload decodes the same under the ctx of any
other tensor of its shape.  A new compressor lands in this sweep
automatically the moment it registers.
"""

import numpy as np
import pytest

from repro.core.api import CompressedTensor
from repro.core.contract import ContractChecker, ContractViolation
from repro.core.fusion import FusionPlan
from repro.core.registry import available_compressors, create

_RNG = np.random.default_rng(20210705)

CASES = {
    "dense": _RNG.standard_normal((17, 9)).astype(np.float32),
    "sparse": np.where(
        _RNG.random(300) < 0.05, _RNG.standard_normal(300), 0.0
    ).astype(np.float32).reshape(20, 15),
    "scalar": np.array([0.731], dtype=np.float32),
    "empty": np.zeros((0,), dtype=np.float32),
}

#: Compressors that reject a given input outright (that is allowed — the
#: contract only binds outputs of *successful* compress calls).
KNOWN_UNSUPPORTED = {
    ("dgc", "empty"),
    ("sketchsgd", "empty"),
    ("variance", "empty"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", available_compressors())
def test_contract_holds_per_tensor(name, case):
    tensor = CASES[case].copy()
    checker = ContractChecker(create(name, seed=3))
    try:
        compressed = checker.compress(tensor, "sweep")
    except ContractViolation:
        raise
    except Exception:
        if (name, case) in KNOWN_UNSUPPORTED:
            pytest.skip(f"{name} rejects {case} input")
        raise
    restored = checker.decompress(compressed)
    assert restored.shape == tensor.shape
    assert restored.dtype == np.float32


@pytest.mark.parametrize("name", available_compressors())
def test_contract_holds_fused(name):
    rng = np.random.default_rng(11)
    grads = {
        "conv.w": rng.standard_normal((7, 5)).astype(np.float32),
        "conv.b": rng.standard_normal((64,)).astype(np.float32),
        "block.w": rng.standard_normal((3, 4, 2)).astype(np.float32),
    }
    plan = FusionPlan.from_gradients(grads, 1 << 20)
    (bucket,) = plan.buckets
    buffer = np.empty(bucket.numel, dtype=np.float32)
    for seg in bucket.segments:
        buffer[seg.offset:seg.end] = grads[seg.name].ravel()

    checker = ContractChecker(create(name, seed=3))
    compressed = checker.compress_fused(buffer.copy(), bucket)
    restored = checker.decompress_fused(compressed)
    assert restored.shape == (bucket.numel,)
    assert restored.dtype == np.float32


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
@pytest.mark.parametrize("name", available_compressors())
def test_ctx_is_receiver_known_per_tensor(name, probe):
    """In worker mode a rank decodes its peers' payloads under its *own*
    ctx (the trainer's ``_like``), so ctx may hold only what every rank
    knows — shape, size, parameters — and ``decompress(payload_B, ctx_A)``
    must be ``decompress(payload_B, ctx_B)`` for same-shape A and B.
    (sketchml's ctx used to carry the sender's non-zero count.)"""
    mine = CASES["dense"].copy()
    theirs = PROBES[probe](mine)
    my_ctx = create(name, seed=3).compress(mine, "t").ctx
    peer = create(name, seed=3)
    sent = peer.compress(theirs, "t")
    under_their_ctx = peer.decompress(sent)
    under_my_ctx = peer.decompress(CompressedTensor(sent.payload, my_ctx))
    assert under_my_ctx.tobytes() == under_their_ctx.tobytes()


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("name", available_compressors())
def test_ctx_is_receiver_known_fused(name, probe):
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
    my_ctx = create(name, seed=3).compress_fused(mine.copy(), bucket).ctx
    peer = create(name, seed=3)
    sent = peer.compress_fused(theirs.copy(), bucket)
    under_their_ctx = peer.decompress_fused(sent).copy()
    under_my_ctx = peer.decompress_fused(
        CompressedTensor(sent.payload, my_ctx)
    )
    assert under_my_ctx.tobytes() == under_their_ctx.tobytes()
