"""Index parts travel at the width their layout needs.

Sender and receiver share the bucket layout, so both derive an index
part's dtype from the extent it counts in
(:func:`repro.tensorlib.indices.index_dtype`): no tag travels.  Narrowing
must not change what a payload decodes to, so every coordinate
sparsifier's payload decodes bitwise like the same payload with its
index parts widened to int32, on layouts whose extents straddle the
uint8 and uint16 limits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.api import WIRE_DTYPES, CompressedTensor
from repro.core.fusion import BucketSegment, FusionBucket
from repro.core.registry import create
from repro.tensorlib.indices import index_dtype

#: The widths an index part may take, narrowest first.
LADDER = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.int32, np.int64))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=1 << 40))
@example(1)
@example(256)
@example(257)
@example(65_536)
@example(65_537)
def test_index_dtype_is_the_narrowest_that_holds_the_last_position(extent):
    dtype = index_dtype(extent)
    assert dtype in LADDER and dtype in WIRE_DTYPES
    assert np.iinfo(dtype).max >= extent - 1
    for narrower in LADDER[:LADDER.index(dtype)]:
        assert np.iinfo(narrower).max < extent - 1


@pytest.mark.parametrize("extent, dtype", [
    (1, np.uint8), (256, np.uint8), (257, np.uint16),
    (65_536, np.uint16), (65_537, np.int32),
])
def test_the_limits(extent, dtype):
    assert index_dtype(extent) == np.dtype(dtype)


#: Every compressor that sends positions, with the variants that change
#: how it draws them.
SPARSIFIERS = {
    "topk": ("topk", {}),
    "randomk": ("randomk", {}),
    "randomk:unbiased": ("randomk", {"unbiased": True}),
    "dgc": ("dgc", {}),
    "thresholdv": ("thresholdv", {}),
    "variance": ("variance", {}),
    "adaptive": ("adaptive", {}),
    "qsparse": ("qsparse", {}),
    "qsparse:randomk": ("qsparse", {"selection": "randomk"}),
    "sketchml": ("sketchml", {}),
}


def _bucket(*sizes: int) -> FusionBucket:
    offsets = np.cumsum((0,) + sizes[:-1]).tolist()
    return FusionBucket(0, tuple(
        BucketSegment(f"t{at}", (size,), offset, size)
        for at, (size, offset) in enumerate(zip(sizes, offsets))
    ))


#: Buckets whose largest tensor, or whose element count, sits on either
#: side of 256 and of 65,536.
LAYOUTS = {
    "256": (256,),
    "200+57": (200, 57),
    "257": (257,),
    "65536": (65_536,),
    "65000+537": (65_000, 537),
    "65537": (65_537,),
}


def _gradient(numel: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    flat = (1e-2 * rng.standard_normal(numel)).astype(np.float32)
    flat[rng.random(numel) < 0.2] = 0.0  # sketchml sends positions
    flat[-1] = 1.0  # the last position is among the kept
    return flat


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("label", sorted(SPARSIFIERS))
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_narrow_indices_decode_like_int32_ones(label, layout, seed):
    name, params = SPARSIFIERS[label]
    bucket = _bucket(*LAYOUTS[layout])
    compressor = create(name, seed=seed, **params)
    compressed = compressor.compress_fused(
        _gradient(bucket.numel, seed), bucket
    )
    extents = compressor.index_extents(bucket)
    assert extents
    widened = list(compressed.payload)
    for part, extent in extents.items():
        assert widened[part].dtype == index_dtype(extent)
        widened[part] = widened[part].astype(np.int32)
    narrow = compressor.decompress_fused(compressed)
    wide = compressor.decompress_fused(
        CompressedTensor(payload=widened, ctx=compressed.ctx)
    )
    assert narrow.tobytes() == wide.tobytes()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_union_takes_its_segment_width(layout):
    bucket = _bucket(*LAYOUTS[layout])
    workers = [create("topk", seed=rank) for rank in range(3)]
    items = [
        worker.compress_fused(_gradient(bucket.numel, rank), bucket)
        for rank, worker in enumerate(workers)
    ]
    aggregate = workers[0].aggregate_compressed(items)
    values, union = aggregate.payload
    assert union.dtype == index_dtype(bucket.numel)
    widened = CompressedTensor(
        payload=[values, union.astype(np.int32)], ctx=aggregate.ctx
    )
    assert (
        workers[0].decompress_aggregated(aggregate).tobytes()
        == workers[0].decompress_aggregated(widened).tobytes()
    )
