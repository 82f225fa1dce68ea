"""Top-k sparsification (Aji & Heafield, EMNLP 2017; Fig. 4 of the paper).

Transmits the ``k = ratio·d`` largest-magnitude elements with their
indices.  The default wire format is the paper's float32 value plus one
position per selected element, at the width the bucket's largest tensor
needs (:func:`~repro.tensorlib.indices.index_dtype`: one byte up to 256
elements, two up to 65,536, four beyond); the optional
``index_encoding`` knob switches the index vector to a bitmap or
delta-varint representation (the DeepReduce direction of related-work
§VI) — see ``benchmarks/test_ablation_index_encoding.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import desparsify, segment_topk
from repro.tensorlib.indices import (
    MODES,
    decode_indices,
    encode_indices,
    index_dtype,
)


# One-byte wire tag of an encoded index buffer: its mode's place in
# ``MODES``.  Under ``index_encoding="auto"`` the chosen mode depends on
# the tensor values, so it must travel in the payload, not in ctx (GR003 /
# paper §IV-B).
_MODE_CODES = {mode: code for code, mode in enumerate(MODES)}


def _encoded_nbytes(buffer: np.ndarray, mode: str, size: int, k: int) -> int:
    """Bytes ``k`` encoded positions in a tensor of ``size`` take at the
    head of ``buffer``."""
    if mode == "int32":
        return 4 * k
    if mode == "bitmap":
        return (size + 7) // 8
    if not k:
        return 0
    # A varint ends at a byte without the continuation bit.
    return int(np.flatnonzero(buffer < 0x80)[k - 1]) + 1


class TopKCompressor(KernelCompressor):
    """Deterministic largest-magnitude selection."""

    name = "topk"
    family = "sparsification"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    aggregation = "exact-linear"

    def __init__(
        self, ratio: float = 0.01, index_encoding: str = "int32",
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if index_encoding not in ("int32", "bitmap", "delta", "auto"):
            raise ValueError(
                f"unknown index_encoding {index_encoding!r}"
            )
        self.ratio = float(ratio)
        self.index_encoding = index_encoding

    def _clone_args(self) -> dict:
        return {"ratio": self.ratio, "index_encoding": self.index_encoding}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Whole-bucket top-k: every segment's k largest, partitioned out
        of its run of the magnitudes (:func:`~repro.tensorlib.segment_topk`,
        the call ``sparsify_topk`` makes), so even exact magnitude ties at
        the k-th value pick the same elements.  Wire: the values, then each
        one's position in its own tensor, grouped by tensor — at the width
        of the largest tensor (:meth:`index_extents`), or per tensor a
        one-byte mode tag and its encoded positions.
        """
        ks = bucket.ratio_counts(self.ratio)
        selected = segment_topk(np.abs(buffer), bucket.ends, ks)
        local = selected - np.repeat(bucket.offsets, ks)
        if self.index_encoding == "int32":
            indices = local.astype(index_dtype(bucket.largest))
        else:
            pieces = []
            for size, run in zip(
                bucket.sizes.tolist(), np.split(local, np.cumsum(ks)[:-1])
            ):
                encoded, mode = encode_indices(
                    run, size, mode=self.index_encoding
                )
                pieces += [np.array([_MODE_CODES[mode]], np.uint8), encoded]
            indices = np.concatenate(pieces)
        return CompressedTensor(
            payload=[buffer[selected], indices], ctx=FusedBucketCtx(bucket)
        )

    def index_extents(self, bucket) -> dict[int, int]:
        """Plain positions count in their own tensor; encoded ones travel
        as bytes."""
        return {1: bucket.largest} if self.index_encoding == "int32" else {}

    def _positions(self, payload, bucket) -> np.ndarray:
        """Bucket positions of a payload's values, in order."""
        ks = bucket.ratio_counts(self.ratio)
        indices = payload[1]
        if self.index_encoding == "int32":
            return indices.astype(np.int64) + np.repeat(bucket.offsets, ks)
        positions, cursor = [], 0
        for offset, size, k in zip(
            bucket.offsets.tolist(), bucket.sizes.tolist(), ks.tolist()
        ):
            mode = MODES[indices[cursor]]
            encoded = indices[cursor + 1:]
            nbytes = _encoded_nbytes(encoded, mode, size, k)
            positions.append(
                decode_indices(encoded[:nbytes], mode, size, k) + offset
            )
            cursor += 1 + nbytes
        return np.concatenate(positions)

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """Scatter every segment's sparse values into one flat bucket."""
        return desparsify(
            payload[0], self._positions(payload, bucket), bucket.numel
        )

    def _coords_form(self, compressed: CompressedTensor):
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            bucket = ctx.bucket
            return (
                bucket.shape,
                int(bucket.numel),
                np.asarray(compressed.payload[0], dtype=np.float32),
                self._positions(compressed.payload, bucket),
            )
        return super()._coords_form(compressed)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum: coordinate-list concatenation.

        The aggregated form always carries plain bucket positions, at the
        width the bucket's ``numel`` needs — bitmap and delta-varint
        encodings are decoded server-side, since duplicate coordinates
        across workers cannot be represented by a bitmap and the
        aggregate is what fans out.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        return self._aggregate_coords(items)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat bucket positions sent on the wire (consumed by DGC-style
        memories); a tensor's own indices for its one-segment bucket."""
        return self._positions(compressed.payload, compressed.ctx.bucket)
