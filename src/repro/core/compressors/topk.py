"""Top-k sparsification (Aji & Heafield, EMNLP 2017; Fig. 4 of the paper).

Transmits the ``k = ratio·d`` largest-magnitude elements with their
indices.  The default wire format matches the paper's accounting
(float32 value + int32 index per selected element); the optional
``index_encoding`` knob switches the index vector to a bitmap or
delta-varint representation (the DeepReduce direction of related-work
§VI) — see ``benchmarks/test_ablation_index_encoding.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    flatten_with_shape,
    is_fused_concat_ctx,
)
from repro.tensorlib import desparsify, sparsify_topk
from repro.tensorlib.indices import decode_indices, encode_indices


# One-byte wire tags for the index-buffer representation.  Under
# ``index_encoding="auto"`` the chosen mode depends on the tensor values,
# so it must travel in the payload, not in ctx (GR003 / paper §IV-B).
_MODE_CODES = {"bitmap": 1, "delta": 2}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}


class _FusedTopKCtx:
    """Decompression ctx for the vectorized fused top-k payload."""

    __slots__ = ("bucket", "ks")

    def __init__(self, bucket, ks: np.ndarray):
        self.bucket = bucket
        self.ks = ks  # int64 per-segment selection counts


class TopKCompressor(Compressor):
    """Deterministic largest-magnitude selection."""

    name = "topk"
    family = "sparsification"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True
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

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        k = max(1, math.ceil(self.ratio * flat.size))
        values, indices = sparsify_topk(flat, k)
        if self.index_encoding == "int32":
            payload = [values.astype(np.float32), indices.astype(np.int32)]
            return CompressedTensor(
                payload=payload, ctx=(shape, flat.size, "int32", k)
            )
        buffer, mode = encode_indices(
            indices, flat.size, mode=self.index_encoding
        )
        # Prefix the index buffer with a one-byte mode tag; ctx carries
        # only the configured (receiver-known) encoding name.
        tagged = np.concatenate(
            [np.array([_MODE_CODES[mode]], dtype=np.uint8), buffer]
        )
        payload = [values.astype(np.float32), tagged]
        return CompressedTensor(
            payload=payload, ctx=(shape, flat.size, self.index_encoding, k)
        )

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Whole-bucket top-k: one sort selects every segment's k largest.

        The bucket is ordered by a single uint64 composite key — segment
        id in the high 32 bits, the bitwise complement of the magnitude's
        IEEE-754 pattern in the low 32 (positive floats order like their
        bit patterns, so complementing sorts magnitudes descending).
        Group *g* then occupies exactly ``[offset_g, offset_g + size_g)``
        in the sorted order and the per-segment top-k are the rows whose
        within-group position is below ``k_g`` — one sort, no Python
        loop over tensors.  Selection agrees with the per-tensor
        ``argpartition`` except on exact magnitude ties at the k-th
        value.
        """
        if self.index_encoding != "int32" or bucket.has_empty_segment:
            return super().compress_fused(buffer, bucket)
        buffer = np.ascontiguousarray(buffer, dtype=np.float32)
        sizes = bucket.sizes
        ks = bucket.ratio_counts(self.ratio)
        magnitude_bits = np.abs(buffer).view(np.uint32).astype(np.uint64)
        key = bucket.segment_keys | (magnitude_bits ^ np.uint64(0xFFFFFFFF))
        order = np.argsort(key)
        keep = bucket.positions_within < np.repeat(ks, sizes)
        # Segment ranges are disjoint and increasing, so a plain ascending
        # sort of the selected flat indices is the canonical wire layout
        # (grouped by segment, indices ascending within each).
        selected = np.sort(order[keep])
        values = buffer[selected]
        local = selected - np.repeat(bucket.offsets, ks)
        return CompressedTensor(
            payload=[values, local.astype(np.int32)],
            ctx=_FusedTopKCtx(bucket, ks),
        )

    def decompress_fused(
        self, compressed: CompressedTensor, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Scatter every segment's sparse values into one flat bucket."""
        ctx = compressed.ctx
        if not isinstance(ctx, _FusedTopKCtx):
            return super().decompress_fused(compressed, out=out)
        bucket = ctx.bucket
        if out is None:
            out = np.empty(bucket.numel, dtype=np.float32)
        out[:] = 0.0
        values, local = compressed.payload
        flat_idx = local.astype(np.int64) + np.repeat(bucket.offsets, ctx.ks)
        out[flat_idx] = values
        return out

    def _indices(self, compressed: CompressedTensor) -> np.ndarray:
        shape, size, encoding, k = compressed.ctx
        if encoding == "int32":
            return compressed.payload[1].astype(np.int64)
        tagged = compressed.payload[1]
        mode = _MODE_NAMES[int(tagged[0])]
        return decode_indices(tagged[1:], mode, size, k)

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size, mode, k = compressed.ctx
        values = compressed.payload[0]
        indices = self._indices(compressed)
        return desparsify(values, indices, size).reshape(shape)

    def _coords_form(self, compressed: CompressedTensor):
        ctx = compressed.ctx
        if isinstance(ctx, _FusedTopKCtx):
            values, local = compressed.payload
            bucket = ctx.bucket
            flat_idx = local.astype(np.int64) + np.repeat(
                bucket.offsets, ctx.ks
            )
            return (
                (int(bucket.numel),),
                int(bucket.numel),
                np.asarray(values, dtype=np.float32),
                flat_idx,
            )
        if isinstance(ctx, tuple):
            shape, size, _, _ = ctx
            return (
                tuple(shape),
                int(size),
                np.asarray(compressed.payload[0], dtype=np.float32),
                self._indices(compressed),
            )
        return super()._coords_form(compressed)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum: coordinate-list concatenation.

        The aggregated form always carries plain int64 indices — bitmap
        and delta-varint encodings are decoded server-side, since
        duplicate coordinates across workers cannot be represented by a
        bitmap and the aggregate is what fans out.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        if is_fused_concat_ctx(items[0].ctx):
            return self._aggregate_fused_segments(items)
        return self._aggregate_coords(items)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire (consumed by DGC-style memories);
        positions in the bucket for a fused payload."""
        if isinstance(compressed.ctx, _FusedTopKCtx):
            return self._coords_form(compressed)[3]
        return self._indices(compressed)
