"""Random-k sparsification (Stich et al., NeurIPS 2018).

Selects ``k = ratio·d`` uniformly random elements.  Biased by design;
multiplying by ``d/k`` (``unbiased=True``) restores unbiasedness at the
price of higher variance — both variants from §III-B are supported.
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
from repro.tensorlib import desparsify, sparsify_randomk


class _FusedRandomKCtx:
    """Decompression ctx for the vectorized fused random-k payload."""

    __slots__ = ("bucket", "ks")

    def __init__(self, bucket, ks: np.ndarray):
        self.bucket = bucket
        self.ks = ks


class RandomKCompressor(Compressor):
    """Uniform random coordinate selection."""

    name = "randomk"
    family = "sparsification"
    stochastic = True
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True
    aggregation = "exact-linear"

    def __init__(self, ratio: float = 0.01, unbiased: bool = False, seed: int = 0):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)
        self.unbiased = bool(unbiased)

    def _clone_args(self) -> dict:
        return {"ratio": self.ratio, "unbiased": self.unbiased}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        k = max(1, math.ceil(self.ratio * flat.size))
        values, indices = sparsify_randomk(flat, k, rng=self._rng)
        if self.unbiased:
            values = values * (flat.size / k)
        payload = [values.astype(np.float32), indices.astype(np.int32)]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Fused random-k: batched gather + scale over the whole bucket.

        Index *drawing* stays per segment — ``Generator.choice`` without
        replacement consumes the stream in a size-dependent pattern, so
        drawing per segment in order is what keeps fused and per-tensor
        runs seeded-equal.  The heavy work (gathering the selected
        values and applying the ``d/k`` unbiasing scale) runs as one
        whole-bucket pass.
        """
        if bucket.has_empty_segment:
            return super().compress_fused(buffer, bucket)
        locals_per_seg = []
        for seg in bucket.segments:
            k = min(max(1, math.ceil(self.ratio * seg.size)), seg.size)
            locals_per_seg.append(
                np.sort(
                    self._rng.choice(seg.size, size=k, replace=False)
                ).astype(np.int64)
            )
        ks = np.array([idx.size for idx in locals_per_seg], dtype=np.int64)
        local = np.concatenate(locals_per_seg)
        values = buffer[local + np.repeat(bucket.offsets, ks)]
        if self.unbiased:
            scales = (bucket.sizes / ks).astype(np.float32)
            values = values * np.repeat(scales, ks)
        return CompressedTensor(
            payload=[values.astype(np.float32), local.astype(np.int32)],
            ctx=_FusedRandomKCtx(bucket, ks),
        )

    def decompress_fused(
        self, compressed: CompressedTensor, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Scatter every segment's sparse values into one flat bucket."""
        ctx = compressed.ctx
        if not isinstance(ctx, _FusedRandomKCtx):
            return super().decompress_fused(compressed, out=out)
        bucket = ctx.bucket
        if out is None:
            out = np.empty(bucket.numel, dtype=np.float32)
        out[:] = 0.0
        values, local = compressed.payload
        flat_idx = local.astype(np.int64) + np.repeat(bucket.offsets, ctx.ks)
        out[flat_idx] = values
        return out

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        values, indices = compressed.payload
        return desparsify(values, indices.astype(np.int64), size).reshape(shape)

    def _coords_form(self, compressed: CompressedTensor):
        ctx = compressed.ctx
        if isinstance(ctx, _FusedRandomKCtx):
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
            shape, size = ctx
            values, indices = compressed.payload
            return (
                tuple(shape),
                int(size),
                np.asarray(values, dtype=np.float32),
                np.asarray(indices, dtype=np.int64),
            )
        return super()._coords_form(compressed)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum: coordinate-list concatenation."""
        if not items:
            raise ValueError("nothing to aggregate")
        if is_fused_concat_ctx(items[0].ctx):
            return self._aggregate_fused_segments(items)
        return self._aggregate_coords(items)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire; positions in the bucket for a
        fused payload."""
        if isinstance(compressed.ctx, _FusedRandomKCtx):
            return self._coords_form(compressed)[3]
        return compressed.payload[1].astype(np.int64)
