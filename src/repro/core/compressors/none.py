"""No-compression baseline: the identity operator over Allreduce."""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    AggregatedDenseCtx,
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    is_fused_concat_ctx,
)


class NoneCompressor(Compressor):
    """Transmit the raw float32 gradient; aggregate by summation."""

    name = "none"
    family = "none"
    stochastic = False
    communication = "allreduce"
    default_memory = "none"
    fused_kernel = True
    aggregation = "exact-linear"

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        # Copy even when the input is already float32: the payload must
        # not alias the trainer's reusable scratch buffers (the
        # ContractChecker's scratch-aliasing check enforces this for
        # every compressor).
        array = np.array(tensor, dtype=np.float32)
        return CompressedTensor(payload=[array], ctx=(array.shape,))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        (shape,) = compressed.ctx
        return np.asarray(compressed.payload[0], dtype=np.float32).reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """The identity on a bucket: one copy (the buffer is reused scratch)."""
        return CompressedTensor(
            payload=[np.array(buffer, dtype=np.float32)],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        return np.asarray(payload[0], dtype=np.float32)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum: plain float32 elementwise add."""
        if not items:
            raise ValueError("nothing to aggregate")
        ctx = items[0].ctx
        if is_fused_concat_ctx(ctx):
            return self._aggregate_fused_segments(items)
        if isinstance(ctx, FusedBucketCtx):
            shape = (ctx.bucket.numel,)
        else:
            shape = ctx.shape if isinstance(ctx, AggregatedDenseCtx) else ctx[0]
        return self._aggregate_dense(items, shape)
