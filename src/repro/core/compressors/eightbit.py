"""8-bit quantization (Dettmers, ICLR 2016).

Each float32 element maps to 8 bits — 1 sign, 3 exponent and 4 mantissa
bits — after normalizing by the tensor's max magnitude (the dynamic
scheme).  The scale travels with the codes.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
    is_fused_concat_ctx,
)
from repro.tensorlib import dequantize_float8, quantize_float8


class EightBitCompressor(Compressor):
    """Dynamic 1-3-4 float8 quantization."""

    name = "eightbit"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True
    aggregation = "codebook"

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        codes, scale = quantize_float8(flat)
        payload = [codes, np.array([scale], dtype=np.float32)]
        return CompressedTensor(payload=payload, ctx=(shape,))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        (shape,) = compressed.ctx
        codes, scale = compressed.payload
        # The wire scale stays float32: widening it changes no decoded
        # value (the kernel digests hold either way).
        return dequantize_float8(codes, scale[0]).reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One float8 pass over the bucket, one max-abs scale per segment."""
        scales = bucket.segment_max(np.abs(buffer))
        codes, _ = quantize_float8(buffer, bucket.expand(scales))
        return CompressedTensor(
            payload=[codes, scales], ctx=FusedBucketCtx(bucket)
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        codes, scales = payload
        return dequantize_float8(codes, bucket.expand(scales))

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Shared-codebook sum on the generic max-δ lattice.

        Float8 values are not equally spaced, so the generic dense-decode
        lattice snap applies — approximate, bounded by ``n·δ*``.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        if is_fused_concat_ctx(items[0].ctx):
            return self._aggregate_fused_segments(items)
        return self._aggregate_lattice(items)
