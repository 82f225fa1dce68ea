"""8-bit quantization (Dettmers, ICLR 2016).

Each float32 element maps to 8 bits — 1 sign, 3 exponent and 4 mantissa
bits — after normalizing by the tensor's max magnitude (the dynamic
scheme).  The scale travels with the codes.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import dequantize_float8, quantize_float8


class EightBitCompressor(KernelCompressor):
    """Dynamic 1-3-4 float8 quantization."""

    name = "eightbit"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    aggregation = "codebook"

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
        return self._aggregate_lattice(items)
