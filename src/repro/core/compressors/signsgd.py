"""SignSGD (Bernstein et al., ICML 2018).

Transmits only the sign of every gradient element, bit-packed to 1 bit
per element.  Deterministic, biased, no error feedback by default
(Table I) — the paper finds EF actually *harms* SignSGD, the failure
mode EFsignSGD was designed to fix.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import pack_signs, unpack_signs


class SignSGDCompressor(Compressor):
    """Q(g) = sign(g), decoded as a ±1 vector."""

    name = "signsgd"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "none"
    fused_kernel = True

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        return CompressedTensor(
            payload=[pack_signs(flat)], ctx=(shape, flat.size)
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        signs = unpack_signs(compressed.payload[0], size)
        return signs.reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One bit-pack over the whole bucket (signs are elementwise)."""
        return CompressedTensor(
            payload=[pack_signs(buffer)], ctx=FusedBucketCtx(bucket)
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """Unpack the whole bucket's ±1 vector in one pass."""
        return unpack_signs(payload[0], bucket.numel)
