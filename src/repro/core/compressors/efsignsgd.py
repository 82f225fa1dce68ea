"""EFsignSGD (Karimireddy et al., ICML 2019).

Error-feedback sign compression: the transmitted value is the ℓ1-mean
magnitude times the sign of the *compensated* gradient, and the residual
goes back into memory.  Within GRACE this means the compressor itself is
``(‖φ‖₁ / d) · sign(φ)`` and ``default_memory = "residual"``; following
§V-A, the trainer sets the memory's γ to the initial learning rate.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import pack_signs, segment_means, unpack_signs


class EFSignSGDCompressor(Compressor):
    """Q(φ) = (‖φ‖₁ / d) · sign(φ); residual memory carries the error."""

    name = "efsignsgd"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        scale = np.float32(np.mean(np.abs(flat))) if flat.size else np.float32(0.0)
        payload = [pack_signs(flat), np.array([scale], dtype=np.float32)]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        packed, scale = compressed.payload
        signs = unpack_signs(packed, size)
        signs *= scale[0]
        return signs.reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One sign-pack over the bucket plus a per-segment ℓ1-mean vector.

        The per-segment means run on contiguous views (bitwise-identical
        to the per-tensor computation); the sign packing — the O(numel)
        work — runs once for the whole bucket.
        """
        if bucket.has_empty_segment:
            return super().compress_fused(buffer, bucket)
        scales = segment_means(np.abs(buffer), bucket.ends)
        return CompressedTensor(
            payload=[pack_signs(buffer), scales],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """Rebuild the flat bucket: repeated scales times unpacked signs."""
        packed, scales = payload
        return bucket.expand(scales) * unpack_signs(packed, bucket.numel)
