"""EFsignSGD (Karimireddy et al., ICML 2019).

Error-feedback sign compression: the transmitted value is the ℓ1-mean
magnitude times the sign of the *compensated* gradient, and the residual
goes back into memory.  Within GRACE this means the compressor itself is
``(‖φ‖₁ / d) · sign(φ)`` and ``default_memory = "residual"``; following
§V-A, the trainer sets the memory's γ to the initial learning rate.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import pack_signs, segment_means, unpack_signs


class EFSignSGDCompressor(KernelCompressor):
    """Q(φ) = (‖φ‖₁ / d) · sign(φ); residual memory carries the error."""

    name = "efsignsgd"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One sign-pack over the bucket plus a per-segment ℓ1-mean vector.

        The per-segment means run on contiguous views (bitwise-identical
        to the per-tensor computation; an empty tensor's is 0); the sign
        packing — the O(numel) work — runs once for the whole bucket.
        """
        scales = segment_means(np.abs(buffer), bucket.ends)
        return CompressedTensor(
            payload=[pack_signs(buffer), scales],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """Rebuild the flat bucket: repeated scales times unpacked signs."""
        packed, scales = payload
        signs = unpack_signs(packed, bucket.numel)
        signs *= bucket.expand(scales)
        return signs
