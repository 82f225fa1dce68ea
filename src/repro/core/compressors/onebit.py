"""1-bit SGD (Seide et al., INTERSPEECH 2014).

Elements below a threshold τ (0 by default) are encoded as '0', the rest
as '1'.  Decoding maps '0' to the mean of the negative values and '1' to
the mean of the non-negative values of the local gradient — so the two
means travel with the bit vector.  The original paper introduced the
residual memory mechanism, which is this compressor's default.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import pack_bits, segment_means, unpack_bits


class OneBitCompressor(KernelCompressor):
    """Threshold sign quantization with per-side mean reconstruction."""

    name = "onebit"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"

    def __init__(self, threshold: float = 0.0, seed: int = 0):
        super().__init__(seed=seed)
        self.threshold = float(threshold)

    def _clone_args(self) -> dict:
        return {"threshold": self.threshold}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One threshold / bit-pack pass; the two means stay per segment.

        Each side's values are gathered once for the whole bucket; a
        segment's share of them is a contiguous run, which is what the
        per-tensor mean reduces over.
        """
        high = buffer >= self.threshold
        high_at = np.flatnonzero(high)
        # How many high elements the bucket holds up to each segment's end.
        high_ends = np.searchsorted(high_at, bucket.ends)
        means = np.stack(
            [
                segment_means(
                    buffer[np.flatnonzero(~high)], bucket.ends - high_ends
                ),
                segment_means(buffer[high_at], high_ends),
            ],
            axis=1,
        )  # one [low, high] row per segment
        return CompressedTensor(
            payload=[pack_bits(high.astype(np.uint8), bits=1), means.ravel()],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        packed, means = payload
        bits = unpack_bits(packed, bits=1, count=bucket.numel)
        # Row of the segment's [low, high]:
        bits += bucket.expand(np.arange(0, means.size, 2))
        return means.take(bits)
