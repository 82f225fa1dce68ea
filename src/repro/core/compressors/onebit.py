"""1-bit SGD (Seide et al., INTERSPEECH 2014).

Elements below a threshold τ (0 by default) are encoded as '0', the rest
as '1'.  Decoding maps '0' to the mean of the negative values and '1' to
the mean of the non-negative values of the local gradient — so the two
means travel with the bit vector.  The original paper introduced the
residual memory mechanism, which is this compressor's default.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import pack_bits, segment_means, unpack_bits


class OneBitCompressor(Compressor):
    """Threshold sign quantization with per-side mean reconstruction."""

    name = "onebit"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True

    def __init__(self, threshold: float = 0.0, seed: int = 0):
        super().__init__(seed=seed)
        self.threshold = float(threshold)

    def _clone_args(self) -> dict:
        return {"threshold": self.threshold}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        high = flat >= self.threshold
        high_values = flat[high]
        low_values = flat[~high]
        mean_high = np.float32(high_values.mean()) if high_values.size else np.float32(0.0)
        mean_low = np.float32(low_values.mean()) if low_values.size else np.float32(0.0)
        payload = [
            pack_bits(high.astype(np.uint8), bits=1),
            np.array([mean_low, mean_high], dtype=np.float32),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        packed, means = compressed.payload
        bits = unpack_bits(packed, bits=1, count=size)
        return means.take(bits).reshape(shape)  # means are [low, high]

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
        bits += 2 * bucket.segment_ids  # row of the segment's [low, high]
        return means.take(bits)
