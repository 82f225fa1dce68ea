"""Threshold-v sparsification (Dutta et al., AAAI 2020).

Selects every element with ``|g[i]| >= v`` for a fixed threshold ``v``.
The paper notes the right threshold is model-specific and hard to pick —
the adaptive output size is what the "Adaptive" rows of Table I refer to.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import desparsify, sparsify_threshold


class ThresholdCompressor(Compressor):
    """Fixed-magnitude-threshold selection with adaptive output size."""

    name = "thresholdv"
    family = "sparsification"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True

    def __init__(self, threshold: float = 0.01, seed: int = 0):
        super().__init__(seed=seed)
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.threshold = float(threshold)

    def _clone_args(self) -> dict:
        return {"threshold": self.threshold}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        values, indices = sparsify_threshold(flat, self.threshold)
        payload = [values.astype(np.float32), indices.astype(np.int32)]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        values, indices = compressed.payload
        return desparsify(values, indices.astype(np.int64), size).reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One selection over the bucket; indices count from its start."""
        values, indices = sparsify_threshold(buffer, self.threshold)
        return CompressedTensor(
            payload=[values.astype(np.float32), indices.astype(np.int32)],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        values, indices = payload
        return desparsify(values, indices.astype(np.int64), bucket.numel)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire."""
        return compressed.payload[1].astype(np.int64)
