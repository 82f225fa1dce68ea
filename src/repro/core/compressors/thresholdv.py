"""Threshold-v sparsification (Dutta et al., AAAI 2020).

Selects every element with ``|g[i]| >= v`` for a fixed threshold ``v``.
The paper notes the right threshold is model-specific and hard to pick —
the adaptive output size is what the "Adaptive" rows of Table I refer to.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import desparsify, sparsify_threshold
from repro.tensorlib.indices import index_dtype


class ThresholdCompressor(KernelCompressor):
    """Fixed-magnitude-threshold selection with adaptive output size."""

    name = "thresholdv"
    family = "sparsification"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"

    def __init__(self, threshold: float = 0.01, seed: int = 0):
        super().__init__(seed=seed)
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.threshold = float(threshold)

    def _clone_args(self) -> dict:
        return {"threshold": self.threshold}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One selection over the bucket; indices count from its start, at
        the width its ``numel`` needs (:meth:`index_extents`)."""
        values, indices = sparsify_threshold(buffer, self.threshold)
        return CompressedTensor(
            payload=[
                values.astype(np.float32),
                indices.astype(index_dtype(bucket.numel)),
            ],
            ctx=FusedBucketCtx(bucket),
        )

    def index_extents(self, bucket) -> dict[int, int]:
        """Positions count from the start of the bucket."""
        return {1: bucket.numel}

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        values, indices = payload
        return desparsify(values, indices.astype(np.int64), bucket.numel)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire."""
        return compressed.payload[1].astype(np.int64)
