"""Adaptive-threshold SGD (Dryden et al., MLHPC 2016).

Hybrid of sparsification and 1-bit quantization: per mini-batch, two
thresholds τ⁺ and τ⁻ are chosen so that a fraction α of the positive and
negative elements survive; survivors are quantized to a single bit and
decoded to the mean of their side.  Following GRACE's implementation
note (§IV-C), the wire format is the two means plus the selected indices
of each part.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import segment_means, segment_topk


class AdaptiveThresholdCompressor(Compressor):
    """α-ratio two-sided threshold selection with per-side mean decoding."""

    name = "adaptive"
    family = "hybrid"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True

    def __init__(self, ratio: float = 0.01, seed: int = 0):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)

    def _clone_args(self) -> dict:
        return {"ratio": self.ratio}

    def _select_side(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Indices of the α-fraction largest-magnitude elements of one side."""
        if indices.size == 0:
            return indices
        k = max(1, math.ceil(self.ratio * indices.size))
        order = np.argpartition(np.abs(values), values.size - k)[-k:]
        return np.sort(indices[order])

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        pos_idx = np.flatnonzero(flat > 0)
        neg_idx = np.flatnonzero(flat < 0)
        sel_pos = self._select_side(flat[pos_idx], pos_idx)
        sel_neg = self._select_side(flat[neg_idx], neg_idx)
        mean_pos = np.float32(flat[sel_pos].mean()) if sel_pos.size else np.float32(0.0)
        mean_neg = np.float32(flat[sel_neg].mean()) if sel_neg.size else np.float32(0.0)
        payload = [
            np.array([mean_pos, mean_neg], dtype=np.float32),
            sel_pos.astype(np.int32),
            sel_neg.astype(np.int32),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        means, sel_pos, sel_neg = compressed.payload
        dense = np.zeros(size, dtype=np.float32)
        dense[sel_pos.astype(np.int64)] = means[0]
        dense[sel_neg.astype(np.int64)] = means[1]
        return dense.reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One sign split per side; selection and mean per tensor on runs.

        The positions of a side are gathered once for the bucket, and a
        tensor's share of them is a contiguous run: its α-fraction is
        partitioned out of that run of the magnitudes
        (:func:`~repro.tensorlib.segment_topk`, ties as in ``compress``)
        and its mean taken over the run of what was selected.  Wire: one
        ``[mean⁺, mean⁻]`` pair per tensor, then each side's bucket
        positions.
        """
        means, selected = [], []
        for side in (buffer > 0, buffer < 0):
            at = np.flatnonzero(side)
            ends = np.searchsorted(at, bucket.ends)
            counts = np.diff(ends, prepend=0)
            ks = np.ceil(self.ratio * counts).astype(np.int64)
            np.maximum(ks, 1, out=ks, where=counts > 0)
            chosen = at[segment_topk(np.abs(buffer[at]), ends, ks)]
            means.append(segment_means(buffer[chosen], np.cumsum(ks)))
            selected.append(chosen.astype(np.int32))
        return CompressedTensor(
            payload=[np.stack(means, axis=1).ravel(), *selected],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        means, *selected = payload
        dense = np.zeros(bucket.numel, dtype=np.float32)
        for side, chosen in enumerate(selected):
            at = chosen.astype(np.int64)
            dense[at] = means[2 * bucket.segment_ids[at] + side]
        return dense

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """All flat indices sent on the wire (both sides); positions in the
        bucket for a fused payload."""
        _, sel_pos, sel_neg = compressed.payload
        return np.concatenate(
            [sel_pos.astype(np.int64), sel_neg.astype(np.int64)]
        )
