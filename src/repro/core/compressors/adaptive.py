"""Adaptive-threshold SGD (Dryden et al., MLHPC 2016).

Hybrid of sparsification and 1-bit quantization: per mini-batch, two
thresholds τ⁺ and τ⁻ are chosen so that a fraction α of the positive and
negative elements survive; survivors are quantized to a single bit and
decoded to the mean of their side.  Following GRACE's implementation
note (§IV-C), the wire format is the two means plus the selected indices
of each part.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import segment_means, segment_topk
from repro.tensorlib.indices import index_dtype


class AdaptiveThresholdCompressor(KernelCompressor):
    """α-ratio two-sided threshold selection with per-side mean decoding."""

    name = "adaptive"
    family = "hybrid"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"

    def __init__(self, ratio: float = 0.01, seed: int = 0):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)

    def _clone_args(self) -> dict:
        return {"ratio": self.ratio}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One sign split per side; selection and mean per tensor on runs.

        The positions of a side are gathered once for the bucket, and a
        tensor's share of them is a contiguous run: its α-fraction (at
        least one of a non-empty side) is partitioned out of that run of
        the magnitudes (:func:`~repro.tensorlib.segment_topk`) and its mean
        taken over the run of what was selected.  Wire: one ``[mean⁺,
        mean⁻]`` pair per tensor, then each side's bucket positions, at
        the width the bucket's ``numel`` needs (:meth:`index_extents`).
        """
        width = index_dtype(bucket.numel)
        means, selected = [], []
        for side in (buffer > 0, buffer < 0):
            at = np.flatnonzero(side)
            ends = np.searchsorted(at, bucket.ends)
            counts = np.diff(ends, prepend=0)
            ks = np.ceil(self.ratio * counts).astype(np.int64)
            np.maximum(ks, 1, out=ks, where=counts > 0)
            chosen = at[segment_topk(np.abs(buffer[at]), ends, ks)]
            means.append(segment_means(buffer[chosen], np.cumsum(ks)))
            selected.append(chosen.astype(width))
        return CompressedTensor(
            payload=[np.stack(means, axis=1).ravel(), *selected],
            ctx=FusedBucketCtx(bucket),
        )

    def index_extents(self, bucket) -> dict[int, int]:
        """Both sides' positions count from the start of the bucket."""
        return {1: bucket.numel, 2: bucket.numel}

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        means, *selected = payload
        dense = np.zeros(bucket.numel, dtype=np.float32)
        for side, chosen in enumerate(selected):
            at = chosen.astype(np.int64)
            dense[at] = bucket.expand_at(means[side::2], at)
        return dense

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """All flat indices sent on the wire (both sides); positions in the
        bucket for a fused payload."""
        _, sel_pos, sel_neg = compressed.payload
        return np.concatenate(
            [sel_pos.astype(np.int64), sel_neg.astype(np.int64)]
        )
