"""Deep Gradient Compression (Lin et al., ICLR 2018).

The momentum-correction memory (:class:`repro.core.memory.DgcMemory`)
holds the ``u``/``v`` buffers; this compressor implements the selection:
a sampled estimate of the top-``ratio`` magnitude threshold, then a
refinement loop that tightens the threshold toward the target count —
the loop the paper's §V-D profiling found expensive.  ``max_adjust_iters=1``
reproduces the ≈2× faster single-iteration variant discussed there.
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
from repro.tensorlib import desparsify, segment_quantiles, segment_sort


class DgcCompressor(Compressor):
    """Sampled top-ratio threshold selection with momentum-corrected memory."""

    name = "dgc"
    family = "sparsification"
    stochastic = False
    communication = "allgather"
    default_memory = "dgc"
    fused_kernel = True

    def __init__(
        self,
        ratio: float = 0.01,
        sample_fraction: float = 0.01,
        max_adjust_iters: int = 10,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if not 0 < sample_fraction <= 1:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        if max_adjust_iters < 1:
            raise ValueError("max_adjust_iters must be >= 1")
        self.ratio = float(ratio)
        self.sample_fraction = float(sample_fraction)
        self.max_adjust_iters = int(max_adjust_iters)

    def _clone_args(self) -> dict:
        return {
            "ratio": self.ratio,
            "sample_fraction": self.sample_fraction,
            "max_adjust_iters": self.max_adjust_iters,
        }

    def _estimate_threshold(self, magnitudes: np.ndarray, k: int) -> float:
        """Sampled threshold, refined until the selected count is near k."""
        d = magnitudes.size
        sample_size = max(1, int(self.sample_fraction * d))
        sample = magnitudes[
            self._rng.choice(d, size=min(sample_size, d), replace=False)
        ]
        quantile = 1.0 - k / d
        # np.float32: the threshold only ever feeds float32 magnitude
        # comparisons, which would cast it anyway (GR002).
        threshold = (
            np.float32(np.quantile(sample, quantile)) if sample.size else 0.0
        )
        for _ in range(self.max_adjust_iters - 1):
            selected = int(np.count_nonzero(magnitudes > threshold))
            if 0.75 * k <= selected <= 1.5 * k:
                break
            if selected > 1.5 * k:
                threshold *= 1.3
            else:
                threshold *= 0.7
        return threshold

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        k = max(1, math.ceil(self.ratio * flat.size))
        magnitudes = np.abs(flat)
        threshold = self._estimate_threshold(magnitudes, k)
        indices = np.flatnonzero(magnitudes > threshold)
        if indices.size == 0:
            indices = np.array([int(np.argmax(magnitudes))], dtype=np.int64)
        payload = [
            flat[indices].astype(np.float32),
            indices.astype(np.int32),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        values, indices = compressed.payload
        return desparsify(values, indices.astype(np.int64), size).reshape(shape)

    def _estimate_thresholds(
        self, magnitudes: np.ndarray, bucket, ks: np.ndarray
    ) -> np.ndarray:
        """:meth:`_estimate_threshold` of every tensor of a bucket, float32.

        The samples are drawn tensor by tensor, in order, as ``compress``
        draws them; their quantiles come from one interpolation, and every
        refinement step is one compare of the whole bucket against its
        tensors' thresholds, each tensor stopping at its own count.
        """
        sizes = bucket.sizes
        sample_sizes = np.maximum(
            1, (self.sample_fraction * sizes).astype(np.int64)
        )
        choice = self._rng.choice
        drawn = np.concatenate([
            choice(size, size=sample_size, replace=False)
            for size, sample_size in zip(sizes.tolist(), sample_sizes.tolist())
        ])
        sample = magnitudes[drawn + np.repeat(bucket.offsets, sample_sizes)]
        sample_ends = np.cumsum(sample_sizes)
        thresholds = segment_quantiles(
            segment_sort(sample, sample_ends), sample_ends,
            (1.0 - ks / sizes)[:, None],
        )[:, 0]
        refining = np.ones(sizes.size, dtype=bool)
        fewest, most = 0.75 * ks, 1.5 * ks
        for _ in range(self.max_adjust_iters - 1):
            selected = np.add.reduceat(
                magnitudes > bucket.expand(thresholds), bucket.offsets
            )
            refining &= (selected < fewest) | (selected > most)
            if not refining.any():
                break
            too_many = refining & (selected > most)
            thresholds[too_many] *= np.float32(1.3)
            thresholds[refining & ~too_many] *= np.float32(0.7)
        return thresholds

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One selection over the bucket, each tensor against its threshold.

        Indices count from the start of the bucket, which is also what
        :class:`~repro.core.memory.DgcMemory` masks its flat buffers by.
        """
        if bucket.has_empty_segment:  # nothing to sample a threshold from
            return super().compress_fused(buffer, bucket)
        ks = bucket.ratio_counts(self.ratio)
        magnitudes = np.abs(buffer)
        thresholds = self._estimate_thresholds(magnitudes, bucket, ks)
        selected = magnitudes > bucket.expand(thresholds)
        indices = np.flatnonzero(selected)
        unsent = np.flatnonzero(
            np.add.reduceat(selected, bucket.offsets) == 0
        )
        if unsent.size:  # such a tensor sends its largest element
            largest = [
                seg.offset + int(np.argmax(magnitudes[seg.offset:seg.end]))
                for seg in (bucket.segments[at] for at in unsent.tolist())
            ]
            indices = np.sort(np.concatenate([indices, largest]))
        payload = [
            buffer[indices].astype(np.float32, copy=False),
            indices.astype(np.int32),
        ]
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        values, indices = payload
        return desparsify(values, indices.astype(np.int64), bucket.numel)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire (required by DgcMemory masking);
        positions in the bucket for a fused payload."""
        return compressed.payload[1].astype(np.int64)
