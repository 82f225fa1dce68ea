"""Random-k sparsification (Stich et al., NeurIPS 2018).

Selects ``k = ratio·d`` uniformly random elements.  Biased by design;
multiplying by ``d/k`` (``unbiased=True``) restores unbiasedness at the
price of higher variance — both variants from §III-B are supported.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import desparsify
from repro.tensorlib.indices import index_dtype


class RandomKCompressor(KernelCompressor):
    """Uniform random coordinate selection."""

    name = "randomk"
    family = "sparsification"
    stochastic = True
    communication = "allgather"
    default_memory = "residual"
    aggregation = "exact-linear"

    def __init__(self, ratio: float = 0.01, unbiased: bool = False, seed: int = 0):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)
        self.unbiased = bool(unbiased)

    def _clone_args(self) -> dict:
        return {"ratio": self.ratio, "unbiased": self.unbiased}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Fused random-k: batched gather + scale over the whole bucket.

        Index *drawing* stays per segment — ``Generator.choice`` without
        replacement consumes the stream in a size-dependent pattern, so
        drawing per segment in order is what keeps fused and per-tensor
        runs seeded-equal (an empty tensor draws nothing).  The heavy work
        (gathering the selected values and applying the ``d/k`` unbiasing
        scale) runs as one whole-bucket pass.  Wire: the values, then each
        one's position in its own tensor, at the width of the largest
        tensor (:meth:`index_extents`).
        """
        ks = bucket.ratio_counts(self.ratio)
        local = np.concatenate([
            np.sort(self._rng.choice(size, size=k, replace=False))
            for size, k in zip(bucket.sizes.tolist(), ks.tolist())
        ])
        values = buffer[local + np.repeat(bucket.offsets, ks)]
        if self.unbiased:
            scales = (bucket.sizes / np.maximum(ks, 1)).astype(np.float32)
            values = values * np.repeat(scales, ks)
        return CompressedTensor(
            payload=[values, local.astype(index_dtype(bucket.largest))],
            ctx=FusedBucketCtx(bucket),
        )

    def index_extents(self, bucket) -> dict[int, int]:
        """Positions count in their own tensor."""
        return {1: bucket.largest}

    def _positions(self, payload, bucket) -> np.ndarray:
        """Bucket positions of a payload's values, in order."""
        ks = bucket.ratio_counts(self.ratio)
        return payload[1].astype(np.int64) + np.repeat(bucket.offsets, ks)

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """Scatter every segment's sparse values into one flat bucket."""
        return desparsify(
            payload[0], self._positions(payload, bucket), bucket.numel
        )

    def _coords_form(self, compressed: CompressedTensor):
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            bucket = ctx.bucket
            return (
                bucket.shape,
                int(bucket.numel),
                np.asarray(compressed.payload[0], dtype=np.float32),
                self._positions(compressed.payload, bucket),
            )
        return super()._coords_form(compressed)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum: coordinate-list concatenation."""
        if not items:
            raise ValueError("nothing to aggregate")
        return self._aggregate_coords(items)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat bucket positions sent on the wire; a tensor's own indices
        for its one-segment bucket."""
        return self._positions(compressed.payload, compressed.ctx.bucket)
