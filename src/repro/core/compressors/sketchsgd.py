"""Sketched-SGD (Ivkin et al., NeurIPS 2019).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  The gradient is folded into a count-sketch;
the receiver recovers the "heavy hitters" — the approximate top-k
coordinates — from the (mergeable) sketch.  The wire carries only the
sketch table, so the footprint is independent of which coordinates are
large.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    FusedBucketCtx,
    KernelCompressor,
    rank_sum,
    summand_count,
)
from repro.tensorlib import CountSketch, desparsify, segment_topk


class _AggFusedSketchCtx:
    """Ctx of summed fused tables ``[table f32]``: the bucket, and how many."""

    __slots__ = ("bucket", "n_summands")

    def __init__(self, bucket, n_summands):
        self.bucket = bucket
        self.n_summands = int(n_summands)


class SketchedSGDCompressor(KernelCompressor):
    """Count-sketch transport with heavy-hitter recovery."""

    name = "sketchsgd"
    family = "sparsification"
    stochastic = False  # hash functions are fixed
    communication = "allgather"
    default_memory = "residual"
    aggregation = "sketch"

    def __init__(
        self,
        ratio: float = 0.01,
        depth: int = 5,
        width_multiplier: float = 8.0,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        self.ratio = float(ratio)
        self.depth = int(depth)
        self.width_multiplier = float(width_multiplier)
        # Hash functions are a protocol constant: every worker must build
        # the same sketch layout or the tables cannot be merged/decoded.
        self._hash_seed = 0x5EED

    def _clone_args(self) -> dict:
        return {
            "ratio": self.ratio,
            "depth": self.depth,
            "width_multiplier": self.width_multiplier,
        }

    def reseed(self, seed: int) -> None:
        # Keep hash functions shared across workers (sketches must merge);
        # only the compressor's private rng is reseeded.
        """Replace the private random stream (hashes stay shared)."""
        self._rng = np.random.default_rng(seed)

    def _bucket_layout(self, bucket):
        """``(ks, widths)`` of the bucket's tensors: ``width_multiplier·k``
        columns, at least 8, for a tensor that has elements; none for one
        that has none."""
        ks = bucket.ratio_counts(self.ratio)
        widths = np.maximum(8, (self.width_multiplier * ks).astype(np.int64))
        widths[bucket.sizes == 0] = 0
        return ks, widths

    def _bucket_sketch(self, bucket, widths, table=None) -> CountSketch:
        return CountSketch.side_by_side(
            widths.tolist(), self.depth, bucket.sizes.tolist(),
            seed=self._hash_seed, table=table,
        )

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Every tensor's sketch, side by side in one table.

        Each tensor keeps its own hash functions and its own columns
        (:meth:`CountSketch.side_by_side`), so a cell sums what it sums in
        the tensor's own sketch, in the same order; the bucket is folded in
        with one scatter-add per row instead of one per row and tensor.  An
        empty tensor has no columns.
        """
        _, widths = self._bucket_layout(bucket)
        sketch = self._bucket_sketch(bucket, widths)
        sketch.update_dense(buffer)
        return CompressedTensor(
            payload=[sketch.table.astype(np.float32)],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """One query of the whole bucket; heavy hitters tensor by tensor.

        Which of several equal estimates at a tensor's ``k``-th place is
        recovered is the partition's choice, and equal estimates are
        structural here — elements that share a cell in most rows of a
        sketch eight columns wide share their median — so the selection is
        the per-tensor call on each tensor's run of the magnitudes.
        """
        (table,) = payload
        ks, widths = self._bucket_layout(bucket)
        if table.shape != (self.depth, int(widths.sum())):
            raise ValueError(
                f"sketch table is {table.shape}, the layout for this bucket "
                f"is {(self.depth, int(widths.sum()))}"
            )
        sketch = self._bucket_sketch(bucket, widths, table=table)
        indices = segment_topk(sketch.magnitudes(), bucket.ends, ks)
        values = sketch.query(indices).astype(np.float32)
        return desparsify(values, indices, bucket.numel)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Sum count-sketch tables — exact in sketch space.

        Count sketches are linear, so adding the float32 tables gives
        exactly the sketch of the summed gradient stream.  Heavy-hitter
        *recovery* from the merged table is still approximate, hence
        ``aggregation = "sketch"`` rather than ``"exact-linear"``.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        # Side-by-side tables of one layout add cell by cell.
        bucket = items[0].ctx.bucket
        if any(item.ctx.bucket.segments != bucket.segments
               for item in items[1:]):
            raise ValueError("mismatched sketch layouts in aggregation")
        return CompressedTensor(
            payload=[rank_sum([item.payload[0] for item in items])],
            ctx=_AggFusedSketchCtx(
                bucket, sum(summand_count(item) for item in items)
            ),
        )

    def decompress_aggregated(
        self, compressed: CompressedTensor
    ) -> np.ndarray:
        ctx = compressed.ctx
        if isinstance(ctx, _AggFusedSketchCtx):
            return self._decompress_bucket(
                compressed.payload, ctx.bucket
            ).reshape(ctx.bucket.shape)
        return super().decompress_aggregated(compressed)
