"""Sketched-SGD (Ivkin et al., NeurIPS 2019).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  The gradient is folded into a count-sketch;
the receiver recovers the "heavy hitters" — the approximate top-k
coordinates — from the (mergeable) sketch.  The wire carries only the
sketch table, so the footprint is independent of which coordinates are
large.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
    is_fused_concat_ctx,
    sum_dense,
    summand_count,
)
from repro.tensorlib import CountSketch, desparsify, segment_topk


class _AggSketchCtx:
    """Ctx of an aggregated count-sketch table payload ``[table f32]``."""

    __slots__ = ("shape", "size", "k", "n_summands")

    def __init__(self, shape, size, k, n_summands):
        self.shape = tuple(shape)
        self.size = int(size)
        self.k = int(k)
        self.n_summands = int(n_summands)


class _AggFusedSketchCtx:
    """Ctx of summed fused tables ``[table f32]``: the bucket, and how many."""

    __slots__ = ("bucket", "n_summands")

    def __init__(self, bucket, n_summands):
        self.bucket = bucket
        self.n_summands = int(n_summands)


class SketchedSGDCompressor(Compressor):
    """Count-sketch transport with heavy-hitter recovery."""

    name = "sketchsgd"
    family = "sparsification"
    stochastic = False  # hash functions are fixed
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True
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

    def _width(self, k: int) -> int:
        return max(8, int(self.width_multiplier * k))

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx.

        An empty tensor sends an empty table: there is nothing to hash.
        """
        flat, shape = flatten_with_shape(tensor)
        k = max(1, math.ceil(self.ratio * flat.size))
        if flat.size == 0:
            payload = [np.zeros((self.depth, 0), dtype=np.float32)]
            return CompressedTensor(payload=payload, ctx=(shape, 0, k))
        sketch = CountSketch(
            width=self._width(k), depth=self.depth, universe=flat.size,
            seed=self._hash_seed,
        )
        sketch.update_dense(flat)
        payload = [sketch.table.astype(np.float32)]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size, k))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size, k = compressed.ctx
        table = compressed.payload[0]
        if size == 0:
            return np.zeros(shape, dtype=np.float32)
        if table.shape != (self.depth, self._width(k)):
            raise ValueError(
                f"sketch table is {table.shape}, the layout for {size} "
                f"elements is {(self.depth, self._width(k))}"
            )
        sketch = CountSketch.from_table(
            table, universe=size, seed=self._hash_seed
        )
        indices = sketch.heavy_hitters(k)
        values = sketch.query(indices).astype(np.float32)
        return desparsify(values, indices.astype(np.int64), size).reshape(shape)

    def _bucket_layout(self, bucket):
        """``(ks, widths)`` of the bucket's tensors, as ``compress`` sizes them."""
        ks = bucket.ratio_counts(self.ratio)
        widths = np.maximum(8, (self.width_multiplier * ks).astype(np.int64))
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
        ``compress``, in the same order; the bucket is folded in with one
        scatter-add per row instead of one per row and tensor.
        """
        if bucket.has_empty_segment:  # no sketch over an empty universe
            return super().compress_fused(buffer, bucket)
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
        ctx = items[0].ctx
        if is_fused_concat_ctx(ctx):
            return self._aggregate_fused_segments(items)
        if isinstance(ctx, (FusedBucketCtx, _AggFusedSketchCtx)):
            # Side-by-side tables of one layout add cell by cell.
            if any(item.ctx.bucket.segments != ctx.bucket.segments
                   for item in items[1:]):
                raise ValueError("mismatched sketch layouts in aggregation")
            return CompressedTensor(
                payload=[sum_dense([item.payload[0] for item in items])],
                ctx=_AggFusedSketchCtx(
                    ctx.bucket, sum(summand_count(item) for item in items)
                ),
            )
        if isinstance(ctx, _AggSketchCtx):
            shape, size, k = ctx.shape, ctx.size, ctx.k
        else:
            shape, size, k = ctx
        for item in items[1:]:
            other = item.ctx
            other_key = (
                (other.shape, other.size, other.k)
                if isinstance(other, _AggSketchCtx)
                else (tuple(other[0]), int(other[1]), int(other[2]))
            )
            if other_key != (tuple(shape), int(size), int(k)):
                raise ValueError("mismatched sketch layouts in aggregation")
        table = sum_dense(
            [np.asarray(item.payload[0], dtype=np.float32) for item in items]
        )
        total = sum(summand_count(item) for item in items)
        return CompressedTensor(
            payload=[table],
            ctx=_AggSketchCtx(shape, size, k, total),
        )

    def decompress_aggregated(
        self, compressed: CompressedTensor
    ) -> np.ndarray:
        ctx = compressed.ctx
        if isinstance(ctx, _AggFusedSketchCtx):
            return self._decompress_bucket(compressed.payload, ctx.bucket)
        if not isinstance(ctx, _AggSketchCtx):
            return super().decompress_aggregated(compressed)
        return self.decompress(
            CompressedTensor(
                payload=compressed.payload,
                ctx=(ctx.shape, ctx.size, ctx.k),
            )
        )
