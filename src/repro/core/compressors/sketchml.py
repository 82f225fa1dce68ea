"""SketchML (Jiang et al., SIGMOD 2018).

Sketch-based hybrid compression: the non-zero gradient values feed a
non-uniform quantile sketch; each value is encoded as the index of its
quantile bucket (quantization), and only non-zero elements are kept
(sparsification).  The wire format is each tensor's bucket-representative
table, the bit-packed bucket codes, each tensor's non-zero count and the
positions of the non-zeros, the counts and positions at the width their
layout needs (:func:`~repro.tensorlib.indices.index_dtype`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.api import (
    CompressedTensor,
    FusedBucketCtx,
    KernelCompressor,
    coordinate_aggregate,
)
from repro.tensorlib import (
    QuantileSketch,
    pack_bits,
    segment_counts,
    segment_quantiles,
    segment_searchsorted,
    segment_sort,
    unpack_bits,
)
from repro.tensorlib.indices import index_dtype


class SketchMLCompressor(KernelCompressor):
    """Quantile-sketch bucket quantization of the non-zero elements."""

    name = "sketchml"
    family = "hybrid"
    stochastic = True
    communication = "allgather"
    default_memory = "residual"
    aggregation = "exact-linear"

    def __init__(self, num_buckets: int = 64, sketch_size: int = 2048, seed: int = 0):
        super().__init__(seed=seed)
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self.sketch_size = int(sketch_size)
        self.code_bits = max(1, math.ceil(math.log2(self.num_buckets)))

    def _clone_args(self) -> dict:
        return {"num_buckets": self.num_buckets, "sketch_size": self.sketch_size}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Whole-bucket SketchML: every tensor's codebook from one gather.

        The non-zero values of the bucket are gathered once; a tensor's
        share of them is a contiguous run.  Each run is sorted on its own,
        the ``2·num_buckets - 1`` quantiles of every run — boundaries and
        representatives — are interpolated together
        (:func:`~repro.tensorlib.segment_quantiles`), each value is looked
        up among its own run's boundaries, and the codes are bit-packed as
        one stream.  A tensor with more than ``sketch_size`` non-zeros is
        sub-sampled, as SketchML does, by its own draw, in tensor order.

        Wire: one representative table per tensor, the codes, the non-zero
        count of every tensor, and the bucket positions of the non-zeros of
        those tensors that have zeros (a dense tensor's are implicit, as
        SketchML's hashed indices would be) — four parts whatever the data,
        so a peer decodes them under its own ctx.  A count is at most its
        tensor's size and a position counts from the start of the bucket;
        each travels at the width that bound needs
        (:meth:`index_extents`).
        """
        nnz = segment_counts(buffer, bucket.ends)
        has_zeros = nnz < bucket.sizes
        if has_zeros.any():
            nonzero = np.flatnonzero(buffer)
            values = buffer[nonzero]
            positions = nonzero[np.repeat(has_zeros, nnz)]
        else:  # nothing to gather, no position to send
            values = buffer
            positions = np.zeros(0, dtype=np.int64)
        value_ends = np.cumsum(nnz)
        sample, sample_ends = self._samples(values, value_ends, nnz)
        at_boundaries, at_centres = QuantileSketch.grids(self.num_buckets)
        quantiles = segment_quantiles(
            segment_sort(sample, sample_ends).astype(np.float64),
            sample_ends,
            np.concatenate([at_boundaries, at_centres]),
        )
        codes = segment_searchsorted(
            quantiles[:, :at_boundaries.size], values, value_ends
        )
        payload = [
            quantiles[:, at_boundaries.size:].astype(np.float32).ravel(),
            pack_bits(codes, bits=self.code_bits),
            nnz.astype(index_dtype(bucket.largest + 1)),
            positions.astype(index_dtype(bucket.numel)),
        ]
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def index_extents(self, bucket) -> dict[int, int]:
        """Counts run from 0 to the largest tensor's size; positions count
        from the start of the bucket."""
        return {2: bucket.largest + 1, 3: bucket.numel}

    def _samples(self, values, value_ends, nnz):
        """What each run's sketch is built from, and where the runs end."""
        large = np.flatnonzero(nnz > self.sketch_size).tolist()
        if not large:
            return values, value_ends
        pieces, cursor = [], 0
        for run in large:
            start, end = int(value_ends[run] - nnz[run]), int(value_ends[run])
            drawn = self._rng.choice(
                end - start, size=self.sketch_size, replace=False
            )
            pieces += [values[cursor:start], values[start:end][drawn]]
            cursor = end
        pieces.append(values[cursor:])
        return (
            np.concatenate(pieces),
            np.cumsum(np.minimum(nnz, self.sketch_size)),
        )

    @staticmethod
    def _bucket_positions(payload, bucket) -> np.ndarray | None:
        """Flat bucket positions of a fused payload's values, in order;
        ``None`` when every element was sent."""
        nnz = payload[2].astype(np.int64)
        has_zeros = nnz < bucket.sizes
        if not has_zeros.any():
            return None
        indexed = np.repeat(has_zeros, nnz)
        positions = np.empty(indexed.size, dtype=np.int64)
        positions[indexed] = payload[3]
        positions[~indexed] = np.flatnonzero(
            np.repeat(~has_zeros, bucket.sizes)
        )
        return positions

    def _bucket_coords(self, payload, bucket):
        """``(values, positions)`` of a fused payload, ``positions`` as
        :meth:`_bucket_positions` gives them."""
        representatives, packed_codes = payload[:2]
        nnz = payload[2].astype(np.int64)
        codes = unpack_bits(
            packed_codes, bits=self.code_bits, count=int(nnz.sum())
        )
        if nnz.size > 1:  # each value reads the table of its own tensor
            codes += np.repeat(
                np.arange(0, representatives.size, self.num_buckets), nnz
            )
        values = representatives.take(codes)
        return values, self._bucket_positions(payload, bucket)

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        values, positions = self._bucket_coords(payload, bucket)
        if positions is None:
            return values
        dense = np.zeros(bucket.numel, dtype=np.float32)
        dense[positions] = values
        return dense

    def _coords_form(self, compressed: CompressedTensor):
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            numel = int(ctx.bucket.numel)
            values, positions = self._bucket_coords(
                compressed.payload, ctx.bucket
            )
            if positions is None:
                positions = np.arange(numel, dtype=np.int64)
            return ctx.bucket.shape, numel, values, positions
        return super()._coords_form(compressed)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum via bucket-table lookups.

        Each worker's codes are mapped through its own representative
        table (a pure table lookup, no dense reconstruction) and the
        resulting coordinate lists concatenate — the scatter-add decode
        then equals the sum of per-worker decompressions bitwise.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        if all(isinstance(item.ctx, FusedBucketCtx) for item in items):
            return self._aggregate_buckets(items)
        return self._aggregate_coords(items)

    def _aggregate_buckets(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Kernel payloads of one bucket, summed in worker order.

        The payload :meth:`_aggregate_coords` would build — every worker's
        values scatter-added into one dense bucket, kept on the union of
        the supports — without sorting every worker's positions for that
        union: a worker sends a position once, and most send them all, so
        each worker is one indexed add and the union is read off a mask.
        """
        bucket = items[0].ctx.bucket
        dense = np.zeros(bucket.numel, dtype=np.float32)
        touched = np.zeros(bucket.numel, dtype=bool)
        for item in items:
            if item.ctx.bucket.segments != bucket.segments:
                raise ValueError(
                    "cannot aggregate fused payloads with different "
                    "bucket layouts"
                )
            values, positions = self._bucket_coords(item.payload, bucket)
            if positions is None:
                positions = slice(None)
            dense[positions] += values
            touched[positions] = True
        union = np.flatnonzero(touched).astype(index_dtype(bucket.numel))
        return coordinate_aggregate(bucket.shape, dense, union, len(items))

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat bucket positions sent on the wire (all of them when every
        element was)."""
        bucket = compressed.ctx.bucket
        positions = self._bucket_positions(compressed.payload, bucket)
        if positions is None:
            return np.arange(bucket.numel, dtype=np.int64)
        return positions
