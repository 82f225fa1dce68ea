"""SketchML (Jiang et al., SIGMOD 2018).

Sketch-based hybrid compression: the non-zero gradient values feed a
non-uniform quantile sketch; each value is encoded as the index of its
quantile bucket (quantization), and only non-zero elements are kept
(sparsification).  The wire format is the bucket-representative table,
the bit-packed bucket codes and the element indices.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.api import (
    AggregatedCoordsCtx,
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
    is_fused_concat_ctx,
)
from repro.tensorlib import (
    QuantileSketch,
    pack_bits,
    segment_quantiles,
    segment_searchsorted,
    segment_sort,
    unpack_bits,
)


class SketchMLCompressor(Compressor):
    """Quantile-sketch bucket quantization of the non-zero elements."""

    name = "sketchml"
    family = "hybrid"
    stochastic = True
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True
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

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        if np.count_nonzero(flat) == flat.size:
            values = flat  # nothing to gather
        else:
            indices = np.flatnonzero(flat)
            values = flat[indices]
        if values.size == 0:
            # Degenerate all-zero gradient: send an empty representation.
            payload = [
                np.zeros(self.num_buckets, dtype=np.float32),
                np.zeros(0, dtype=np.uint8),
                np.zeros(0, dtype=np.int32),
            ]
            return CompressedTensor(payload=payload, ctx=(shape, flat.size))
        sketch = QuantileSketch(self.num_buckets, max_size=self.sketch_size)
        # Sub-sample very large tensors into the sketch, as SketchML does.
        if values.size > self.sketch_size:
            sample = values[
                self._rng.choice(values.size, size=self.sketch_size, replace=False)
            ]
        else:
            sample = values
        sketch.insert(sample)
        codes = sketch.encode(values)
        # Fully dense tensors (the common DNN-gradient case) need no index
        # vector: positions are implicit.  SketchML's hashing of indices
        # serves the same purpose; this is the lossless equivalent.
        is_dense = values.size == flat.size
        payload = [
            sketch.representatives().astype(np.float32),
            pack_bits(codes, bits=self.code_bits),
        ]
        if not is_dense:
            payload.append(indices.astype(np.int32))
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    @staticmethod
    def _sent(payload, size: int) -> tuple[int, bool]:
        """``(nnz, is_dense)`` of a per-tensor payload, read off its parts.

        How many elements were non-zero is the sender's knowledge, and a
        worker decodes its peers under its own ctx: a dense tensor sends no
        index part, any other sends one index per non-zero element.
        """
        is_dense = len(payload) == 2
        return (size if is_dense else payload[2].size), is_dense

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        nnz, is_dense = self._sent(compressed.payload, size)
        representatives = compressed.payload[0]
        packed_codes = compressed.payload[1]
        dense = np.zeros(size, dtype=np.float32)
        if nnz:
            codes = unpack_bits(packed_codes, bits=self.code_bits, count=nnz)
            if is_dense:
                dense[:] = representatives[codes]
            else:
                indices = compressed.payload[2]
                dense[indices.astype(np.int64)] = representatives[codes]
        return dense.reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Whole-bucket SketchML: every tensor's codebook from one gather.

        The non-zero values of the bucket are gathered once; a tensor's
        share of them is a contiguous run.  Each run is sorted on its own,
        the ``2·num_buckets - 1`` quantiles of every run — boundaries and
        representatives — are interpolated together
        (:func:`~repro.tensorlib.segment_quantiles`), each value is looked
        up among its own run's boundaries, and the codes are bit-packed as
        one stream.  A tensor with more than ``sketch_size`` non-zeros is
        sub-sampled by its own draw, in tensor order, as ``compress`` draws.

        Wire: one representative table per tensor, the codes, the non-zero
        count of every tensor, and the bucket positions of the non-zeros of
        those tensors that have zeros (a dense tensor's are implicit) —
        four parts whatever the data, so a peer decodes them under its own
        ctx.
        """
        nonzero = np.flatnonzero(buffer)
        values = buffer if nonzero.size == buffer.size else buffer[nonzero]
        value_ends = np.searchsorted(nonzero, bucket.ends)
        nnz = np.diff(value_ends, prepend=0)
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
        has_zeros = np.repeat(nnz < bucket.sizes, nnz)
        payload = [
            quantiles[:, at_boundaries.size:].astype(np.float32).ravel(),
            pack_bits(codes, bits=self.code_bits),
            nnz.astype(np.int32),
            nonzero[has_zeros].astype(np.int32),
        ]
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

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
        # Each value reads the table of its own tensor.
        tables = np.repeat(np.arange(nnz.size), nnz)
        values = representatives.take(codes + self.num_buckets * tables)
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
            return (numel,), numel, values, positions
        if isinstance(ctx, tuple):
            shape, size = ctx
            nnz, is_dense = self._sent(compressed.payload, size)
            if not nnz:
                return (
                    tuple(shape), int(size),
                    np.zeros(0, dtype=np.float32),
                    np.zeros(0, dtype=np.int64),
                )
            representatives = compressed.payload[0]
            codes = unpack_bits(
                compressed.payload[1], bits=self.code_bits, count=nnz
            )
            # The table lookup is the whole decode for selected
            # positions, so the coordinate list carries exactly the
            # values a local decompress would scatter — exact linearity.
            values = np.asarray(
                representatives[codes], dtype=np.float32
            )
            if is_dense:
                indices = np.arange(size, dtype=np.int64)
            else:
                indices = compressed.payload[2].astype(np.int64)
            return tuple(shape), int(size), values, indices
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
        if is_fused_concat_ctx(items[0].ctx):
            return self._aggregate_fused_segments(items)
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
        union = np.flatnonzero(touched).astype(np.int32)
        return CompressedTensor(
            payload=[dense[union], union],
            ctx=AggregatedCoordsCtx(
                (bucket.numel,), bucket.numel, len(items)
            ),
        )

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire (all positions when dense);
        positions in the bucket for a fused payload."""
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            positions = self._bucket_positions(compressed.payload, ctx.bucket)
            if positions is None:
                return np.arange(ctx.bucket.numel, dtype=np.int64)
            return positions
        _, size = ctx
        _, is_dense = self._sent(compressed.payload, size)
        if is_dense:
            return np.arange(size, dtype=np.int64)
        return compressed.payload[2].astype(np.int64)
