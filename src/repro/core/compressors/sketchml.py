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
    CompressedTensor,
    Compressor,
    flatten_with_shape,
    is_fused_concat_ctx,
)
from repro.tensorlib import QuantileSketch, pack_bits, unpack_bits


class SketchMLCompressor(Compressor):
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
            return CompressedTensor(
                payload=payload, ctx=(shape, flat.size, 0, False)
            )
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
        return CompressedTensor(
            payload=payload, ctx=(shape, flat.size, values.size, is_dense)
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size, nnz, is_dense = compressed.ctx
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

    def _coords_form(self, compressed: CompressedTensor):
        ctx = compressed.ctx
        if isinstance(ctx, tuple):
            shape, size, nnz, is_dense = ctx
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
        return self._aggregate_coords(items)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire (all positions when dense)."""
        shape, size, nnz, is_dense = compressed.ctx
        if is_dense:
            return np.arange(size, dtype=np.int64)
        return compressed.payload[2].astype(np.int64)
