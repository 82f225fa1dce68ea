"""No-compression baseline: the identity operator over Allreduce."""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    AggregatedDenseCtx,
    CompressedTensor,
    FusedBucketCtx,
    KernelCompressor,
)


class NoneCompressor(KernelCompressor):
    """Transmit the raw float32 gradient; aggregate by summation."""

    name = "none"
    family = "none"
    stochastic = False
    communication = "allreduce"
    default_memory = "none"
    aggregation = "exact-linear"

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """The identity on a bucket: one copy, in the bucket's shape.

        Copied even when the input is already float32: the payload must
        not alias the trainer's reusable scratch buffers.  A one-segment
        bucket keeps its tensor's shape, which the wire header carries.
        """
        return CompressedTensor(
            payload=[np.array(buffer, dtype=np.float32).reshape(bucket.shape)],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        return np.ravel(np.asarray(payload[0], dtype=np.float32))

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum: plain float32 elementwise add."""
        if not items:
            raise ValueError("nothing to aggregate")
        ctx = items[0].ctx
        shape = (
            ctx.shape if isinstance(ctx, AggregatedDenseCtx)
            else ctx.bucket.shape
        )
        return self._aggregate_dense(items, shape)
