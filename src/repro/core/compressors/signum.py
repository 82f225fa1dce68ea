"""SIGNUM (Bernstein et al., ICLR 2019): SignSGD with momentum.

A per-tensor momentum buffer is maintained *inside* the compressor
(``m = β m + g``) and the transmitted value is ``sign(m)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import pack_signs, unpack_signs


class SignumCompressor(Compressor):
    """Q(g) = sign(β m + g) with a persistent momentum buffer m."""

    name = "signum"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "none"
    fused_kernel = True

    def __init__(self, momentum: float = 0.9, seed: int = 0):
        super().__init__(seed=seed)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._buffers: dict[str, np.ndarray] = {}
        # Flat per-bucket momentum (fused path), keyed by segment layout;
        # the name-keyed dict holds views into these, so both stay in sync.
        self._fused_buffers: dict[tuple, np.ndarray] = {}

    def _clone_args(self) -> dict:
        return {"momentum": self.momentum}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = np.zeros_like(flat)
        buffer = self.momentum * buffer + flat
        self._buffers[name] = buffer
        return CompressedTensor(
            payload=[pack_signs(buffer)], ctx=(shape, flat.size)
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        return unpack_signs(compressed.payload[0], size).reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One momentum update and one sign-pack over the flat bucket.

        The bucket's momentum is one flat array and ``_buffers[name]`` a
        view of it.  Where a view was replaced since (a per-tensor
        ``compress``, a restored checkpoint) or never existed, the flat
        momentum is first gathered from the per-tensor state.
        """
        momentum = self._fused_buffers.get(bucket.segments)
        if momentum is None or any(
            getattr(self._buffers.get(seg.name), "base", None) is not momentum
            for seg in bucket.segments
        ):
            momentum = np.zeros(bucket.numel, dtype=np.float32)
            for seg in bucket.segments:
                if seg.name in self._buffers:
                    momentum[seg.offset:seg.end] = self._buffers[seg.name]
        momentum = self.momentum * momentum + buffer
        self._fused_buffers[bucket.segments] = momentum
        for seg in bucket.segments:
            self._buffers[seg.name] = momentum[seg.offset:seg.end]
        return CompressedTensor(
            payload=[pack_signs(momentum)], ctx=FusedBucketCtx(bucket)
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        return unpack_signs(payload[0], bucket.numel)
