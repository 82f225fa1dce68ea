"""SIGNUM (Bernstein et al., ICLR 2019): SignSGD with momentum.

A per-tensor momentum buffer is maintained *inside* the compressor
(``m = β m + g``), keyed by tensor name, and the transmitted value is
``sign(m)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import pack_signs, unpack_signs


class SignumCompressor(KernelCompressor):
    """Q(g) = sign(β m + g) with a persistent momentum buffer m."""

    name = "signum"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "none"

    def __init__(self, momentum: float = 0.9, seed: int = 0):
        super().__init__(seed=seed)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._buffers: dict[str, np.ndarray] = {}
        # Flat momentum of buckets of several tensors, keyed by segment
        # layout; the name-keyed dict holds views into these, so both stay
        # in sync.  A one-tensor bucket keeps only its name-keyed entry.
        self._fused_buffers: dict[tuple, np.ndarray] = {}

    def _clone_args(self) -> dict:
        return {"momentum": self.momentum}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One momentum update and one sign-pack over the flat bucket.

        The bucket's momentum is one flat array and ``_buffers[name]`` a
        view of it (a one-tensor bucket's is the tensor's own entry).
        Where a view was replaced since (a ``compress`` over another
        layout, a restored checkpoint) or never existed, the flat momentum
        is first gathered from the per-tensor state.
        """
        if len(bucket) == 1:
            momentum = self._buffers.get(bucket.names[0])
        else:
            momentum = self._fused_buffers.get(bucket.segments)
            if momentum is not None and any(
                getattr(self._buffers.get(seg.name), "base", None)
                is not momentum
                for seg in bucket.segments
            ):
                momentum = None
        if momentum is None:
            momentum = np.zeros(bucket.numel, dtype=np.float32)
            for seg in bucket.segments:
                if seg.name in self._buffers:
                    momentum[seg.offset:seg.end] = self._buffers[seg.name]
        momentum = self.momentum * momentum + buffer
        if len(bucket) > 1:
            self._fused_buffers[bucket.segments] = momentum
        for seg in bucket.segments:
            self._buffers[seg.name] = momentum[seg.offset:seg.end]
        return CompressedTensor(
            payload=[pack_signs(momentum)], ctx=FusedBucketCtx(bucket)
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        return unpack_signs(payload[0], bucket.numel)
