"""LPC-SVRG's low-precision codebook quantizer (Yu et al., AISTATS 2019).

Surveyed in Table I but not implemented in the paper's release; included
here as a framework extension.  Gradient clipping plus quantization onto
the uniform grid ``{-2^{w-1}δ, …, -δ, 0, δ, …, (2^{w-1}-1)δ}``: a value
in ``[ε, ε+δ]`` rounds down to ε with probability ``(ε+δ-g)/δ``, up
otherwise — unbiased inside the clipped range.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import pack_bits, segment_stds, unpack_bits


class LPCSVRGCompressor(Compressor):
    """Clipped uniform-grid quantization with stochastic rounding."""

    name = "lpcsvrg"
    family = "quantization"
    stochastic = True
    communication = "allgather"
    default_memory = "none"
    fused_kernel = True

    def __init__(self, bit_width: int = 4, clip_std: float = 2.5, seed: int = 0):
        super().__init__(seed=seed)
        if not 2 <= bit_width <= 8:
            raise ValueError(f"bit_width must be in [2, 8], got {bit_width}")
        if clip_std <= 0:
            raise ValueError(f"clip_std must be positive, got {clip_std}")
        self.bit_width = int(bit_width)
        self.clip_std = float(clip_std)
        self._levels = 1 << bit_width
        self._offset = 1 << (bit_width - 1)  # code for grid point 0

    def _clone_args(self) -> dict:
        return {"bit_width": self.bit_width, "clip_std": self.clip_std}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        if flat.size == 0:
            payload = [np.zeros(0, np.uint8), np.zeros(1, np.float32)]
            return CompressedTensor(payload=payload, ctx=(shape, 0))
        # np.float32: keep the clip bound at the precision the array ops
        # would cast it to anyway, instead of a float64 detour through a
        # Python scalar (GR002).  np.float32(0) is falsy, so the `or`
        # fallback for constant tensors is unchanged.
        bound = np.float32(self.clip_std) * np.float32(np.std(flat)) or (
            np.float32(np.max(np.abs(flat)) or 1.0)
        )
        # Grid step so the clipped range maps into the code range.
        delta = bound / self._offset
        payload = [
            self._pack_codes(flat, bound, delta),
            np.array([delta], dtype=np.float32),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def _pack_codes(self, flat: np.ndarray, bound, delta) -> np.ndarray:
        """Clip to ``±bound``, round stochastically onto the ``delta`` grid.

        ``bound`` and ``delta`` are one float32 each, or one per element
        (a fused bucket); one uniform draw per element either way.
        """
        scaled = np.clip(flat, -bound, bound)
        scaled /= delta
        scaled += self._offset  # in [0, 2^w]
        codes = np.floor(scaled)
        scaled -= codes  # the fractional part: the odds of rounding up
        codes += self._rng.random(size=scaled.shape) < scaled
        np.clip(codes, 0, self._levels - 1, out=codes)
        return pack_bits(codes.astype(np.uint8), bits=self.bit_width)

    def _unpack_values(self, packed, size: int, delta) -> np.ndarray:
        codes = unpack_bits(packed, bits=self.bit_width, count=size)
        return (codes - self._offset).astype(np.float32) * delta

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        packed, delta = compressed.payload
        if size == 0:
            return np.zeros(shape, dtype=np.float32)
        return self._unpack_values(packed, size, delta[0]).reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One clip / round / bit-pack pass; bounds stay per segment.

        An empty tensor takes no draw and has its own per-tensor format,
        so a bucket holding one (a property of the layout, the same on
        every rank) takes the generic path.
        """
        if bucket.has_empty_segment:
            return super().compress_fused(buffer, bucket)
        bounds = np.float32(self.clip_std) * segment_stds(buffer, bucket.ends)
        constant = bounds == 0  # no spread to clip at: fall back to max-abs
        if constant.any():
            peaks = bucket.segment_max(np.abs(buffer))
            peaks[peaks == 0] = 1.0
            bounds[constant] = peaks[constant]
        deltas = bounds / self._offset
        packed = self._pack_codes(
            buffer, bucket.expand(bounds), bucket.expand(deltas)
        )
        return CompressedTensor(
            payload=[packed, deltas], ctx=FusedBucketCtx(bucket)
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        packed, deltas = payload
        return self._unpack_values(packed, bucket.numel, bucket.expand(deltas))
