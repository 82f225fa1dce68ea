"""LPC-SVRG's low-precision codebook quantizer (Yu et al., AISTATS 2019).

Surveyed in Table I but not implemented in the paper's release; included
here as a framework extension.  Gradient clipping plus quantization onto
the uniform grid ``{-2^{w-1}δ, …, -δ, 0, δ, …, (2^{w-1}-1)δ}``: a value
in ``[ε, ε+δ]`` rounds down to ε with probability ``(ε+δ-g)/δ``, up
otherwise — unbiased inside the clipped range.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, Compressor, flatten_with_shape
from repro.tensorlib import pack_bits, unpack_bits


class LPCSVRGCompressor(Compressor):
    """Clipped uniform-grid quantization with stochastic rounding."""

    name = "lpcsvrg"
    family = "quantization"
    stochastic = True
    communication = "allgather"
    default_memory = "none"

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
        clipped = np.clip(flat, -bound, bound)
        # Grid step so the clipped range maps into the code range.
        delta = bound / self._offset
        scaled = clipped
        scaled /= delta
        scaled += self._offset  # in [0, 2^w]
        codes = np.floor(scaled)
        scaled -= codes  # the fractional part: the odds of rounding up
        codes += self._rng.random(size=scaled.shape) < scaled
        np.clip(codes, 0, self._levels - 1, out=codes)
        payload = [
            pack_bits(codes.astype(np.uint8), bits=self.bit_width),
            np.array([delta], dtype=np.float32),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        packed, delta = compressed.payload
        if size == 0:
            return np.zeros(shape, dtype=np.float32)
        codes = unpack_bits(packed, bits=self.bit_width, count=size)
        values = (codes - self._offset).astype(np.float32) * delta[0]
        return values.reshape(shape)
