"""INCEPTIONN (Li et al., MICRO 2018).

Quantizes each 32-bit element into one of four precision levels — 32, 16,
8 or 0 bits — selected by magnitude, plus a 2-bit tag per element.  The
original system runs this on FPGA NICs; here the same algorithm runs as a
NumPy kernel (the device model in the benchmark harness charges it the
CPU cost the paper observed for software implementations).
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, Compressor, flatten_with_shape
from repro.tensorlib import (
    dequantize_float8,
    pack_bits,
    quantize_float8,
    unpack_bits,
)

_TAG_DROP, _TAG_F8, _TAG_F16, _TAG_F32 = 0, 1, 2, 3  # ascending precision


class InceptionnCompressor(Compressor):
    """Magnitude-tiered 0/8/16/32-bit encoding with 2-bit tags.

    Elements below ``drop_fraction`` of the max magnitude are dropped,
    the next tier is float8, then float16, and the top ``full_fraction``
    of the range stays float32.
    """

    name = "inceptionn"
    family = "quantization"
    stochastic = False
    communication = "allgather"
    default_memory = "none"

    def __init__(
        self,
        drop_fraction: float = 0.001,
        f8_fraction: float = 0.05,
        full_fraction: float = 0.5,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if not 0 <= drop_fraction <= f8_fraction <= full_fraction <= 1:
            raise ValueError(
                "fractions must satisfy 0 <= drop <= f8 <= full <= 1"
            )
        self.drop_fraction = float(drop_fraction)
        self.f8_fraction = float(f8_fraction)
        self.full_fraction = float(full_fraction)

    def _clone_args(self) -> dict:
        return {
            "drop_fraction": self.drop_fraction,
            "f8_fraction": self.f8_fraction,
            "full_fraction": self.full_fraction,
        }

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        # np.float32: the max of a float32 array is exact at float32, and
        # `rel` below divides a float32 array by it — no float64 detour
        # through a Python scalar (GR002).
        mag = np.abs(flat)
        max_mag = np.float32(np.max(mag)) if flat.size else 0.0
        if max_mag > 0:
            # The tags are ordered like the tiers: a tag is the number of
            # (ascending) tier thresholds its element reaches.
            rel = np.divide(mag, max_mag, out=mag)
            tags = (rel >= self.drop_fraction).astype(np.uint8)
            tags += rel >= self.f8_fraction
            tags += rel >= self.full_fraction
        else:
            tags = np.full(flat.size, _TAG_DROP, dtype=np.uint8)
        f8_values = flat[tags == _TAG_F8]
        f8_codes, f8_scale = quantize_float8(f8_values)
        payload = [
            pack_bits(tags, bits=2),
            f8_codes,
            np.array([f8_scale], dtype=np.float32),
            flat[tags == _TAG_F16].astype(np.float16),
            flat[tags == _TAG_F32].astype(np.float32),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        packed_tags, f8_codes, f8_scale, f16_values, f32_values = compressed.payload
        tags = unpack_bits(packed_tags, bits=2, count=size)
        out = np.zeros(size, dtype=np.float32)
        out[tags == _TAG_F8] = dequantize_float8(f8_codes, f8_scale[0])
        out[tags == _TAG_F16] = f16_values.astype(np.float32)
        out[tags == _TAG_F32] = f32_values
        return out.reshape(shape)
