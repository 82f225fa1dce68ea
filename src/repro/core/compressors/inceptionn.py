"""INCEPTIONN (Li et al., MICRO 2018).

Quantizes each 32-bit element into one of four precision levels — 32, 16,
8 or 0 bits — selected by magnitude, plus a 2-bit tag per element.  The
original system runs this on FPGA NICs; here the same algorithm runs as a
NumPy kernel (the device model in the benchmark harness charges it the
CPU cost the paper observed for software implementations).
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import (
    dequantize_float8,
    pack_bits,
    quantize_float8,
    unpack_bits,
)

_TAG_DROP, _TAG_F8, _TAG_F16, _TAG_F32 = 0, 1, 2, 3  # ascending precision


def _where(tags: np.ndarray, tag: int) -> np.ndarray:
    """Positions carrying ``tag``.  Gathering and scattering through an index
    array is 2-3x faster than through the boolean mask itself."""
    return np.flatnonzero(tags == tag)


class InceptionnCompressor(KernelCompressor):
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

    def _tags(self, rel: np.ndarray) -> np.ndarray:
        """Tier of every element from its magnitude relative to the max.

        The tags are ordered like the tiers: a tag is the number of
        (ascending) tier thresholds its element reaches.
        """
        tags = (rel >= self.drop_fraction).astype(np.uint8)
        tags += rel >= self.f8_fraction
        tags += rel >= self.full_fraction
        return tags

    @staticmethod
    def _tiers(flat, tags, f8_codes, f8_scales) -> list[np.ndarray]:
        return [
            pack_bits(tags, bits=2),
            f8_codes,
            f8_scales,
            flat[_where(tags, _TAG_F16)].astype(np.float16),
            flat[_where(tags, _TAG_F32)].astype(np.float32),
        ]

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One tagging pass and one gather per tier for the whole bucket.

        The max magnitude and the float8 tier's scale stay per segment.
        """
        mag = np.abs(buffer)
        peaks = bucket.segment_max(mag)
        live = peaks > 0
        tags = self._tags(
            mag / bucket.expand(np.where(live, peaks, np.float32(1.0)))
        )
        # An all-zero segment is dropped whatever the fractions.
        tags *= bucket.expand(live)
        f8_scales = bucket.segment_max(
            np.where(tags == _TAG_F8, mag, np.float32(0.0))
        )
        f8_at = _where(tags, _TAG_F8)
        f8_codes, _ = quantize_float8(
            buffer[f8_at], bucket.expand_at(f8_scales, f8_at)
        )
        return CompressedTensor(
            payload=self._tiers(buffer, tags, f8_codes, f8_scales),
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        packed_tags, f8_codes, f8_scales, f16_values, f32_values = payload
        tags = unpack_bits(packed_tags, bits=2, count=bucket.numel)
        out = np.zeros(bucket.numel, dtype=np.float32)
        f8_at = _where(tags, _TAG_F8)
        out[f8_at] = dequantize_float8(
            f8_codes, bucket.expand_at(f8_scales, f8_at)
        )
        out[_where(tags, _TAG_F16)] = f16_values.astype(np.float32)
        out[_where(tags, _TAG_F32)] = f32_values
        return out
