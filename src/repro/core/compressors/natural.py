"""Natural compression (Horvath et al., 2019).

Stochastically rounds each element to one of the two nearest integer
powers of two, with probabilities that make the operator unbiased.  The
wire format is one sign bit plus an 8-bit exponent per element (a
sentinel exponent encodes exact zero), i.e. 9 bits/element.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import pack_signs, stochastic_power_of_two, unpack_signs

_EXP_BIAS = 127
_ZERO_SENTINEL = 255


def _exponent_values() -> np.ndarray:
    """The float32 magnitude each of the 256 wire exponents decodes to."""
    values = np.zeros(256, dtype=np.float32)
    # Powers of two down to 2^-127 (a float32 subnormal): widened so that
    # exp2 is exact, then narrowed exactly.
    values[:_ZERO_SENTINEL] = np.exp2(
        np.arange(_ZERO_SENTINEL).astype(np.float64) - _EXP_BIAS
    ).astype(np.float32)
    return values


_EXPONENT_VALUES = _exponent_values()


class NaturalCompressor(KernelCompressor):
    """Unbiased power-of-two rounding with 9-bit wire format."""

    name = "natural"
    family = "quantization"
    stochastic = True
    communication = "allgather"
    default_memory = "residual"
    aggregation = "codebook"

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Sign bits and wire exponents of the rounded bucket.

        Nothing here looks past one element, and the rounding draws once
        per non-zero element in order: a flat bucket encodes to what its
        tensors encode to one after the other.
        """
        rounded = stochastic_power_of_two(buffer, rng=self._rng)
        # rounded is 0 or +-2^x: frexp reads x + 1 off the representation.
        _, binade = np.frexp(rounded)
        binade += _EXP_BIAS - 1
        np.clip(binade, 0, _ZERO_SENTINEL - 1, out=binade)
        exponents = binade.astype(np.uint8)
        exponents[rounded == 0] = _ZERO_SENTINEL
        return CompressedTensor(
            payload=[pack_signs(rounded), exponents],
            ctx=FusedBucketCtx(bucket),
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        packed_signs, exponents = payload
        signs = unpack_signs(packed_signs, bucket.numel)
        signs *= _EXPONENT_VALUES.take(exponents)
        return signs

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Shared-codebook sum on the generic max-δ lattice.

        Powers of two are geometrically, not uniformly, spaced, so the
        generic dense-decode lattice snap applies — approximate, bounded
        by ``n·δ*``.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        return self._aggregate_lattice(items)
