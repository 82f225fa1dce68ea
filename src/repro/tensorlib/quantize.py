"""Quantization helper kernels.

These are the numeric primitives that the quantization-family compressors
(§III-A of the paper) are assembled from: uniform codebooks with either
deterministic or stochastic rounding, the Dettmers float8 format used by
8-bit quantization, and power-of-two rounding for Natural compression.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------------
# Uniform codebook quantization (QSGD-style levels).
# --------------------------------------------------------------------------


def quantize_uniform(
    values: np.ndarray,
    levels: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Map ``values`` in [0, 1] to integer code-words in [0, levels].

    With ``rng`` given, uses stochastic (unbiased) rounding: a value between
    two adjacent code-words is rounded up with probability equal to its
    fractional position, exactly the QSGD rule.  Without ``rng`` the rounding
    is deterministic (nearest level).
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    scaled = np.clip(values, 0.0, 1.0) * levels
    if rng is None:
        return np.rint(scaled).astype(np.int64)
    codes = np.floor(scaled)
    scaled -= codes  # the fractional part: the odds of rounding up
    codes += rng.random(size=scaled.shape) < scaled
    return codes.astype(np.int64)


def dequantize_uniform(codes: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of :func:`quantize_uniform`; returns floats in [0, 1]."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return codes.astype(np.float64) / float(levels)


def quantize_stochastic_levels(
    magnitudes: np.ndarray,
    norm: float,
    levels: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """QSGD stochastic quantization of ``|g[i]| / ||g||`` onto ``levels`` bins.

    Returns integer code-words ``l`` in ``[0, levels]`` such that the
    estimator ``norm * l / levels`` is unbiased for each magnitude.
    ``norm`` is one number, or one per element (a fused bucket: every
    element carries its own tensor's norm).  A zero norm yields zero codes
    and consumes no draws, so a bucket takes from ``rng`` exactly what its
    tensors would take one after the other.
    """
    live = norm > 0
    if np.all(live):
        return quantize_uniform(magnitudes / norm, levels, rng=rng)
    codes = np.zeros(magnitudes.shape, dtype=np.int64)
    if np.ndim(live):
        codes[live] = quantize_uniform(
            magnitudes[live] / norm[live], levels, rng=rng
        )
    return codes


# --------------------------------------------------------------------------
# Dettmers-style float8 (1 sign, 3 exponent, 4 mantissa bits).
# --------------------------------------------------------------------------

_F8_MANTISSA_BITS = 4
_F8_EXP_BITS = 3
_F8_EXP_BIAS = 4  # exponents cover 2^-4 .. 2^3 relative to the dynamic scale
_F8_MANTISSA_LEVELS = 1 << _F8_MANTISSA_BITS
_F8_EXP_MAX = (1 << _F8_EXP_BITS) - 1


def quantize_float8(
    values: np.ndarray, scale: np.ndarray | None = None
) -> tuple[np.ndarray, float | np.ndarray]:
    """Quantize float32 values to an 8-bit float format (1-3-4 split).

    Follows Dettmers' dynamic scheme: values are first normalized by the
    maximum absolute value (the dynamic scale that travels with the
    codes), then encoded as sign / exponent / mantissa.  Returns
    ``(codes, scale)`` where ``codes`` is ``uint8``.

    ``scale`` given, one float32 per element, replaces the maximum: a
    fused bucket hands every element its own tensor's scale.  A zero scale
    there means an all-zero tensor, whose codes are zero.
    """
    flat = np.ravel(values)
    if scale is None:
        scale = float(np.max(np.abs(flat))) if flat.size else 0.0
        if scale == 0.0:
            return np.zeros(flat.shape, dtype=np.uint8), 0.0
        divisor = scale
    else:
        divisor = np.where(scale > 0, scale, np.float32(1.0))
    # The normalization rounds in float64: it decides mantissa ties.
    normalized = flat.astype(np.float64)
    normalized /= divisor
    codes = (normalized < 0).astype(np.uint8)
    codes <<= 7
    mag = np.abs(normalized, out=normalized)
    # Decompose into exponent & mantissa. Magnitudes are in (0, 1]; exponent
    # e satisfies mag = m * 2^(e - bias) with m in [1, 2).  ``frexp`` reads
    # the binade off the representation: mag = f * 2^x with f in [0.5, 1).
    _, exp = np.frexp(mag)
    exp += _F8_EXP_BIAS - 1
    np.clip(exp, 0, _F8_EXP_MAX, out=exp)
    zero = mag < np.exp2(-_F8_EXP_BIAS - 1)
    # (mag / 2^(exp - bias) - 1) * 2^mantissa_bits, scaled exactly by ldexp.
    mantissa = np.ldexp(mag, (_F8_EXP_BIAS + _F8_MANTISSA_BITS) - exp, out=mag)
    mantissa -= _F8_MANTISSA_LEVELS
    np.rint(mantissa, out=mantissa)
    np.clip(mantissa, 0, _F8_MANTISSA_LEVELS - 1, out=mantissa)
    codes |= exp.astype(np.uint8) << _F8_MANTISSA_BITS
    codes |= mantissa.astype(np.uint8)
    # 0x00 is the zero sentinel; the legitimate code for the smallest
    # positive value (+, exp 0, mantissa 0) collides with it, so bump
    # such values to mantissa 1 (a ~6% perturbation at the format's
    # smallest magnitude) instead of silently flushing them to zero.
    np.maximum(codes, 1, out=codes)
    codes *= ~zero
    return codes, scale


def _float8_values() -> np.ndarray:
    """What each of the 256 codes decodes to, before the dynamic scale."""
    codes = np.arange(256, dtype=np.uint64)
    sign = np.where((codes >> 7) & 1, -1.0, 1.0)
    exp = ((codes >> _F8_MANTISSA_BITS) & _F8_EXP_MAX).astype(np.float64)
    mantissa = (codes & (_F8_MANTISSA_LEVELS - 1)).astype(np.float64)
    values = sign * (1.0 + mantissa / _F8_MANTISSA_LEVELS) * np.exp2(
        exp - _F8_EXP_BIAS
    )
    values[0] = 0.0
    return values


_F8_VALUES = _float8_values()


def dequantize_float8(codes: np.ndarray, scale) -> np.ndarray:
    """Inverse of :func:`quantize_float8` (lossy; returns float32).

    ``scale`` is one number or, for a fused bucket, one per code.
    """
    codes = np.asarray(codes).astype(np.uint8, copy=False)
    if np.ndim(scale):
        return (_F8_VALUES.take(codes) * scale).astype(np.float32)
    # Decoding is a function of the code alone: scale the 256 values once.
    decoded = (_F8_VALUES * scale).astype(np.float32)
    return decoded.take(codes)


# --------------------------------------------------------------------------
# Power-of-two rounding (Natural compression).
# --------------------------------------------------------------------------


def nearest_power_of_two(values: np.ndarray) -> np.ndarray:
    """Deterministically round each value to the closest power of two."""
    out = np.zeros_like(values, dtype=np.float64)
    nonzero = values != 0
    mag = np.abs(values[nonzero]).astype(np.float64)
    exp = np.round(np.log2(mag))
    out[nonzero] = np.sign(values[nonzero]) * np.exp2(exp)
    return out


def stochastic_power_of_two(
    values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Natural compression: round to one of the two nearest powers of two.

    The rounding probabilities make the operator unbiased:
    a magnitude ``m`` in ``[2^e, 2^(e+1)]`` maps to ``2^(e+1)`` with
    probability ``(m - 2^e) / 2^e`` and to ``2^e`` otherwise.
    """
    nonzero = values != 0
    count = np.count_nonzero(nonzero)
    if count == 0:
        return np.zeros_like(values, dtype=np.float64)
    dense = count == values.size  # the usual gradient: skip the gathers
    picked = values if dense else values[nonzero]
    # mag = f * 2^x with f in [0.5, 1): the binade's low end is 2^(x - 1)
    # and (mag - low) / low = 2f - 1, exactly, at the input's own precision.
    fraction, binade = np.frexp(picked)
    p_up = np.abs(fraction, out=fraction)
    p_up *= 2.0
    p_up -= 1.0
    draws = rng.random(size=p_up.shape)
    binade -= draws >= p_up  # 2 * low when rounding up, low otherwise
    # Large temporaries cost more than the arithmetic: reuse the two above.
    unit = np.copysign(1.0, picked, out=fraction)
    rounded = np.ldexp(unit, binade, out=draws)
    if dense:
        return rounded.reshape(values.shape)
    out = np.zeros_like(values, dtype=np.float64)
    out[nonzero] = rounded
    return out
