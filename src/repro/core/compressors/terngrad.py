"""TernGrad (Wen et al., NeurIPS 2017).

Ternary quantization: a Bernoulli mask with ``P(b[i]=1) = |g[i]| / ‖g‖∞``
selects elements, and ``g̃ = ‖g‖∞ · sign(g) ⊙ b`` — an unbiased estimator
over the three values ``{-1, 0, 1}`` scaled by the infinity norm.  The
original paper also clips the gradient at ``c·σ`` before quantizing to
tighten ‖g‖∞; clipping is on by default, matching the reference code.
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
from repro.tensorlib.huffman import (
    HuffmanEncoded,
    huffman_decode,
    huffman_encode,
)

_CODE_ZERO, _CODE_POS, _CODE_NEG = 0, 1, 2
# Decoded value by 2-bit code; the unused fourth code decodes to zero.
_TERNARY_VALUES = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.float32)


def _ternary_codes(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``uint8`` codes: the sign of each kept element, zero for the rest."""
    codes = np.where(values >= 0, np.uint8(_CODE_POS), np.uint8(_CODE_NEG))
    codes *= keep  # _CODE_ZERO is 0
    return codes


class TernGradCompressor(Compressor):
    """Unbiased {-1, 0, +1} quantizer scaled by the clipped infinity norm.

    ``entropy_coding=True`` replaces the fixed 2-bit packing with a
    canonical Huffman code over the ternary stream (related-work §VI,
    Gajjala et al.) — since most symbols are zero, the stream costs well
    under 2 bits/element.
    """

    name = "terngrad"
    family = "quantization"
    stochastic = True
    communication = "allgather"
    default_memory = "none"
    fused_kernel = True

    def __init__(self, clip_factor: float = 2.5,
                 entropy_coding: bool = False, seed: int = 0):
        super().__init__(seed=seed)
        if clip_factor <= 0:
            raise ValueError(f"clip_factor must be positive, got {clip_factor}")
        self.clip_factor = float(clip_factor)
        self.entropy_coding = bool(entropy_coding)

    def _clone_args(self) -> dict:
        return {
            "clip_factor": self.clip_factor,
            "entropy_coding": self.entropy_coding,
        }

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        if flat.size:
            # np.float32: keep the clip bound at the precision the array
            # op would cast it to anyway, instead of a float64 detour
            # through a Python scalar (GR002).
            bound = np.float32(self.clip_factor) * np.float32(np.std(flat))
            if bound > 0:
                flat = np.clip(flat, -bound, bound)
        mag = np.abs(flat)
        scale = np.float32(np.max(mag)) if flat.size else np.float32(0.0)
        codes = _ternary_codes(flat, self._keep(mag, scale))
        if self.entropy_coding:
            encoded = huffman_encode(codes, num_symbols=3)
            payload = [
                np.array([scale], dtype=np.float32),
                encoded.buffer,
                encoded.lengths,
            ]
            return CompressedTensor(payload=payload, ctx=(shape, flat.size))
        payload = [
            np.array([scale], dtype=np.float32),
            pack_bits(codes, bits=2),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def _keep(self, mag: np.ndarray, scale) -> np.ndarray:
        """Bernoulli mask with ``P(keep) = mag / scale`` (overwrites ``mag``).

        ``scale`` is one float32, or one per element (a fused bucket).
        Elements whose scale is zero are dropped and take no draw, so a
        bucket consumes the stream like its tensors one after the other.
        """
        live = scale > 0
        if np.all(live):
            mag /= scale
            return self._rng.random(size=mag.shape) < mag
        keep = np.zeros(mag.shape, dtype=bool)
        if np.ndim(live):
            odds = mag[live] / scale[live]
            keep[live] = self._rng.random(size=odds.shape) < odds
        return keep

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Whole-bucket TernGrad: clip, one uniform draw, one bit-pack.

        Clip bounds and infinity-norm scales stay per segment (statistics
        over contiguous views are bitwise-identical to the per-tensor
        path, and a zero-variance segment simply gets an infinite bound,
        i.e. no clipping).  The Bernoulli mask uses a single
        ``numel``-sized uniform draw — Generator streams concatenate
        exactly, so the codes are seeded-equal to the per-tensor path.
        A zero-scale segment (a layer dead on this rank) keeps the
        format: codes zero, no draws.  Entropy coding and empty tensors
        — parameters and layout, the same on every rank — take the
        generic path.
        """
        if self.entropy_coding or bucket.has_empty_segment:
            return super().compress_fused(buffer, bucket)
        bounds = np.float32(self.clip_factor) * segment_stds(
            buffer, bucket.ends
        )
        bounds[~(bounds > 0)] = np.inf
        bounds = bucket.expand(bounds)
        clipped = np.clip(buffer, -bounds, bounds)
        mag = np.abs(clipped)
        scales = bucket.segment_max(mag)
        codes = _ternary_codes(clipped, self._keep(mag, bucket.expand(scales)))
        payload = [scales, pack_bits(codes, bits=2)]
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """Rebuild the flat bucket from one fused ternary payload."""
        scales, packed = payload
        codes = unpack_bits(packed, bits=2, count=bucket.numel)
        return bucket.expand(scales) * _TERNARY_VALUES.take(codes)

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        scale_arr = compressed.payload[0]
        if self.entropy_coding:
            encoded = HuffmanEncoded(
                buffer=compressed.payload[1],
                lengths=compressed.payload[2],
                count=size,
            )
            codes = huffman_decode(encoded)
        else:
            codes = unpack_bits(compressed.payload[1], bits=2, count=size)
        ternary = _TERNARY_VALUES.take(codes)
        ternary *= scale_arr[0]
        return ternary.reshape(shape)
