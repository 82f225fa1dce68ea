"""3LC (Lim, Andersen & Kaminsky, MLSys 2019).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  Three stages:

1. *3-value quantization with a sparsity multiplier*: ``M = ‖g‖∞ / s``
   for ``s ∈ [1, 2)``; the gradient is rounded to ``{-1, 0, +1}·M``
   (larger ``s`` shrinks the zero region, lowering sparsity).
2. The ternary stream is what error compensation acts on (EF default on).
3. *Aggressive lossless encoding*: zero-run-length + varint encoding of
   the ternary stream (the dominant symbols are zero runs).
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    flatten_with_shape,
)
from repro.tensorlib import (
    pack_bits,
    rle_decode_zeros,
    rle_encode_zeros,
    unpack_bits,
    varint_decode,
    varint_encode,
)


class ThreeLCCompressor(Compressor):
    """Ternary quantization + zero-RLE lossless stage."""

    name = "threelc"
    family = "hybrid"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    fused_kernel = True

    def __init__(self, sparsity_multiplier: float = 1.0, seed: int = 0):
        super().__init__(seed=seed)
        if not 1.0 <= sparsity_multiplier < 2.0:
            raise ValueError(
                f"sparsity_multiplier must be in [1, 2), got "
                f"{sparsity_multiplier}"
            )
        self.sparsity_multiplier = float(sparsity_multiplier)

    def _clone_args(self) -> dict:
        return {"sparsity_multiplier": self.sparsity_multiplier}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        # np.float32: the max of a float32 array is exact at float32 and
        # only ever feeds float32 math — no float64 detour (GR002).
        max_mag = np.float32(np.max(np.abs(flat))) if flat.size else 0.0
        if max_mag == 0.0:
            ternary = np.zeros(flat.size, dtype=np.int64)
            scale = 0.0
        else:
            scale = max_mag / np.float32(self.sparsity_multiplier)
            ternary = self._ternary(flat, scale)
        payload = self._encode(ternary, np.array([scale], dtype=np.float32))
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    @staticmethod
    def _ternary(flat: np.ndarray, scale) -> np.ndarray:
        """``flat`` rounded to {-1, 0, +1} steps of ``scale`` (a float32, or
        one per element)."""
        return np.clip(np.rint(flat / scale), -1, 1).astype(np.int64)

    @staticmethod
    def _encode(ternary: np.ndarray, scales: np.ndarray) -> list[np.ndarray]:
        """The lossless stage: zero-RLE, 2-bit symbols, varint run lengths."""
        symbols, runs, n_symbols = rle_encode_zeros(ternary)
        # The RLE symbol/run counts are derived from the tensor values,
        # so the receiver cannot know them a priori: they travel on the
        # wire as a payload part, not in ctx (GR003 / paper §IV-B).
        counts = np.array([n_symbols, runs.size], dtype=np.int64)
        return [
            pack_bits(symbols, bits=2), varint_encode(runs), scales, counts
        ]

    @staticmethod
    def _decode(payload, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ternary float32 stream, scales)`` of one payload."""
        packed_symbols, packed_runs, scales, counts = payload
        n_symbols, n_runs = int(counts[0]), int(counts[1])
        symbols = unpack_bits(packed_symbols, bits=2, count=n_symbols)
        runs = varint_decode(packed_runs, n_runs)
        return rle_decode_zeros(symbols, runs, size), scales

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        ternary, scale = self._decode(compressed.payload, size)
        return (scale[0] * ternary).reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """One rounding pass and one lossless stream for the whole bucket.

        Scales stay per segment.  The zero runs of the single stream cross
        tensor boundaries, so a bucket pays for its symbol and run counts
        once and spends no symbol on restarting a run at every tensor.
        """
        scales = bucket.segment_max(np.abs(buffer)) / np.float32(
            self.sparsity_multiplier
        )
        # An all-zero segment has scale zero and rounds to zeros.
        steps = np.where(scales > 0, scales, np.float32(1.0))
        ternary = self._ternary(buffer, bucket.expand(steps))
        return CompressedTensor(
            payload=self._encode(ternary, scales), ctx=FusedBucketCtx(bucket)
        )

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        ternary, scales = self._decode(payload, bucket.numel)
        ternary *= bucket.expand(scales)
        return ternary
