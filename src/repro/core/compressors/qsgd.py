"""QSGD (Alistarh et al., NeurIPS 2017).

Codebook quantization with stochastic rounding (Fig. 3 of the paper):
every magnitude ``|g[i]| / ‖g‖₂`` is rounded to one of ``s + 1`` levels
``{0, 1/s, …, 1}`` such that the estimator is unbiased.  The wire format
is the ℓ2 norm, a 1-bit sign vector and the bit-packed level code-words
(``ceil(log2(s + 1))`` bits each).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.api import (
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    _fused_layout,
    flatten_with_shape,
    is_fused_concat_ctx,
)
from repro.tensorlib import (
    pack_bits,
    pack_signs,
    quantize_stochastic_levels,
    segment_norms,
    unpack_bits,
    unpack_signs,
)


class QSGDCompressor(Compressor):
    """Unbiased stochastic codebook quantizer with ``levels`` bins."""

    name = "qsgd"
    family = "quantization"
    stochastic = True
    communication = "allgather"
    default_memory = "none"
    fused_kernel = True
    aggregation = "codebook"

    def __init__(self, levels: int = 64, seed: int = 0):
        super().__init__(seed=seed)
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        self.levels = int(levels)
        self.code_bits = max(1, math.ceil(math.log2(self.levels + 1)))

    def _clone_args(self) -> dict:
        return {"levels": self.levels}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        # float32 throughout: float() would widen the norm to a 64-bit
        # Python scalar on its way into the payload scale part (GR002).
        norm = np.float32(np.linalg.norm(flat))
        codes = quantize_stochastic_levels(
            np.abs(flat), norm, self.levels, rng=self._rng
        )
        payload = [
            np.array([norm], dtype=np.float32),
            pack_signs(flat),
            pack_bits(codes, bits=self.code_bits),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size = compressed.ctx
        norm_arr, packed_signs, packed_codes = compressed.payload
        norm = norm_arr[0]  # float32 scale part, kept at wire precision
        signs = unpack_signs(packed_signs, size)
        codes = unpack_bits(packed_codes, bits=self.code_bits, count=size)
        values = signs
        values *= norm
        values *= codes.astype(np.float32)
        values /= self.levels
        return values.reshape(shape)

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Whole-bucket QSGD: one stochastic-rounding pass, one bit-pack.

        Per-segment ℓ2 norms stay per-segment (a norm over a contiguous
        view is bitwise-identical to the per-tensor computation); the
        normalize / round / sign-pack / bit-pack work runs once over the
        whole bucket.  A single ``numel``-sized uniform draw replaces the
        per-tensor draws — Generator streams concatenate exactly, so the
        codes are seeded-equal to the per-tensor path.  A zero-norm
        segment (a layer dead on this rank) keeps the format: its codes
        are zero and its elements take no draw, just like ``compress``.
        """
        norms = segment_norms(buffer, bucket.ends)
        codes = quantize_stochastic_levels(
            np.abs(buffer), bucket.expand(norms), self.levels, rng=self._rng
        )
        payload = [
            norms,
            pack_signs(buffer),
            pack_bits(codes, bits=self.code_bits),
        ]
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        """Rebuild the flat bucket from one fused QSGD payload."""
        norms, packed_signs, packed_codes = payload
        signs = unpack_signs(packed_signs, bucket.numel)
        codes = unpack_bits(
            packed_codes, bits=self.code_bits, count=bucket.numel
        )
        return (
            bucket.expand(norms)
            * signs
            * codes.astype(np.float32)
            / self.levels
        )

    def _lattice_form(self, compressed: CompressedTensor):
        """Native lattice view: QSGD values already live on ``norm/s · Z``.

        ``delta = ‖g‖₂ / levels`` is receiver-computable from the wire
        norm, and the signed level codes are the integer coordinates —
        no re-quantization, so a one-summand aggregate is exact.
        """
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            bucket = ctx.bucket
            norms, packed_signs, packed_codes = compressed.payload
            signs = unpack_signs(packed_signs, bucket.numel)
            codes = unpack_bits(
                packed_codes, bits=self.code_bits, count=bucket.numel
            )
            deltas = (
                np.asarray(norms, dtype=np.float32)
                / np.float32(self.levels)
            )
            signed = codes.astype(np.int64) * signs.astype(np.int64)
            signed[np.repeat(deltas, bucket.sizes) == 0.0] = 0
            return (
                (int(bucket.numel),),
                int(bucket.numel),
                deltas,
                bucket.sizes.astype(np.int64),
                signed,
            )
        if is_fused_concat_ctx(ctx):
            # Generic fused fallback payload: per-segment native forms,
            # concatenated into one multi-segment lattice.
            numel, offsets, sizes, splits, ctxs = _fused_layout(ctx)
            deltas_parts, seg_parts, code_parts = [], [], []
            start = 0
            for n_parts, seg_ctx in zip(splits, ctxs):
                sub = CompressedTensor(
                    payload=compressed.payload[start:start + n_parts],
                    ctx=seg_ctx,
                )
                start += n_parts
                _, _, deltas, seg_sizes, codes = self._lattice_form(sub)
                deltas_parts.append(deltas)
                seg_parts.append(seg_sizes)
                code_parts.append(codes)
            return (
                (int(numel),),
                int(numel),
                np.concatenate(deltas_parts),
                np.concatenate(seg_parts),
                np.concatenate(code_parts),
            )
        if isinstance(ctx, tuple):
            shape, size = ctx
            norm_arr, packed_signs, packed_codes = compressed.payload
            signs = unpack_signs(packed_signs, size)
            codes = unpack_bits(packed_codes, bits=self.code_bits, count=size)
            delta = np.float32(norm_arr[0]) / np.float32(self.levels)
            signed = codes.astype(np.int64) * signs.astype(np.int64)
            if delta == 0.0:
                signed[:] = 0
            return (
                tuple(shape),
                int(size),
                np.array([delta], dtype=np.float32),
                np.array([size], dtype=np.int64),
                signed,
            )
        return super()._lattice_form(compressed)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Shared-codebook (THC-style) sum on the max-δ lattice."""
        if not items:
            raise ValueError("nothing to aggregate")
        return self._aggregate_lattice(items)
