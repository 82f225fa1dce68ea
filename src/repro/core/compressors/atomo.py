"""Spectral ATOMO (Wang et al., NeurIPS 2018).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  The gradient matrix's atomic decomposition is
its SVD: ``M = Σ_i σ_i u_i v_iᵀ``.  Each singular triple is kept with
probability ``p_i`` from the variance-minimizing meta-optimization
(water-filling on the singular values with sparsity budget ``s``), and
kept atoms are scaled by ``1/p_i`` — an unbiased low-rank estimator.
Remark 1 of the paper notes QSGD and TernGrad are recovered from ATOMO
under the standard basis; the SVD basis is the "spectral" variant.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    AggregatedDenseCtx,
    CompressedTensor,
    Compressor,
    flatten_with_shape,
    is_fused_concat_ctx,
    summand_count,
)
from repro.core.compressors.powersgd import _GramSVD, _matrix_view
from repro.core.compressors.variance import selection_probabilities


class _AggAtomsCtx:
    """Ctx of an aggregated atom payload ``[U m×A, σ A, Vᵀ A×L]``.

    ``blocks`` holds each summand's kept-atom count; the decode rebuilds
    each block's float32 matrix and sums them in block order, matching
    the legacy decompress-then-sum sequence bitwise.
    """

    __slots__ = ("shape", "size", "blocks", "n_summands")

    def __init__(self, shape, size, blocks, n_summands):
        self.shape = tuple(shape)
        self.size = int(size)
        self.blocks = tuple(int(b) for b in blocks)
        self.n_summands = int(n_summands)


class AtomoCompressor(Compressor):
    """Unbiased spectral sampling with a sparsity budget."""

    name = "atomo"
    family = "low-rank"
    stochastic = True
    communication = "allgather"
    default_memory = "none"
    aggregation = "exact-linear"

    def __init__(self, budget: int = 2, min_compress_size: int = 1024,
                 seed: int = 0):
        super().__init__(seed=seed)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = int(budget)
        self.min_compress_size = int(min_compress_size)

    def _clone_args(self) -> dict:
        return {
            "budget": self.budget,
            "min_compress_size": self.min_compress_size,
        }

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        if flat.size < self.min_compress_size:
            return CompressedTensor(
                payload=[flat.astype(np.float32)],
                ctx=(shape, flat.size, False),
            )
        svd = _GramSVD(_matrix_view(flat, shape).astype(np.float64))
        probabilities = selection_probabilities(svd.sigma, self.budget)
        # No atom drawn sends none (U m×0, σ 0, Vᵀ 0×L): falling back on
        # the top atom, scaled by 1/p₀, would bias the estimator.
        keep = np.flatnonzero(
            self._rng.random(size=svd.sigma.size) < probabilities
        )
        u, sigma, vt = svd.triples(keep)
        payload = [
            u.astype(np.float32),
            (sigma / probabilities[keep]).astype(np.float32),
            vt.astype(np.float32),
        ]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size, True))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size, was_compressed = compressed.ctx
        if not was_compressed:
            return compressed.payload[0].reshape(shape)
        u, sigma, vt = compressed.payload
        matrix = (u.astype(np.float64) * sigma.astype(np.float64)) @ vt.astype(
            np.float64
        )
        return matrix.astype(np.float32).reshape(shape)

    def _atom_blocks(self, compressed: CompressedTensor):
        """(U, σ, Vᵀ, per-summand atom counts) of a plain/aggregated payload."""
        ctx = compressed.ctx
        u, sigma, vt = compressed.payload
        if isinstance(ctx, _AggAtomsCtx):
            return u, sigma, vt, ctx.blocks
        return u, sigma, vt, (sigma.shape[0],)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact atom accumulation: concatenate kept singular triples.

        The sum of sampled atomic decompositions is itself an atomic
        decomposition — U gains columns, Vᵀ gains rows, σ concatenates.
        No dense reconstruction happens server-side.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        ctx = items[0].ctx
        if is_fused_concat_ctx(ctx):
            return self._aggregate_fused_segments(items)
        if isinstance(ctx, AggregatedDenseCtx):
            # Re-aggregating dense rack sums (hierarchical reduction).
            return self._aggregate_dense(items, ctx.shape)
        if isinstance(ctx, tuple) and not ctx[2]:
            # Small tensors travel uncompressed (receiver-known size
            # threshold, identical decision on every worker).
            return self._aggregate_dense(items, ctx[0])
        shape = ctx.shape if isinstance(ctx, _AggAtomsCtx) else ctx[0]
        size = ctx.size if isinstance(ctx, _AggAtomsCtx) else ctx[1]
        us, sigmas, vts, blocks = [], [], [], []
        for item in items:
            u, sigma, vt, item_blocks = self._atom_blocks(item)
            us.append(np.asarray(u, dtype=np.float32))
            sigmas.append(np.asarray(sigma, dtype=np.float32))
            vts.append(np.asarray(vt, dtype=np.float32))
            blocks.extend(item_blocks)
        total = sum(summand_count(item) for item in items)
        return CompressedTensor(
            payload=[
                np.concatenate(us, axis=1),
                np.concatenate(sigmas),
                np.concatenate(vts, axis=0),
            ],
            ctx=_AggAtomsCtx(shape, size, blocks, total),
        )

    def decompress_aggregated(
        self, compressed: CompressedTensor
    ) -> np.ndarray:
        ctx = compressed.ctx
        if not isinstance(ctx, _AggAtomsCtx):
            return super().decompress_aggregated(compressed)
        u, sigma, vt = compressed.payload
        u64 = np.asarray(u, dtype=np.float64)
        s64 = np.asarray(sigma, dtype=np.float64)
        v64 = np.asarray(vt, dtype=np.float64)
        total: np.ndarray | None = None
        col = 0
        for atoms in ctx.blocks:
            # Per-block f64 reconstruction + f32 cast, then f32
            # accumulation — the exact sequence of decompressing each
            # summand and summing the results.
            block = (
                (u64[:, col:col + atoms] * s64[col:col + atoms])
                @ v64[col:col + atoms, :]
            ).astype(np.float32)
            total = block if total is None else total + block
            col += atoms
        return total.reshape(ctx.shape)
