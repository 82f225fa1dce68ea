"""GradiVeQ-style truncated-SVD compression (Yu et al., NeurIPS 2018).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  Deterministic rank-``r`` truncation of the
gradient matrix's SVD — the (m+L)r wire footprint of Table I's low-rank
row — with error feedback covering the truncated tail.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, Compressor, flatten_with_shape
from repro.core.compressors.powersgd import _GramSVD, _matrix_view


class GradiVeQCompressor(Compressor):
    """Deterministic truncated SVD (exact top-r subspace)."""

    name = "gradiveq"
    family = "low-rank"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"

    def __init__(self, rank: int = 2, min_compress_size: int = 1024,
                 seed: int = 0):
        super().__init__(seed=seed)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = int(rank)
        self.min_compress_size = int(min_compress_size)

    def _clone_args(self) -> dict:
        return {"rank": self.rank,
                "min_compress_size": self.min_compress_size}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        if flat.size < self.min_compress_size:
            return CompressedTensor(
                payload=[flat.astype(np.float32)],
                ctx=(shape, flat.size, False),
            )
        svd = _GramSVD(_matrix_view(flat, shape).astype(np.float64))
        u, sigma, vt = svd.triples(slice(0, self.rank))
        payload = [(u * sigma).astype(np.float32), vt.astype(np.float32)]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size, True))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size, was_compressed = compressed.ctx
        if not was_compressed:
            return compressed.payload[0].reshape(shape)
        u_sigma, vt = compressed.payload
        matrix = u_sigma.astype(np.float64) @ vt.astype(np.float64)
        return matrix.astype(np.float32).reshape(shape)
