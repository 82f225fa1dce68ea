"""GradiVeQ-style truncated-SVD compression (Yu et al., NeurIPS 2018).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  Deterministic rank-``r`` truncation of the
gradient matrix's SVD — the (m+L)r wire footprint of Table I's low-rank
row — with error feedback covering the truncated tail.
"""

from __future__ import annotations

import numpy as np

from repro.core.compressors.powersgd import LowRankCompressor, _GramSVD


class GradiVeQCompressor(LowRankCompressor):
    """Deterministic truncated SVD (exact top-r subspace)."""

    name = "gradiveq"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    ATOM_AXES = (1, 0)  # Uσ m×r, Vᵀ r×L

    def __init__(self, rank: int = 2, min_compress_size: int = 1024,
                 seed: int = 0):
        super().__init__(min_compress_size, seed)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = int(rank)

    def _clone_args(self) -> dict:
        return {"rank": self.rank,
                "min_compress_size": self.min_compress_size}

    def _factors(self, matrix: np.ndarray, name: str) -> list[np.ndarray]:
        """The top ``rank`` singular triples, σ folded into U."""
        svd = _GramSVD(matrix.astype(np.float64))
        u, sigma, vt = svd.triples(slice(0, self.rank))
        return [(u * sigma).astype(np.float32), vt.astype(np.float32)]

    def _product(self, factors: list[np.ndarray]) -> np.ndarray:
        u_sigma, vt = factors
        return u_sigma @ vt
