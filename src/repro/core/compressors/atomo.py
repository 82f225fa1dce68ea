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

from repro.core.compressors.powersgd import LowRankCompressor, _GramSVD
from repro.core.compressors.variance import selection_probabilities


class AtomoCompressor(LowRankCompressor):
    """Unbiased spectral sampling with a sparsity budget.

    A bucket's segments draw in segment order.  The kept-atom count of a
    segment depends on its draw and travels only as its parts' shapes;
    the sum of sampled atomic decompositions is itself one (U gains
    columns, σ concatenates, Vᵀ gains rows), so aggregation is exact.
    """

    name = "atomo"
    stochastic = True
    communication = "allgather"
    default_memory = "none"
    aggregation = "exact-linear"
    ATOM_AXES = (1, 0, 0)  # U m×k, σ k, Vᵀ k×L

    def __init__(self, budget: int = 2, min_compress_size: int = 1024,
                 seed: int = 0):
        super().__init__(min_compress_size, seed)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = int(budget)

    def _clone_args(self) -> dict:
        return {
            "budget": self.budget,
            "min_compress_size": self.min_compress_size,
        }

    def _factors(self, matrix: np.ndarray, name: str) -> list[np.ndarray]:
        """The drawn atoms, each scaled by the inverse of its probability."""
        svd = _GramSVD(matrix.astype(np.float64))
        probabilities = selection_probabilities(svd.sigma, self.budget)
        # No atom drawn sends none (U m×0, σ 0, Vᵀ 0×L): falling back on
        # the top atom, scaled by 1/p₀, would bias the estimator.
        keep = np.flatnonzero(
            self._rng.random(size=svd.sigma.size) < probabilities
        )
        u, sigma, vt = svd.triples(keep)
        return [
            u.astype(np.float32),
            (sigma / probabilities[keep]).astype(np.float32),
            vt.astype(np.float32),
        ]

    def _product(self, factors: list[np.ndarray]) -> np.ndarray:
        u, sigma, vt = factors
        return (u * sigma) @ vt
