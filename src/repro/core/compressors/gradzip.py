"""GradZip (Cho et al., NeurIPS 2019 workshop).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  Low-rank factorization ``M ≈ P Rᵀ`` fit by a
few alternating-least-squares steps with a Frobenius regularizer
``λ(‖P‖²_F + ‖R‖²_F)`` — the alternating-direction scheme the paper
describes — warm-started from the previous iteration's factors, with
error feedback on by default (the factorization is biased).
"""

from __future__ import annotations

import numpy as np

from repro.core.compressors.powersgd import LowRankCompressor
from repro.core.rng import name_seed


class GradZipCompressor(LowRankCompressor):
    """Regularized alternating-least-squares low-rank factorization."""

    name = "gradzip"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    ATOM_AXES = (1, 1)  # P m×r, R L×r

    def __init__(
        self,
        rank: int = 1,
        als_iterations: int = 2,
        regularization: float = 1e-6,
        min_compress_size: int = 1024,
        seed: int = 0,
    ):
        super().__init__(min_compress_size, seed)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if als_iterations < 1:
            raise ValueError("als_iterations must be >= 1")
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.rank = int(rank)
        self.als_iterations = int(als_iterations)
        self.regularization = float(regularization)
        self._r_memory: dict[str, np.ndarray] = {}

    def _clone_args(self) -> dict:
        return {
            "rank": self.rank,
            "als_iterations": self.als_iterations,
            "regularization": self.regularization,
            "min_compress_size": self.min_compress_size,
        }

    def _factors(self, matrix: np.ndarray, name: str) -> list[np.ndarray]:
        """ALS steps from the tensor's warm-started R."""
        matrix = matrix.astype(np.float64)
        m, length = matrix.shape
        rank = min(self.rank, m, length)
        r_factor = self._r_memory.get(name)
        if r_factor is None or r_factor.shape != (length, rank):
            start_rng = np.random.default_rng(name_seed(name))
            r_factor = start_rng.standard_normal((length, rank))
        eye = self.regularization * np.eye(rank)
        p_factor = np.zeros((m, rank))
        for _ in range(self.als_iterations):
            # P-step: min ||M - P R^T||^2 + lambda ||P||^2.
            p_factor = matrix @ r_factor @ np.linalg.inv(
                r_factor.T @ r_factor + eye
            )
            # R-step: symmetric update.
            r_factor = matrix.T @ p_factor @ np.linalg.inv(
                p_factor.T @ p_factor + eye
            )
        self._r_memory[name] = r_factor
        return [p_factor.astype(np.float32), r_factor.astype(np.float32)]

    def _product(self, factors: list[np.ndarray]) -> np.ndarray:
        p_factor, r_factor = factors
        return p_factor @ r_factor.T
