"""Variance-based (importance) sparsification (Wangni et al., NeurIPS 2018).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  Each coordinate is kept with probability
``p_i = min(1, c·|g_i|)`` where ``c`` solves ``Σ p_i = k`` (water-filling),
and kept values are scaled by ``1/p_i`` — an unbiased sparsifier whose
variance is minimized for the given expected budget.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import desparsify, segment_counts, segment_sums
from repro.tensorlib.indices import index_dtype


def selection_probabilities(
    magnitudes: np.ndarray, budget: int, iterations: int = 20
) -> np.ndarray:
    """Water-filling probabilities with expected count ``budget``."""
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    d = magnitudes.size
    if d == 0:
        return magnitudes  # no coordinates: nothing to keep
    budget = min(max(budget, 1), d)
    total = magnitudes.sum()
    if total == 0:
        return np.full(d, budget / d)
    scale = budget / total
    probabilities = np.minimum(1.0, scale * magnitudes)
    for _ in range(iterations):
        saturated = probabilities >= 1.0
        remaining = budget - saturated.sum()
        free_mass = magnitudes[~saturated].sum()
        if remaining <= 0 or free_mass == 0:
            break
        probabilities = np.where(
            saturated, 1.0, np.minimum(1.0, remaining * magnitudes / free_mass)
        )
        if np.all((probabilities >= 1.0) == saturated):
            break
    return probabilities


def bucket_selection_probabilities(
    magnitudes: np.ndarray, bucket, budgets: np.ndarray, iterations: int = 20
) -> np.ndarray:
    """:func:`selection_probabilities` of every tensor of a bucket at once.

    The water level of each tensor is refitted on the whole flat bucket
    with one ``remaining`` and one ``free_mass`` per tensor, and a tensor
    leaves the iteration when its own loop would: out of budget or mass,
    or no coordinate newly saturated.  The free mass of a tensor is summed
    over its run of the gathered unsaturated magnitudes, the array
    ``magnitudes[~saturated].sum()`` reduces.
    """
    magnitudes = magnitudes.astype(np.float64)
    expand, ends = bucket.expand, bucket.ends
    totals = segment_sums(magnitudes, ends)
    refitting = totals != 0
    probabilities = np.where(
        expand(refitting),
        np.minimum(
            1.0, expand(budgets / np.where(refitting, totals, 1.0)) * magnitudes
        ),
        expand(budgets / np.maximum(bucket.sizes, 1)),
    )
    for _ in range(iterations):
        if not refitting.any():
            break
        saturated = probabilities >= 1.0
        n_saturated = segment_counts(saturated, ends)
        remaining = budgets - n_saturated
        free = magnitudes[~saturated] if n_saturated.any() else magnitudes
        free_mass = segment_sums(free, ends - np.cumsum(n_saturated))
        refitting &= (remaining > 0) & (free_mass != 0)
        refit = np.minimum(
            1.0,
            expand(remaining) * magnitudes
            / expand(np.where(refitting, free_mass, 1.0)),
        )
        probabilities = np.where(
            expand(refitting) & ~saturated, refit, probabilities
        )
        newly = (probabilities >= 1.0) != saturated
        refitting &= segment_counts(newly, ends) > 0
    return probabilities


class VarianceSparsifier(KernelCompressor):
    """Unbiased importance sampling of gradient coordinates."""

    name = "variance"
    family = "sparsification"
    stochastic = True
    communication = "allgather"
    default_memory = "none"

    def __init__(self, ratio: float = 0.01, seed: int = 0):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)

    def _clone_args(self) -> dict:
        return {"ratio": self.ratio}

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Whole-bucket water-filling, then one keep draw over the bucket.

        A tensor draws one uniform per coordinate whatever the data, so a
        single ``numel``-sized draw is the tensors' draws end to end.
        Indices count from the start of the bucket, at the width its
        ``numel`` needs (:meth:`index_extents`).
        """
        probabilities = bucket_selection_probabilities(
            np.abs(buffer), bucket, bucket.ratio_counts(self.ratio)
        )
        keep = self._rng.random(size=bucket.numel) < probabilities
        indices = np.flatnonzero(keep)
        values = buffer[indices] / probabilities[indices].astype(np.float32)
        return CompressedTensor(
            payload=[
                values.astype(np.float32),
                indices.astype(index_dtype(bucket.numel)),
            ],
            ctx=FusedBucketCtx(bucket),
        )

    def index_extents(self, bucket) -> dict[int, int]:
        """Positions count from the start of the bucket."""
        return {1: bucket.numel}

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        values, indices = payload
        return desparsify(values, indices.astype(np.int64), bucket.numel)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire; positions in the bucket for a fused
        payload."""
        return compressed.payload[1].astype(np.int64)
