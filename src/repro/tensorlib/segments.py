"""Order-sensitive statistics of the contiguous runs of one flat array.

A fused bucket holds many tensors back to back, and its kernels need the
norm, mean or standard deviation *of each tensor* — bitwise the number the
per-tensor path computes, or fused and unfused training diverge.  A
floating-point sum depends on the order it is taken in, so these are not
``np.add.reduceat`` (a running sum): every run is reduced on its own
contiguous view by the reduction NumPy itself uses for ``np.sum`` /
``np.mean`` / ``np.std`` (``np.add.reduce``, pairwise), and only the
elementwise steps in between run once over the whole array.

Runs are given by ``ends``: run ``i`` is ``flat[ends[i-1]:ends[i]]`` (from 0
for the first).  An empty run has sum, mean, std and norm 0.

``tests/tensorlib/test_segments.py`` holds each function to the NumPy call
it stands for, bit for bit.
"""

from __future__ import annotations

import numpy as np


def _runs(ends) -> list[tuple[int, int]]:
    ends = np.asarray(ends).tolist()
    return list(zip([0] + ends[:-1], ends))


def _counts(ends) -> np.ndarray:
    return np.diff(np.asarray(ends, dtype=np.int64), prepend=0)


def segment_sums(flat: np.ndarray, ends) -> np.ndarray:
    """``np.sum`` of every run, in ``flat``'s own precision."""
    return np.array(
        [np.add.reduce(flat[start:end]) for start, end in _runs(ends)],
        dtype=flat.dtype,
    )


def segment_norms(flat: np.ndarray, ends) -> np.ndarray:
    """``np.linalg.norm`` of every run, as float32."""
    return np.array(
        [np.linalg.norm(flat[start:end]) for start, end in _runs(ends)],
        dtype=np.float32,
    )


def _mean_of_sums(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # np.mean and np.std divide a float32 sum by an integer count in
    # float64 and round the quotient back.
    safe = np.maximum(counts, 1)
    return (sums.astype(np.float64) / safe).astype(sums.dtype)


def segment_means(flat: np.ndarray, ends) -> np.ndarray:
    """``np.mean`` of every run of a float32 array."""
    return _mean_of_sums(segment_sums(flat, ends), _counts(ends))


def segment_stds(flat: np.ndarray, ends) -> np.ndarray:
    """``np.std`` of every run of a float32 array."""
    counts = _counts(ends)
    means = _mean_of_sums(segment_sums(flat, ends), counts)
    deviation = flat - np.repeat(means, counts)
    np.square(deviation, out=deviation)
    return np.sqrt(_mean_of_sums(segment_sums(deviation, ends), counts))
