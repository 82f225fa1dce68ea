"""Per-tensor NumPy calls, taken over the contiguous runs of one flat array.

A fused bucket holds many tensors back to back, and its kernels need the
norm, mean, quantiles or largest elements *of each tensor* — bitwise what
the per-tensor path computes, or fused and unfused training diverge.  A
floating-point sum depends on the order it is taken in, so the statistics
are not ``np.add.reduceat`` (a running sum): every run is reduced on its own
contiguous view by the reduction NumPy itself uses for ``np.sum`` /
``np.mean`` / ``np.std`` (``np.add.reduce``, pairwise), and only the
elementwise steps in between run once over the whole array.  Selection
breaks ties by the algorithm that makes it, so sorting and partitioning
stay one NumPy call per run as well — on a view, without the Python around
it that makes a per-tensor ``compress`` cost 100 µs.  Only what has one
answer whatever computes it is rebuilt to serve every run at once: the
interpolation inside ``np.quantile`` (145 µs a call) and the binary search
of ``np.searchsorted``.

Runs are given by ``ends``: run ``i`` is ``flat[ends[i-1]:ends[i]]`` (from 0
for the first).  An empty run has sum, mean, std, norm and quantiles 0.

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


def segment_sort(flat: np.ndarray, ends) -> np.ndarray:
    """A copy of ``flat`` with every run sorted as ``np.sort`` sorts it."""
    out = np.array(flat)
    for start, end in _runs(ends):
        if end - start > 1:
            out[start:end].sort()
    return out


def segment_quantiles(sorted_flat: np.ndarray, ends, q) -> np.ndarray:
    """``np.quantile(run, float(q))`` of every run, for every ``q``.

    ``sorted_flat`` holds each run in ascending order
    (:func:`segment_sort`); ``q`` is one grid shared by all runs, shape
    ``(m,)``, or one row per run, shape ``(runs, m)``; the result is
    ``(runs, m)`` in ``sorted_flat``'s own precision.  The arithmetic is
    ``np.quantile``'s default method taken literally — the virtual index
    ``(n - 1) * q``, its float64 fractional part, the two-sided ``_lerp``
    that switches formula at ``0.5``, NaN for a run that holds one — with
    the weight rounded to the data's precision first, as NumPy rounds a
    Python-float ``q`` against a float32 array.  Among three or more zeros
    of both signs the sign of a zero quantile follows the order the sort
    left them in, as in ``np.quantile`` it follows the partition.
    """
    dtype = sorted_flat.dtype
    ends = np.asarray(ends, dtype=np.int64)
    counts = _counts(ends)
    q = np.asarray(q, dtype=np.float64)
    q = np.broadcast_to(q, (counts.size, q.shape[-1]))
    if sorted_flat.size == 0:
        return np.zeros(q.shape, dtype=dtype)
    last = np.maximum(counts - 1, 0)[:, None]
    virtual = last * q
    top = virtual >= last
    # At the top of a run NumPy points both neighbours at index -1 and
    # takes the weight against that -1; it then meets a zero difference.
    previous = np.where(top, -1.0, np.floor(virtual))
    weight = virtual - previous
    low = np.where(top, last, previous.astype(np.int64))
    high = np.minimum(low + 1, last)
    # An empty run reads somewhere valid and is zeroed at the end.
    starts = np.minimum(ends - counts, sorted_flat.size - 1)[:, None]
    below = sorted_flat[starts + low]
    above = sorted_flat[starts + high]
    span = above - below
    out = np.where(
        weight >= 0.5,
        above - span * (1 - weight).astype(dtype),
        below + span * weight.astype(dtype),
    )
    tops = sorted_flat[starts + last]
    np.copyto(out, tops, where=np.isnan(tops))
    out[counts == 0] = 0
    return out


def segment_searchsorted(
    boundaries: np.ndarray, flat: np.ndarray, ends
) -> np.ndarray:
    """``np.searchsorted(boundaries[i], run_i, side="right")`` of every run:
    for each element, how many of its own run's boundaries it has reached.

    ``boundaries`` is ``(runs, m)``, every row ascending.  All elements
    bisect their own rows in step — ``log2(m)`` passes over ``flat``
    instead of one NumPy call per run, whose unsorted needles cost a
    mispredicted branch per level.  A NaN element gets code 0 where NumPy
    ranks it last; its tensor's quantiles, and so every value decoded from
    its codes, are NaN either way.
    """
    runs, m = boundaries.shape
    # Row r sits in slots r*width + 1 .. r*width + m; the NaN around it is
    # never reached, so a row needs no length check while it is bisected.
    width = 1 << m.bit_length()
    slots = np.full(
        (runs, width), np.nan, dtype=np.result_type(boundaries, flat)
    )
    slots[:, 1:m + 1] = boundaries
    slots = slots.ravel()
    values = flat.astype(slots.dtype, copy=False)
    codes = np.repeat(np.arange(runs) * width, _counts(ends))
    step = width >> 1
    while step:
        codes += step * (slots.take(codes + step) <= values)
        step >>= 1
    codes &= width - 1
    return codes


def segment_topk(magnitudes: np.ndarray, ends, ks) -> np.ndarray:
    """Positions in ``magnitudes`` of the ``ks[i]`` largest of every run.

    Run by run ``np.argpartition(run, run.size - k)[-k:]``, the call behind
    ``sparsify_topk`` and ``CountSketch.heavy_hitters``: which of several
    equal magnitudes at the ``k``-th place is taken is the partition's
    choice, and equal magnitudes are the rule in constant tensors and
    narrow sketches, so no sort key stands in for it.  Ascending; a run
    with ``k = 0`` gives nothing.
    """
    picked = [
        magnitudes[start:end].argpartition(end - start - k)[-k:] + start
        for (start, end), k in zip(_runs(ends), np.asarray(ks).tolist())
        if k
    ]
    if not picked:
        return np.zeros(0, dtype=np.int64)
    # Runs are disjoint and ascending: one sort orders each run's picks.
    return np.sort(np.concatenate(picked))
