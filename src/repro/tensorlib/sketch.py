"""Sketch data structures.

``CountSketch`` supports heavy-hitter recovery (the mechanism behind
Sketched-SGD) and ``QuantileSketch`` is the non-uniform quantile summary
that SketchML builds its bucket codebook from (Greenwald-Khanna style,
approximated here with a bounded merge-and-prune summary).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

_HASH_CACHE_BYTES = 64 << 20


class HashTableCache:
    """Least-recently-used memo of count-sketch hash functions, bounded in bytes.

    The hash functions of a sketch are a pure function of ``(seed, depth,
    width, universe)`` — Sketched-SGD treats them as a protocol constant —
    so every sketch with equal parameters can share one read-only copy.
    The bound is on bytes, not entries: a training step touches one
    universe per tensor (hundreds of small ones, or a few of a million
    elements), and only a byte budget holds both shapes of working set.
    Thread-safe.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = int(max_bytes)
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, seed: int, depth: int, width: int, universe: int):
        """``(buckets int32, signs int8)``, each ``(depth, universe)``."""
        return self._memo(
            (seed, depth, width, universe),
            lambda: _draw_hash_tables(seed, depth, width, universe),
        )

    def get_side_by_side(
        self, seed: int, depth: int, widths: tuple, universes: tuple
    ):
        """The functions of several sketches as those of one wide sketch.

        ``(buckets, signs)``, each ``(depth, sum(universes))``: sketch ``i``
        keeps the functions ``get(seed, depth, widths[i], universes[i])``
        draws for it, its elements following those of the sketches before
        it and its bucket numbers shifted past their ``widths``.  One
        sketch is its own functions: no second copy is cached.
        """
        if len(widths) == 1:
            return self.get(seed, depth, widths[0], universes[0])

        def side_by_side():
            parts = [
                self.get(seed, depth, width, universe)
                for width, universe in zip(widths, universes)
            ]
            shifts = np.cumsum((0,) + widths[:-1])
            buckets = np.concatenate(
                [part[0] + shift for part, shift in zip(parts, shifts)],
                axis=1,
            ).astype(np.int32)
            signs = np.concatenate([part[1] for part in parts], axis=1)
            buckets.setflags(write=False)
            signs.setflags(write=False)
            return buckets, signs

        return self._memo((seed, depth, widths, universes), side_by_side)

    def _memo(self, key: tuple, draw):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        entry = draw()
        size = entry[0].nbytes + entry[1].nbytes
        with self._lock:
            if size <= self.max_bytes and key not in self._entries:
                self._entries[key] = entry
                self.nbytes += size
                while self.nbytes > self.max_bytes:
                    _, (buckets, signs) = self._entries.popitem(last=False)
                    self.nbytes -= buckets.nbytes + signs.nbytes
        return entry

    def __len__(self) -> int:
        return len(self._entries)


def _draw_hash_tables(seed: int, depth: int, width: int, universe: int):
    """Bucket assignment and sign per row: fixed random hash functions.

    Drawn at the generator's native widths (the stream, and so the
    functions, must not change) and kept narrow: 5 instead of 16 bytes
    per element and row.
    """
    rng = np.random.default_rng(seed)
    buckets = rng.integers(0, width, size=(depth, universe)).astype(np.int32)
    signs = rng.choice(np.array([-1.0, 1.0]), size=(depth, universe)).astype(
        np.int8
    )
    buckets.setflags(write=False)
    signs.setflags(write=False)
    return buckets, signs


_HASH_TABLES = HashTableCache(_HASH_CACHE_BYTES)


def _median_of_rows(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=0)`` up to the sign of a zero; ``rows`` is scratch.

    The median is an order statistic: a partial selection sort of the
    ``depth`` rows by elementwise compare-exchange leaves the ``i``-th
    smallest value of every column in row ``i``, without the per-column
    partition ``np.median`` pays for.  NaNs poison their column, as there.
    """
    depth = rows.shape[0]
    rows = list(rows)
    spare = np.empty_like(rows[0])
    middle = depth // 2
    for i in range(middle + 1):
        for j in range(i + 1, depth):
            np.minimum(rows[i], rows[j], out=spare)
            np.maximum(rows[i], rows[j], out=rows[j])
            rows[i], spare = spare, rows[i]
    if depth % 2:
        return rows[middle]
    return (rows[middle - 1] + rows[middle]) / 2.0


class CountSketch:
    """A count-sketch over a fixed index universe.

    Parameters
    ----------
    width:
        Number of buckets per row; larger width lowers collision noise.
    depth:
        Number of independent rows; the median over rows rejects outliers.
    universe:
        Size of the index domain being sketched.
    seed:
        Seed for the (fixed) hash functions.
    """

    def __init__(self, width: int, depth: int, universe: int, seed: int = 0):
        if width < 1 or depth < 1 or universe < 1:
            raise ValueError("width, depth and universe must all be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.universe = int(universe)
        self._buckets, self._signs = _HASH_TABLES.get(
            int(seed), self.depth, self.width, self.universe
        )
        self.table = np.zeros((depth, width), dtype=np.float64)

    @classmethod
    def side_by_side(
        cls, widths, depth: int, universes, seed: int = 0, table=None
    ) -> "CountSketch":
        """The sketches of several tensors as one sketch of their concatenation.

        Tensor ``i`` hashes with the functions of a lone ``CountSketch(
        widths[i], depth, universes[i], seed)`` into its own ``widths[i]``
        columns of one ``(depth, sum(widths))`` table, so every cell takes
        the addends it takes there, in the same order, and an update or a
        query of the whole bucket is one pass per row.  Only
        :meth:`heavy_hitters` has no meaning across tensors: rank
        :meth:`magnitudes` tensor by tensor instead.  ``table`` given, its
        state is that received table.
        """
        widths, universes = tuple(widths), tuple(universes)
        sketch = cls.__new__(cls)
        sketch.width = int(sum(widths))
        sketch.depth = int(depth)
        sketch.universe = int(sum(universes))
        sketch._buckets, sketch._signs = _HASH_TABLES.get_side_by_side(
            int(seed), sketch.depth, widths, universes
        )
        sketch.table = np.zeros((sketch.depth, sketch.width), dtype=np.float64)
        if table is not None:
            sketch.table[...] = table
        return sketch

    def update(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Add ``values`` at ``indices`` into the sketch."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must have the same shape")
        if indices.size and (indices.max() >= self.universe or indices.min() < 0):
            raise ValueError("index outside sketch universe")
        for row in range(self.depth):
            np.add.at(
                self.table[row],
                self._buckets[row].take(indices),
                self._signs[row].take(indices) * values,
            )

    def update_dense(self, values: np.ndarray) -> None:
        """Add ``values[i]`` at every index ``i`` of the universe."""
        values = np.ravel(values)
        if values.size != self.universe:
            raise ValueError("a dense update covers the whole universe")
        signed = np.empty(self.universe, dtype=np.float64)
        for row in range(self.depth):
            np.multiply(self._signs[row], values, out=signed)
            np.add.at(self.table[row], self._buckets[row], signed)

    def query(self, indices: np.ndarray) -> np.ndarray:
        """Estimate the values at ``indices`` (median over rows)."""
        indices = np.asarray(indices, dtype=np.int64)
        estimates = np.empty((self.depth, indices.size), dtype=np.float64)
        for row in range(self.depth):
            estimates[row] = self._signs[row].take(indices) * self.table[
                row
            ].take(self._buckets[row].take(indices))
        median = _median_of_rows(estimates.copy())
        # -0.0 and +0.0 compare equal: which of them np.median returns is
        # decided by its partition, not by order, so ask it for those.
        zero = np.flatnonzero(median == 0)
        if zero.size:
            median[zero] = np.median(estimates[:, zero], axis=0)
        return median

    def _query_all(self) -> np.ndarray:
        """``query(arange(universe))`` up to the sign of a zero, without
        gathering the hash rows."""
        estimates = np.empty((self.depth, self.universe), dtype=np.float64)
        for row in range(self.depth):
            # The buckets are in range by construction: no bounds pass.
            self.table[row].take(
                self._buckets[row], out=estimates[row], mode="clip"
            )
            estimates[row] *= self._signs[row]
        return _median_of_rows(estimates)

    def magnitudes(self) -> np.ndarray:
        """``|query(i)|`` of every index: what :meth:`heavy_hitters` ranks."""
        return np.abs(self._query_all())

    def heavy_hitters(self, k: int) -> np.ndarray:
        """Return the ``k`` indices with the largest estimated magnitude."""
        estimates = self.magnitudes()
        k = int(min(max(k, 1), self.universe))
        idx = np.argpartition(estimates, self.universe - k)[-k:]
        return np.sort(idx)

    def merge(self, other: "CountSketch") -> None:
        """Merge another sketch built with identical parameters and seed."""
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.universe != other.universe
        ):
            raise ValueError("cannot merge sketches with different shapes")
        self.table += other.table

    @property
    def nbytes(self) -> int:
        """On-wire size of the sketch table (float32 per cell)."""
        return self.depth * self.width * 4


_GRID_CELLS = 1 << 16


def _searchsorted_right(boundaries: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(boundaries, values, side="right")`` for many values.

    A binary search per value mispredicts a branch per level.  Instead the
    values are dropped on a uniform grid over the boundaries' range: the
    cell of a value is a monotone function of it, so every value in a cell
    below (above) a boundary's own cell is below (not below) that boundary,
    and a table by cell answers all of them at once.  Only the values that
    share a cell with a boundary are searched one by one.
    """
    if values.size < _GRID_CELLS:  # the table would cost more than it saves
        return np.searchsorted(boundaries, values, side="right")
    if values.dtype not in (np.float32, np.float64):
        values = values.astype(np.float64)
    dtype = values.dtype
    # v >= b  <=>  v >= the smallest number of v's own precision that is >= b
    ceilings = boundaries.astype(dtype)
    short = ceilings < boundaries
    ceilings[short] = np.nextafter(ceilings[short], dtype.type(np.inf))
    low, high = ceilings[0], ceilings[-1]
    if not (high > low and np.isfinite(high - low)):
        return np.searchsorted(boundaries, values, side="right")
    per_unit = dtype.type((_GRID_CELLS - 1) / (high - low))

    def cell(numbers: np.ndarray) -> np.ndarray:
        scaled = numbers - low
        scaled *= per_unit
        np.fmax(scaled, 0, out=scaled)
        np.fmin(scaled, _GRID_CELLS - 1, out=scaled)
        return scaled.astype(np.intp)

    owners = cell(ceilings)
    per_cell = np.bincount(owners, minlength=_GRID_CELLS)
    below = np.cumsum(per_cell)
    below -= per_cell  # boundaries in strictly lower cells
    below[owners] = -1  # a boundary's own cell: decided by comparison
    codes = below.take(cell(values))
    unsure = np.flatnonzero(codes < 0)
    codes[unsure] = np.searchsorted(boundaries, values[unsure], side="right")
    return codes


class QuantileSketch:
    """Bounded-size quantile summary for non-uniform bucketization.

    SketchML maps each gradient value to the index of its quantile bucket;
    the receiver decodes a bucket index to the bucket's representative
    value.  We keep a sorted reservoir of at most ``max_size`` samples
    (merge-and-prune), which gives the same bucket semantics as a
    Greenwald-Khanna summary at the scales this simulator runs at.
    """

    def __init__(self, num_buckets: int, max_size: int = 4096):
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self.max_size = int(max_size)
        self._samples = np.empty(0, dtype=np.float64)

    def insert(self, values: np.ndarray) -> None:
        """Fold a batch of values into the summary, pruning to max_size."""
        merged = np.sort(
            np.concatenate([self._samples, np.ravel(values).astype(np.float64)])
        )
        if merged.size > self.max_size:
            # Keep evenly spaced order statistics: preserves quantiles.
            keep = np.linspace(0, merged.size - 1, self.max_size).astype(np.int64)
            merged = merged[keep]
        self._samples = merged

    @staticmethod
    def grids(num_buckets: int) -> tuple[np.ndarray, np.ndarray]:
        """The quantiles the ``num_buckets - 1`` bucket boundaries and the
        ``num_buckets`` bucket representatives (the centres) sit at."""
        edges = np.linspace(0, 1, num_buckets + 1)
        return edges[1:-1], edges[:-1] + 0.5 / num_buckets

    def boundaries(self) -> np.ndarray:
        """Bucket boundary values (length ``num_buckets - 1``)."""
        if self._samples.size == 0:
            raise ValueError("sketch is empty")
        return np.quantile(self._samples, self.grids(self.num_buckets)[0])

    def representatives(self) -> np.ndarray:
        """Representative (median) value of each bucket."""
        if self._samples.size == 0:
            raise ValueError("sketch is empty")
        return np.quantile(self._samples, self.grids(self.num_buckets)[1])

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Map values to bucket indices in ``[0, num_buckets)``."""
        return _searchsorted_right(self.boundaries(), np.ravel(values))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Map bucket indices back to representative values."""
        reps = self.representatives()
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.max() >= self.num_buckets or codes.min() < 0):
            raise ValueError("bucket code out of range")
        return reps[codes]
