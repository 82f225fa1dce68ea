"""Gradient fusion: tensor-fusion buckets and reusable scratch buffers.

Horovod hides per-message launch and latency overheads behind a *fusion
buffer*: many small gradient tensors are packed into one flat buffer and
moved with a single collective.  GRACE's evaluation (§V) shows exactly
why that matters — for small tensors and slow links the per-message α
term and the per-call kernel overhead dominate wall time, so cost scales
with *layer count* instead of *byte volume*.

This module provides the packing layer:

* :class:`FusionPlan` — packs an ordered set of named gradient tensors
  into size-bounded :class:`FusionBucket`\\ s (default ~64 MB).  Packing
  is greedy in declaration order, so bucket contents are deterministic
  and a rank's random stream is consumed in the same tensor order as the
  per-tensor path (the seeded-parity guarantee).
* :class:`FusionBucket` / :class:`BucketSegment` — the flat layout of
  one bucket: per-tensor element offsets, sizes and original shapes.
  A single tensor is a one-segment bucket (:func:`tensor_bucket`), which
  is how the trainer and the built-in compressors' per-tensor API run
  every unit through the same kernel.
* :class:`ScratchPool` — keyed, reusable float32 flat buffers so the
  trainer's hot loop stops allocating a fresh flat array per (rank,
  bucket, iteration).

The compressor side of fusion (``compress_fused`` / ``decompress_fused``)
lives on :class:`repro.core.api.Compressor`; the collective side (one
``allreduce``/``allgather`` per bucket) on
:class:`repro.comm.collectives.Communicator` and the trainer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: Default fusion-buffer budget, matching Horovod's 64 MB default.
DEFAULT_FUSION_MB = 64.0

_FLOAT32_NBYTES = 4


@dataclass(frozen=True)
class BucketSegment:
    """One tensor's slice of a flat fusion bucket."""

    name: str
    shape: tuple[int, ...]
    offset: int  # element offset into the bucket's flat buffer
    size: int  # element count

    @property
    def end(self) -> int:
        """One past the last element of this segment."""
        return self.offset + self.size


class FusionBucket:
    """A size-bounded group of tensors moved as one flat buffer.

    Besides the segment layout (``sizes``, ``offsets``, ``ends``, and
    ``largest``, the size of the largest segment), the bucket offers the
    segment operations nearly every kernel is built from:
    :meth:`segment_max`, :meth:`expand` and :meth:`expand_at`.  It keeps
    no per-element array: a run that does not fuse holds one bucket per
    tensor for its whole life.  (Sums, means, norms and deviations per
    segment depend on summation order: :mod:`repro.tensorlib.segments`,
    over ``ends``.)
    """

    def __init__(self, index: int, segments: tuple[BucketSegment, ...]):
        if not segments:
            raise ValueError("a fusion bucket needs at least one segment")
        self.index = int(index)
        self.segments = segments
        self.names = tuple(seg.name for seg in segments)
        self.numel = int(sum(seg.size for seg in segments))
        self.sizes = np.array([seg.size for seg in segments], dtype=np.int64)
        self.offsets = np.array(
            [seg.offset for seg in segments], dtype=np.int64
        )
        self.ends = self.offsets + self.sizes
        self.largest = int(self.sizes.max())
        # reduceat reads one element even for an empty range: reduce over
        # the non-empty segments only (None when there is nothing to skip).
        self._nonempty = (
            None if np.all(self.sizes > 0) else np.flatnonzero(self.sizes)
        )
        # A layout is shared (``tensor_bucket`` hands one to every caller).
        for layout in (self.sizes, self.offsets, self.ends):
            layout.setflags(write=False)
        self._ratio_counts: dict[float, np.ndarray] = {}
        # What unpack slices, once: it runs for every unit of every step.
        self._slices = tuple(
            (seg.name, seg.offset, seg.end, seg.shape) for seg in segments
        )

    @property
    def nbytes(self) -> int:
        """Flat float32 footprint of the bucket."""
        return self.numel * _FLOAT32_NBYTES

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the bucket as one array: its tensor's own when the
        bucket is one tensor, else flat."""
        if len(self.segments) == 1:
            return self.segments[0].shape
        return (self.numel,)

    def segment_max(self, flat: np.ndarray) -> np.ndarray:
        """Per-segment maximum of ``flat``; zero for an empty segment.

        A maximum does not depend on the order it is taken in, so one
        ``reduceat`` is bitwise the per-tensor ``np.max`` — which sums,
        means and norms are not (:mod:`repro.tensorlib.segments`).
        """
        if self._nonempty is None:
            return np.maximum.reduceat(flat, self.offsets)
        out = np.zeros(len(self.segments), dtype=flat.dtype)
        out[self._nonempty] = np.maximum.reduceat(
            flat, self.offsets[self._nonempty]
        )
        return out

    def expand(self, per_segment: np.ndarray) -> np.ndarray:
        """One value per segment, repeated for each of its elements.

        A one-segment bucket gets its value as a scalar, which broadcasts
        like the repetition and costs what a tensor's own scalar costs.
        """
        if len(self.segments) == 1:
            return per_segment[0]
        return np.repeat(per_segment, self.sizes)

    def expand_at(
        self, per_segment: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """``expand(per_segment)[positions]`` for ascending ``positions``,
        without expanding over the whole bucket."""
        if len(self.segments) == 1:
            return per_segment[0]
        counts = np.diff(np.searchsorted(positions, self.ends), prepend=0)
        return np.repeat(per_segment, counts)

    def ratio_counts(self, ratio: float) -> np.ndarray:
        """``max(1, ceil(ratio · size))`` of every segment, capped at its
        size: how many elements a sparsifier keeps of each tensor (none of
        an empty one).  Computed once per ratio, and read-only."""
        counts = self._ratio_counts.get(ratio)
        if counts is None:
            counts = np.minimum(
                self.sizes,
                np.maximum(1, np.ceil(ratio * self.sizes).astype(np.int64)),
            )
            counts.setflags(write=False)
            self._ratio_counts[ratio] = counts
        return counts

    def pack(self, arrays: dict[str, np.ndarray], out: np.ndarray) -> np.ndarray:
        """Copy the named tensors into ``out`` (flat float32) in layout order."""
        return np.concatenate(
            [arrays[name] for name in self.names], axis=None, out=out
        )

    def unpack(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Split a flat bucket array back into per-tensor shaped views."""
        return {
            name: flat[start:end].reshape(shape)
            for name, start, end, shape in self._slices
        }

    def __len__(self) -> int:
        return len(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FusionBucket(index={self.index}, tensors={len(self)}, "
                f"numel={self.numel})")


@functools.lru_cache(maxsize=1024)
def tensor_bucket(name: str, shape: tuple[int, ...]) -> FusionBucket:
    """The one-segment bucket that stands for the tensor ``name``.

    A bucket is an immutable layout, so the recent ones are kept: a
    built-in's per-tensor ``compress`` does no layout work for a tensor it
    has seen.
    """
    shape = tuple(int(d) for d in shape)
    size = int(np.prod(shape, dtype=np.int64)) if shape else 1
    return FusionBucket(0, (BucketSegment(name, shape, 0, size),))


class FusionPlan:
    """Greedy, order-preserving packing of tensors into fusion buckets.

    Tensors are taken in the order given and appended to the current
    bucket until adding the next one would exceed ``max_bytes``; a tensor
    larger than the budget on its own gets a dedicated bucket, so
    ``max_bytes=1`` is one bucket per tensor.  Order
    preservation matters twice: gradients keep the backward-pass layout
    the per-tensor path uses, and stochastic compressors consume their
    random streams in the identical tensor order.
    """

    def __init__(
        self,
        shapes: list[tuple[str, tuple[int, ...]]],
        max_bytes: int,
    ):
        if max_bytes <= 0:
            raise ValueError(
                f"max_bytes must be positive, got {max_bytes}; "
                "disable fusion with fusion_mb=0 instead"
            )
        if not shapes:
            raise ValueError("cannot build a fusion plan over zero tensors")
        self.max_bytes = int(max_bytes)
        #: The layout, in plan order: tensor names and their shapes.
        self.names = tuple(name for name, _ in shapes)
        self.shapes = [tuple(int(d) for d in shape) for _, shape in shapes]
        self.buckets: list[FusionBucket] = []
        current: list[BucketSegment] = []
        current_bytes = 0
        offset = 0
        for name, shape in zip(self.names, self.shapes):
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            # An empty tensor is budgeted as one element, so a one-byte
            # budget gives every tensor a bucket of its own.
            nbytes = max(size, 1) * _FLOAT32_NBYTES
            if current and current_bytes + nbytes > self.max_bytes:
                self.buckets.append(
                    FusionBucket(len(self.buckets), tuple(current))
                )
                current, current_bytes, offset = [], 0, 0
            current.append(BucketSegment(name, tuple(shape), offset, size))
            current_bytes += nbytes
            offset += size
        self.buckets.append(FusionBucket(len(self.buckets), tuple(current)))

    @classmethod
    def from_gradients(
        cls, gradients: dict[str, np.ndarray], max_bytes: int
    ) -> "FusionPlan":
        """Build a plan from one iteration's gradient dict."""
        return cls(
            [(name, np.asarray(g).shape) for name, g in gradients.items()],
            max_bytes,
        )

    def matches(self, gradients: dict[str, np.ndarray]) -> bool:
        """True when ``gradients`` has the layout this plan was built for."""
        if len(gradients) != len(self.names):
            return False
        return all(
            name in gradients and np.asarray(gradients[name]).shape == shape
            for name, shape in zip(self.names, self.shapes)
        )

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FusionPlan(buckets={self.num_buckets}, "
                f"max_bytes={self.max_bytes})")


class ScratchPool:
    """Keyed pool of reusable flat float32 buffers.

    ``take(key, numel)`` returns the cached buffer for ``key`` when its
    size still matches, else (re)allocates.  Contents are *not* cleared:
    callers fully overwrite the buffer (``FusionBucket.pack`` writes
    every element), which is what makes reuse free.

    Pools are **owned**: each simulated rank gets its own pool (plus one
    aggregation-side pool shared by the decode path), declared via
    ``owner``.  Buffers are process-local mutable state, so nothing may
    hand a reference into a pool buffer across rank boundaries — the
    real-parallel backend runs each rank in its own OS process, where a
    leaked scratch reference would silently read another iteration's
    bytes.  :class:`repro.core.contract.ContractChecker` enforces the
    compressor side of this (payloads must not alias the scratch input).
    """

    def __init__(self, owner: object = None):
        self.owner = owner  # rank index, "aggregate", or None (untagged)
        self._buffers: dict[object, np.ndarray] = {}
        self.allocations = 0  # diagnosed by tests and telemetry

    def take(self, key: object, numel: int) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size != numel:
            buffer = np.empty(numel, dtype=np.float32)
            self._buffers[key] = buffer
            self.allocations += 1
        return buffer

    def clear(self) -> None:
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ScratchPool(owner={self.owner!r}, "
                f"buffers={len(self._buffers)})")
