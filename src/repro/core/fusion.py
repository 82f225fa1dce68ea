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
  one bucket: per-tensor element offsets, sizes and original shapes,
  plus cached index arrays the batched compressor kernels reuse every
  iteration.
* :class:`ScratchPool` — keyed, reusable float32 flat buffers so the
  trainer's hot loop stops allocating a fresh flat array per (rank,
  bucket, iteration).

The compressor side of fusion (``compress_fused`` / ``decompress_fused``)
lives on :class:`repro.core.api.Compressor`; the collective side (one
``allreduce``/``allgather`` per bucket) on
:class:`repro.comm.collectives.Communicator` and the trainer.
"""

from __future__ import annotations

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

    Besides the segment layout, the bucket caches the index arrays the
    batched compressor kernels need (`sizes`, `offsets`,
    `segment_ids`, `positions_within`), so per-iteration kernel calls
    perform no layout recomputation, and offers the two segment
    operations nearly every kernel is built from: :meth:`segment_max`
    and :meth:`expand`.  (Sums, means, norms and deviations per segment
    depend on summation order: :mod:`repro.tensorlib.segments`, over
    ``ends``.)
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
        # reduceat reads one element even for an empty range: reduce over
        # the non-empty segments only (None when there is nothing to skip).
        self._nonempty = (
            None if np.all(self.sizes > 0) else np.flatnonzero(self.sizes)
        )
        self._segment_ids: np.ndarray | None = None
        self._segment_keys: np.ndarray | None = None
        self._positions_within: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        """Flat float32 footprint of the bucket."""
        return self.numel * _FLOAT32_NBYTES

    @property
    def segment_ids(self) -> np.ndarray:
        """Per-element segment index (cached; used by batched kernels)."""
        if self._segment_ids is None:
            self._segment_ids = np.repeat(
                np.arange(len(self.segments), dtype=np.int64), self.sizes
            )
        return self._segment_ids

    @property
    def segment_keys(self) -> np.ndarray:
        """Per-element segment index shifted into the high 32 key bits.

        Cached base for single-sort grouped kernels: OR-ing a 32-bit
        per-element subkey into the low bits yields one uint64 key whose
        sort order is (segment ascending, subkey ascending).
        """
        if self._segment_keys is None:
            self._segment_keys = self.segment_ids.astype(np.uint64) << 32
        return self._segment_keys

    @property
    def positions_within(self) -> np.ndarray:
        """Per-element offset inside its own segment (cached)."""
        if self._positions_within is None:
            self._positions_within = (
                np.arange(self.numel, dtype=np.int64)
                - np.repeat(self.offsets, self.sizes)
            )
        return self._positions_within

    @property
    def has_empty_segment(self) -> bool:
        """Whether some tensor of the bucket has no elements."""
        return self._nonempty is not None

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
        """One value per segment, repeated for each of its elements."""
        return np.repeat(per_segment, self.sizes)

    def ratio_counts(self, ratio: float) -> np.ndarray:
        """``max(1, ceil(ratio · size))`` of every segment: how many
        elements a sparsifier's ``compress`` keeps of each tensor."""
        return np.maximum(1, np.ceil(ratio * self.sizes).astype(np.int64))

    def pack(self, arrays: dict[str, np.ndarray], out: np.ndarray) -> np.ndarray:
        """Copy the named tensors into ``out`` (flat float32) in layout order."""
        for seg in self.segments:
            out[seg.offset:seg.end] = np.ravel(arrays[seg.name])
        return out

    def unpack(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Split a flat bucket array back into per-tensor shaped views."""
        return {
            seg.name: flat[seg.offset:seg.end].reshape(seg.shape)
            for seg in self.segments
        }

    def __len__(self) -> int:
        return len(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FusionBucket(index={self.index}, tensors={len(self)}, "
                f"numel={self.numel})")


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
        self.signature = tuple(
            (name, tuple(int(d) for d in shape)) for name, shape in shapes
        )
        self.buckets: list[FusionBucket] = []
        current: list[BucketSegment] = []
        current_bytes = 0
        offset = 0
        for name, shape in self.signature:
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
        if len(gradients) != len(self.signature):
            return False
        return all(
            name in gradients and np.asarray(gradients[name]).shape == shape
            for name, shape in self.signature
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
