"""The GRACE programming interface (§IV-B).

A compression method is written exactly as in the paper::

    compress : tensor, name -> [comp], ctx
    decompress : [comp], ctx -> tensor

``ctx`` is an opaque object carrying whatever metadata decompression needs
that is *already known to the receiver* (original shape, dtype, tuning
constants).  Anything the receiver cannot know — scales, norms, means,
indices — must travel inside the payload so the accounted data volume is
honest.

``aggregate`` (the paper's Agg) combines per-worker decompressed tensors
for Allgather/Broadcast-style methods; Allreduce-style methods sum on the
wire and divide by ``n`` afterwards (Algorithm 1, lines 8–13).
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import Any

import numpy as np

Payload = list[np.ndarray]
Context = Any


class PayloadTypeError(TypeError):
    """A payload part is not a plain NumPy ndarray.

    Payload parts cross the (simulated) network: anything that is not an
    ndarray either cannot be framed at all or would be silently coerced
    with a data-dependent size, breaking the §IV-B accounting.  Raised by
    :func:`validate_payload` (and therefore by :func:`concat_compressed`
    and the wire framing layer) with the offending part's index and type.
    """


def validate_payload(payload: Payload, *, owner: str = "payload") -> Payload:
    """Check every payload part is a real, non-object ndarray.

    Returns ``payload`` unchanged so callers can validate inline.  Scalars,
    lists, ``.tolist()`` output and ``dtype=object`` arrays are rejected
    rather than coerced — coercion would hide a dishonest wire format.
    """
    for index, part in enumerate(payload):
        if not isinstance(part, np.ndarray):
            raise PayloadTypeError(
                f"{owner} part {index} is {type(part).__name__}, expected "
                f"numpy.ndarray — wrap scalars as 1-element arrays with an "
                f"explicit dtype"
            )
        if part.dtype == object:
            raise PayloadTypeError(
                f"{owner} part {index} has dtype=object, which has no "
                f"defined wire size; use a concrete numeric dtype"
            )
    return payload


@dataclass
class CompressedTensor:
    """One tensor's compressed representation, as produced by ``compress``.

    Attributes
    ----------
    payload:
        The arrays that actually cross the network.
    ctx:
        Opaque decompression metadata (not transmitted).
    """

    payload: Payload
    ctx: Context
    _nbytes: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def nbytes(self) -> int:
        """On-wire size of this compressed tensor.

        Cached on first access: the trainer and telemetry hot paths both
        read it, and payloads are never mutated after construction.
        """
        if self._nbytes is None:
            self._nbytes = int(
                sum(int(np.asarray(part).nbytes) for part in self.payload)
            )
        return self._nbytes


class FusedConcatCtx:
    """Decompression ctx for the generic fused fallback.

    Records how the per-tensor payload part lists were concatenated into
    one bucket payload, so :meth:`Compressor.decompress_fused` can split
    them back and delegate to the per-tensor ``decompress``.
    """

    __slots__ = ("bucket", "splits", "ctxs")

    def __init__(self, bucket, splits: tuple[int, ...], ctxs: tuple):
        self.bucket = bucket
        self.splits = splits
        self.ctxs = ctxs


class FusedBucketCtx:
    """Decompression ctx of a whole-bucket kernel payload: the bucket.

    Everything a fused kernel's decoder needs beyond the payload is the
    bucket layout, which every rank holds — so the ctx type, the part
    count and the part dtypes of a fused payload depend on the
    compressor's parameters and the layout only, never on the data.  A
    rank may therefore decode a peer's payload under its *own* ctx (the
    real-parallel backend does); a kernel that switched formats on a
    property of its input, say a zero-norm segment, would break that.
    """

    __slots__ = ("bucket",)

    def __init__(self, bucket):
        self.bucket = bucket


def concat_compressed(bucket, compressed: list[CompressedTensor]) -> CompressedTensor:
    """Concatenate per-tensor compressed outputs into one bucket payload.

    The result carries every tensor's payload parts back-to-back (one
    collective moves them all) and a :class:`FusedConcatCtx` remembering
    the split points.
    """
    if len(compressed) != len(bucket.segments):
        raise ValueError(
            f"bucket has {len(bucket.segments)} segments but "
            f"{len(compressed)} compressed tensors were given"
        )
    parts: Payload = []
    splits = []
    ctxs = []
    for item in compressed:
        parts.extend(validate_payload(item.payload))
        splits.append(len(item.payload))
        ctxs.append(item.ctx)
    return CompressedTensor(
        payload=parts,
        ctx=FusedConcatCtx(bucket, tuple(splits), tuple(ctxs)),
    )


class AggregationUnsupportedError(NotImplementedError):
    """The compressor declares no compressed-domain aggregation.

    Raised by :meth:`Compressor.aggregate_compressed` for schemes whose
    ``aggregation`` capability is ``"none"`` — a typed signal callers
    (parameter server, hierarchical reducer, property tests) can probe
    for, as opposed to an accidental ``NotImplementedError`` from a
    half-built subclass.
    """


#: Legal values of :attr:`Compressor.aggregation` (the capability flag).
#:
#: * ``"none"`` — no compressed-domain aggregation; the server must
#:   relay payloads and every rank decompresses all of them.
#: * ``"exact-linear"`` — summation commutes with decompression bitwise
#:   on float32 (coordinate lists, low-rank factor blocks, raw tensors).
#: * ``"codebook"`` — THC-style re-quantization onto a shared uniform
#:   lattice; approximate, with a declared per-element error bound of
#:   ``n_summands·δ*`` carried by the aggregated payload itself.
#: * ``"sketch"`` — aggregation is exact-linear in *sketch space* (the
#:   tables sum bitwise) but the decode is nonlinear, so decompressed
#:   outputs are not the sum of per-worker decompressions.
AGGREGATION_KINDS = ("none", "exact-linear", "codebook", "sketch")

#: Resolution of the generic shared codebook: the largest magnitude in a
#: payload maps to this many lattice steps (≈8-bit signed resolution).
LATTICE_STEPS = 128


def summand_count(compressed: CompressedTensor) -> int:
    """Worker gradients an aggregated payload stands for (1 if plain)."""
    return int(getattr(compressed.ctx, "n_summands", 1))


class AggregatedDenseCtx:
    """Ctx of an aggregated dense payload: ``[summed_flat float32]``."""

    __slots__ = ("shape", "n_summands")

    def __init__(self, shape, n_summands: int):
        self.shape = tuple(shape)
        self.n_summands = int(n_summands)


class AggregatedCoordsCtx:
    """Ctx of an aggregated coordinate list: ``[values f32, indices i64]``.

    Duplicated indices are intentional — the decode is a scatter-*add*
    (:func:`numpy.add.at`), which is what makes concatenation an exact
    compressed-domain sum for sparsifiers.
    """

    __slots__ = ("shape", "size", "n_summands")

    def __init__(self, shape, size: int, n_summands: int):
        self.shape = tuple(shape)
        self.size = int(size)
        self.n_summands = int(n_summands)


class AggregatedLatticeCtx:
    """Ctx of a shared-codebook sum: ``[deltas f32, summed codes i64]``.

    ``deltas`` holds the lattice step per segment (one segment for a
    plain tensor, per-bucket-segment for fused payloads); element ``i``
    of the summed codes decodes to ``delta_of(i) * codes[i]``.  The
    per-element aggregation error is bounded by ``n_summands·δ`` —
    receivers can derive the tolerance from the payload alone.
    """

    __slots__ = ("shape", "size", "seg_sizes", "n_summands")

    def __init__(self, shape, size: int, seg_sizes, n_summands: int):
        self.shape = tuple(shape)
        self.size = int(size)
        self.seg_sizes = tuple(int(s) for s in seg_sizes)
        self.n_summands = int(n_summands)


class AggregatedFusedCtx:
    """Ctx of a segment-wise aggregated fused-concat payload.

    Mirrors :class:`FusedConcatCtx` without holding the bucket object:
    ``splits[i]`` payload parts belong to segment ``i``, whose aggregated
    ctx is ``ctxs[i]`` and whose flat slice is
    ``[offsets[i], offsets[i]+sizes[i])``.
    """

    __slots__ = ("numel", "offsets", "sizes", "splits", "ctxs", "n_summands")

    def __init__(self, numel, offsets, sizes, splits, ctxs, n_summands: int):
        self.numel = int(numel)
        self.offsets = tuple(int(o) for o in offsets)
        self.sizes = tuple(int(s) for s in sizes)
        self.splits = tuple(int(s) for s in splits)
        self.ctxs = tuple(ctxs)
        self.n_summands = int(n_summands)


def sum_dense(arrays: list[np.ndarray]) -> np.ndarray:
    """Float32 sum in list order, bitwise matching ``np.sum(np.stack(...))``.

    Seeding the accumulator with a copy of the first operand (instead of
    zeros) keeps even signed-zero results identical to the stacked sum
    the sequential collectives compute.
    """
    if not arrays:
        raise ValueError("nothing to sum")
    out = np.array(arrays[0], dtype=np.float32, copy=True)
    for array in arrays[1:]:
        out += np.asarray(array, dtype=np.float32).reshape(out.shape)
    return out


def _fused_layout(ctx):
    """(numel, offsets, sizes, splits, ctxs) of either fused ctx flavor."""
    if isinstance(ctx, FusedConcatCtx):
        segments = ctx.bucket.segments
        return (
            ctx.bucket.numel,
            tuple(seg.offset for seg in segments),
            tuple(seg.size for seg in segments),
            ctx.splits,
            ctx.ctxs,
        )
    if isinstance(ctx, AggregatedFusedCtx):
        return ctx.numel, ctx.offsets, ctx.sizes, ctx.splits, ctx.ctxs
    raise TypeError(f"not a fused ctx: {type(ctx).__name__}")


def is_fused_concat_ctx(ctx) -> bool:
    """Whether ``ctx`` is a (possibly aggregated) generic fused-concat ctx."""
    return isinstance(ctx, (FusedConcatCtx, AggregatedFusedCtx))


class Compressor(abc.ABC):
    """Base class for all compression operators Q.

    Subclasses set the class attributes describing Table I's columns and
    implement :meth:`compress` / :meth:`decompress`.

    Class attributes
    ----------------
    name:
        Registry name.
    family:
        One of ``"none"``, ``"quantization"``, ``"sparsification"``,
        ``"hybrid"``, ``"low-rank"``.
    stochastic:
        Nature of Q: True for random operators, False for deterministic.
    communication:
        ``"allreduce"``, ``"allgather"`` or ``"broadcast"`` — the strategy
        Algorithm 1 selects on.
    default_memory:
        Memory (error-feedback) used when the method's Table I row has
        EF-On: ``"none"``, ``"residual"`` or ``"dgc"``.
    """

    name: str = "abstract"
    family: str = "none"
    stochastic: bool = False
    communication: str = "allgather"
    default_memory: str = "none"
    #: True when this compressor ships a vectorized ``compress_fused``
    #: kernel; False means fusion falls back to the generic concatenation
    #: of per-tensor calls (still one collective per bucket).
    fused_kernel: bool = False
    #: Compressed-domain aggregation capability — one of
    #: :data:`AGGREGATION_KINDS`.  ``"none"`` means
    #: :meth:`aggregate_compressed` raises the typed
    #: :class:`AggregationUnsupportedError`; anything else means a
    #: parameter server or in-network switch can sum this scheme's
    #: payloads without decompressing them.
    aggregation: str = "none"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    # -- the two methods every new compression method must implement --------

    @abc.abstractmethod
    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q to ``tensor``; returns payload + ctx."""

    @abc.abstractmethod
    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q⁻¹; returns a tensor with the original shape and dtype."""

    # -- fused (bucketed) path -----------------------------------------------

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Compress a whole fusion bucket (flat float32) in one call.

        ``bucket`` is a :class:`repro.core.fusion.FusionBucket` (duck
        typed: ``segments`` with name/shape/offset/size, ``numel``).
        The generic fallback concatenates per-tensor :meth:`compress`
        calls in segment order — correct for every compressor, and
        consuming the random stream exactly like the per-tensor path.
        Subclasses with ``fused_kernel = True`` override this with a
        vectorized whole-bucket implementation returning a
        :class:`FusedBucketCtx` payload, and decode it in
        :meth:`_decompress_bucket`.  Two rules bind every kernel: decoded
        values, the random stream and any compressor state afterwards
        are bitwise those of this generic path; and the wire format is a
        function of parameters and bucket layout only (see
        :class:`FusedBucketCtx`).
        """
        return concat_compressed(
            bucket,
            [
                self.compress(
                    buffer[seg.offset:seg.end].reshape(seg.shape), seg.name
                )
                for seg in bucket.segments
            ],
        )

    def decompress_fused(
        self, compressed: CompressedTensor, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Decompress a fused bucket back to one flat float32 array.

        Kernel payloads (:class:`FusedBucketCtx`) decode through the
        subclass's :meth:`_decompress_bucket`, generic concatenations
        (:class:`FusedConcatCtx`) segment by segment through
        :meth:`decompress`.  ``out`` (when given) is a reusable
        ``numel``-sized float32 scratch buffer.
        """
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            values = self._decompress_bucket(compressed.payload, ctx.bucket)
            if out is None:
                return values
            out[:] = values
            return out
        if not isinstance(ctx, FusedConcatCtx):
            raise TypeError(
                f"{type(self).__name__} cannot decompress fused ctx "
                f"{type(ctx).__name__}"
            )
        bucket = ctx.bucket
        if out is None:
            out = np.empty(bucket.numel, dtype=np.float32)
        start = 0
        for seg, n_parts, seg_ctx in zip(bucket.segments, ctx.splits, ctx.ctxs):
            sub = CompressedTensor(
                payload=compressed.payload[start:start + n_parts], ctx=seg_ctx
            )
            out[seg.offset:seg.end] = np.ravel(self.decompress(sub))
            start += n_parts
        return out

    def _decompress_bucket(self, payload: Payload, bucket) -> np.ndarray:
        """Decode one :meth:`compress_fused` kernel payload to flat float32."""
        raise TypeError(
            f"{type(self).__name__} ships no fused kernel to decode a "
            f"FusedBucketCtx payload"
        )

    # -- defaults the framework provides -------------------------------------

    def aggregate(self, tensors: list[np.ndarray]) -> np.ndarray:
        """Combine per-worker decompressed tensors (default: mean)."""
        if not tensors:
            raise ValueError("nothing to aggregate")
        return np.mean(np.stack(tensors), axis=0)

    # -- compressed-domain aggregation ---------------------------------------

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Sum per-worker payloads without decompressing (THC-style).

        The result is itself a :class:`CompressedTensor` whose ctx
        carries ``n_summands``, so aggregates can be re-aggregated (the
        hierarchical reducer feeds rack-level sums into the root) and a
        receiver can turn the sum into a mean.  Schemes whose
        :attr:`aggregation` capability is ``"none"`` raise the typed
        :class:`AggregationUnsupportedError`.
        """
        raise AggregationUnsupportedError(
            f"compressor {self.name!r} declares no compressed-domain "
            f"aggregation (capability {self.aggregation!r})"
        )

    def decompress_aggregated(
        self, compressed: CompressedTensor
    ) -> np.ndarray:
        """Decode an :meth:`aggregate_compressed` result to the dense sum.

        Handles the framework-level aggregated ctx types; anything else
        is assumed to decode through the scheme's own
        :meth:`decompress` (true for schemes like sketches whose
        aggregated form is structurally a regular payload).
        """
        ctx = compressed.ctx
        if isinstance(ctx, AggregatedDenseCtx):
            return np.asarray(
                compressed.payload[0], dtype=np.float32
            ).reshape(ctx.shape)
        if isinstance(ctx, AggregatedCoordsCtx):
            values, indices = compressed.payload
            dense = np.zeros(ctx.size, dtype=np.float32)
            np.add.at(dense, np.asarray(indices, dtype=np.int64),
                      np.asarray(values, dtype=np.float32))
            return dense.reshape(ctx.shape)
        if isinstance(ctx, AggregatedLatticeCtx):
            deltas, codes = compressed.payload
            step = np.repeat(
                np.asarray(deltas, dtype=np.float64),
                np.asarray(ctx.seg_sizes, dtype=np.int64),
            )
            values = (step * np.asarray(codes, dtype=np.float64)).astype(
                np.float32
            )
            return values.reshape(ctx.shape)
        if isinstance(ctx, AggregatedFusedCtx):
            out = np.empty(ctx.numel, dtype=np.float32)
            start = 0
            for offset, size, n_parts, seg_ctx in zip(
                ctx.offsets, ctx.sizes, ctx.splits, ctx.ctxs
            ):
                sub = CompressedTensor(
                    payload=compressed.payload[start:start + n_parts],
                    ctx=seg_ctx,
                )
                out[offset:offset + size] = np.ravel(
                    self.decompress_aggregated(sub)
                )
                start += n_parts
            return out
        return self.decompress(compressed)

    def _aggregate_fused_segments(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Generic fused-concat aggregation: per-segment, then re-concat.

        Accepts any mix of :class:`FusedConcatCtx` payloads (fresh from
        workers) and :class:`AggregatedFusedCtx` payloads (rack-level
        sums being re-aggregated), as long as they describe the same
        bucket layout.
        """
        numel, offsets, sizes, _, _ = _fused_layout(items[0].ctx)
        per_item: list[list[CompressedTensor]] = []
        for item in items:
            n2, o2, s2, splits, ctxs = _fused_layout(item.ctx)
            if (n2, o2, s2) != (numel, offsets, sizes):
                raise ValueError(
                    "cannot aggregate fused payloads with different "
                    "bucket layouts"
                )
            subs = []
            start = 0
            for n_parts, seg_ctx in zip(splits, ctxs):
                subs.append(CompressedTensor(
                    payload=item.payload[start:start + n_parts],
                    ctx=seg_ctx,
                ))
                start += n_parts
            per_item.append(subs)
        parts: Payload = []
        agg_splits = []
        agg_ctxs = []
        for seg_idx in range(len(offsets)):
            seg_agg = self.aggregate_compressed(
                [subs[seg_idx] for subs in per_item]
            )
            parts.extend(seg_agg.payload)
            agg_splits.append(len(seg_agg.payload))
            agg_ctxs.append(seg_agg.ctx)
        total = sum(summand_count(item) for item in items)
        return CompressedTensor(
            payload=parts,
            ctx=AggregatedFusedCtx(
                numel, offsets, sizes, agg_splits, agg_ctxs, total
            ),
        )

    def _aggregate_dense(
        self, items: list[CompressedTensor], shape
    ) -> CompressedTensor:
        """Exact dense aggregation: elementwise float32 part sum."""
        total = sum_dense([
            np.ravel(np.asarray(item.payload[0])) for item in items
        ])
        n = sum(summand_count(item) for item in items)
        return CompressedTensor(
            payload=[total], ctx=AggregatedDenseCtx(shape, n)
        )

    def _coords_form(
        self, compressed: CompressedTensor
    ) -> tuple[tuple, int, np.ndarray, np.ndarray]:
        """Coordinate-list view ``(shape, size, values f32, indices i64)``.

        Sparsifiers override this to expose their native payload (and
        their fused-kernel payloads) as flat coordinates; the base class
        only understands already-aggregated coordinate payloads.
        """
        ctx = compressed.ctx
        if isinstance(ctx, AggregatedCoordsCtx):
            values, indices = compressed.payload
            return (
                ctx.shape,
                ctx.size,
                np.asarray(values, dtype=np.float32),
                np.asarray(indices, dtype=np.int64),
            )
        raise AggregationUnsupportedError(
            f"compressor {self.name!r} has no coordinate form for ctx "
            f"{type(ctx).__name__}"
        )

    def _aggregate_coords(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact sparse aggregation on the union support.

        Coordinate lists are scatter-added in worker order — bitwise
        identical to the sequential dense sum a decompress-then-add
        reducer computes — and only the union of the supports is kept.
        Sparsifiers' heavy hitters coincide heavily across workers
        (correlated gradients select the same coordinates), so the
        aggregate stays near one worker's payload size instead of
        growing as the concatenation of all N.
        """
        forms = [self._coords_form(item) for item in items]
        shape, size = forms[0][0], forms[0][1]
        for other_shape, other_size, _, _ in forms[1:]:
            if other_shape != shape or other_size != size:
                raise ValueError(
                    "cannot aggregate sparse payloads with different "
                    f"shapes: {shape}/{size} vs {other_shape}/{other_size}"
                )
        values = np.concatenate(
            [form[2] for form in forms]
        ).astype(np.float32, copy=False)
        indices = np.concatenate(
            [form[3] for form in forms]
        ).astype(np.int64, copy=False)
        dense = np.zeros(size, dtype=np.float32)
        np.add.at(dense, indices, values)
        union = np.unique(indices)
        if size <= np.iinfo(np.int32).max:
            union = union.astype(np.int32)
        total = sum(summand_count(item) for item in items)
        return CompressedTensor(
            payload=[dense[union], union],
            ctx=AggregatedCoordsCtx(shape, size, total),
        )

    # -- shared-codebook (uniform lattice) machinery -------------------------

    def _lattice_form(
        self, compressed: CompressedTensor
    ) -> tuple[tuple, int, np.ndarray, np.ndarray, np.ndarray]:
        """Canonical uniform-lattice view of one payload.

        Returns ``(shape, size, deltas, seg_sizes, codes)`` with
        ``value[i] ≈ delta_of(i) * codes[i]``.  The default decodes the
        payload to dense float32 and snaps it onto a per-payload lattice
        whose step is ``max|v| / LATTICE_STEPS`` — correct for any
        scheme; quantizers whose values already live on a lattice (QSGD)
        override this with the exact native form.  A fused kernel
        payload gets one step per bucket segment, exactly the steps its
        per-tensor payloads would get one by one.
        """
        ctx = compressed.ctx
        if isinstance(ctx, AggregatedLatticeCtx):
            deltas, codes = compressed.payload
            return (
                ctx.shape,
                ctx.size,
                np.asarray(deltas, dtype=np.float32),
                np.asarray(ctx.seg_sizes, dtype=np.int64),
                np.asarray(codes, dtype=np.int64),
            )
        if isinstance(ctx, FusedBucketCtx):
            bucket = ctx.bucket
            shape = (int(bucket.numel),)
            flat = self.decompress_fused(compressed).astype(np.float64)
            seg_sizes = bucket.sizes
            deltas = (
                bucket.segment_max(np.abs(flat)) / LATTICE_STEPS
            ).astype(np.float32)
            steps = bucket.expand(deltas).astype(np.float64)
        else:
            dense = np.asarray(self.decompress(compressed), dtype=np.float32)
            shape = dense.shape
            flat = np.ravel(dense).astype(np.float64)
            seg_sizes = np.array([flat.size], dtype=np.int64)
            peak = np.max(np.abs(flat)) if flat.size else np.float64(0.0)
            deltas = np.array([peak / LATTICE_STEPS], dtype=np.float32)
            steps = np.float64(deltas[0])
        # A zero step marks an all-zero (or underflowing) segment.
        live = steps > 0
        codes = np.rint(
            np.divide(flat, steps, out=np.zeros_like(flat), where=live)
        ).astype(np.int64)
        return shape, int(flat.size), deltas, seg_sizes, codes

    def _aggregate_lattice(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """THC-style codebook sum: rescale codes onto max-δ, add integers.

        The shared codebook is the elementwise-max lattice step δ* over
        all summands; each worker's codes are re-quantized onto it
        (error ≤ δ*/2 per element per summand) and summed as int64 —
        the operation an aggregation switch performs without ever
        touching floats.
        """
        forms = [self._lattice_form(item) for item in items]
        shape, size, _, seg_sizes, _ = forms[0]
        for other_shape, other_size, deltas, other_segs, _ in forms[1:]:
            if (
                other_shape != shape
                or other_size != size
                or not np.array_equal(other_segs, seg_sizes)
            ):
                raise ValueError(
                    "cannot aggregate codebook payloads with different "
                    "shapes or segment layouts"
                )
        delta_star = forms[0][2].copy()
        for _, _, deltas, _, _ in forms[1:]:
            np.maximum(delta_star, deltas, out=delta_star)
        summed = np.zeros(size, dtype=np.int64)
        safe = delta_star.astype(np.float64)
        safe[safe == 0.0] = 1.0  # zero-δ segments carry all-zero codes
        for _, _, deltas, _, codes in forms:
            ratio = deltas.astype(np.float64) / safe
            summed += np.rint(
                codes * np.repeat(ratio, seg_sizes)
            ).astype(np.int64)
        total = sum(summand_count(item) for item in items)
        return CompressedTensor(
            payload=[delta_star, summed],
            ctx=AggregatedLatticeCtx(shape, size, seg_sizes, total),
        )

    def reseed(self, seed: int) -> None:
        """Replace the compressor's random stream (per-worker seeding)."""
        self._rng = np.random.default_rng(seed)

    def clone(self, seed: int) -> "Compressor":
        """A fresh instance with independent state, for one worker.

        Subclasses with constructor parameters must override
        :meth:`_clone_args` so the clone is configured identically.
        """
        instance = type(self)(**self._clone_args())
        instance.reseed(seed)
        return instance

    def _clone_args(self) -> dict[str, Any]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class Memory(abc.ABC):
    """Error-feedback memory: φ (compensate) and ψ (update) of Algorithm 1.

    ``telemetry`` is ``None`` by default; a trainer with tracing enabled
    attaches its :class:`~repro.telemetry.metrics.MetricsRegistry` via
    :meth:`attach_telemetry` so memories can record residual norms.
    The disabled path never computes them.
    """

    telemetry = None  # class-level default: no per-instance cost when off

    #: True when this memory implements :meth:`update_fused` — the
    #: fused trainer path then updates from whole flat buckets instead of
    #: per-tensor ``CompressedTensor`` objects.  A memory that leaves
    #: this False keeps the trainer on the per-tensor kernel path (the
    #: bucket collective stays fused either way).
    supports_fused_update: bool = False
    #: What :meth:`update_fused` consumes as ``transmitted``:
    #: ``"values"`` — the decompressed bucket (one decompress pass per
    #: rank); ``"indices"`` — the flat bucket positions that were sent,
    #: from the compressor's ``transmitted_indices`` (DGC's masking
    #: rule); ``"none"`` — nothing, the trainer passes ``None``.
    fused_transmitted: str = "values"

    def attach_telemetry(self, registry) -> None:
        """Route this memory's diagnostics into ``registry``."""
        self.telemetry = registry

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Deep-copied snapshot of this memory's error-feedback state.

        Memories keep all state (residual dicts, DGC velocity and
        accumulation, hyperparameters) in instance attributes, so the
        generic snapshot is the instance ``__dict__`` minus the
        telemetry handle — registries are run infrastructure, not model
        state, and must not be captured or restored.
        """
        return copy.deepcopy(
            {k: v for k, v in self.__dict__.items() if k != "telemetry"}
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (telemetry preserved).

        The snapshot is deep-copied in, so one captured checkpoint can
        be restored multiple times without aliasing live arrays.
        """
        registry = self.telemetry
        self.__dict__.update(copy.deepcopy(state))
        if registry is not None:
            self.telemetry = registry

    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """Pack φ(mᵏ, gᵏ) for every bucket segment into flat ``out``.

        The generic implementation loops :meth:`compensate` per segment —
        bitwise-identical to the per-tensor path for any memory.
        Subclasses may override with one vectorized pass over the whole
        bucket (elementwise φ on a flat buffer equals φ on each
        contiguous slice).  ``out`` is a reusable ``bucket.numel``-sized
        float32 scratch buffer the caller fully overwrites each call.
        """
        for seg in bucket.segments:
            out[seg.offset:seg.end] = np.ravel(
                self.compensate(gradients[seg.name], seg.name)
            )
        return out

    def update_fused(
        self,
        compensated: np.ndarray,
        bucket,
        transmitted: np.ndarray | None,
    ) -> None:
        """ψ for the fused path: fold the error back from flat buckets.

        ``compensated`` and ``transmitted`` are the whole bucket's flat
        float32 compensated and decompressed buffers (``transmitted`` is
        instead the int64 positions that were sent, or ``None``, as
        :attr:`fused_transmitted` says).
        Implementations must not retain these arrays or views of them —
        they alias reused scratch buffers.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support fused updates"
        )

    @abc.abstractmethod
    def compensate(self, tensor: np.ndarray, name: str) -> np.ndarray:
        """φ(mᵏ, gᵏ): combine the local gradient with the stored memory."""

    @abc.abstractmethod
    def update(
        self,
        compensated: np.ndarray,
        name: str,
        compressor: Compressor,
        compressed: CompressedTensor,
    ) -> None:
        """ψ(mᵏ, gᵏ, g̃ᵏ): fold this iteration's compression error back in."""


def flatten_with_shape(tensor: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Common preamble: view a gradient as rank-1 plus its original shape."""
    array = np.asarray(tensor)
    return np.ravel(array).astype(np.float32), array.shape
