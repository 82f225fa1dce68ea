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
from typing import Any, Callable

import numpy as np

from repro.core.fusion import tensor_bucket
from repro.tensorlib.indices import index_dtype
from repro.tensorlib.packing import pack_bits, unpack_bits

Payload = list[np.ndarray]
Context = Any

#: The dtypes a payload part may have, in the order of their codes on the
#: wire (:mod:`repro.core.wire`): a code is a place in this tuple, so new
#: dtypes are appended and none moves.  :func:`validate_payload` reads it
#: too, so a part the wire cannot frame fails in every run, not only in
#: one that crosses processes.
WIRE_DTYPES = tuple(np.dtype(name) for name in (
    "uint8", "int8", "int16", "int32", "int64",
    "float16", "float32", "float64", "uint16",
))


class PayloadTypeError(TypeError):
    """A payload part is not a plain NumPy ndarray of a wire dtype.

    Payload parts cross the (simulated) network: anything that is not an
    ndarray either cannot be framed at all or would be silently coerced
    with a data-dependent size, breaking the §IV-B accounting, and an
    ndarray outside :data:`WIRE_DTYPES` has no wire code.  Raised by
    :func:`validate_payload` (and therefore by the wire framing layer)
    with the offending part's index and type.
    """


def validate_payload(payload: Payload, *, owner: str = "payload") -> Payload:
    """Check every payload part is an ndarray the wire can frame.

    Returns ``payload`` unchanged so callers can validate inline.  Scalars,
    lists, ``.tolist()`` output and ``dtype=object`` arrays are rejected
    rather than coerced — coercion would hide a dishonest wire format —
    and so is any dtype outside :data:`WIRE_DTYPES` (uint32, bool,
    complex, a byte-swapped float), which only a real transport would
    otherwise find.
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
        if part.dtype not in WIRE_DTYPES:
            raise PayloadTypeError(
                f"{owner} part {index} has dtype {part.dtype}, which the "
                f"wire cannot frame; use one of "
                f"{', '.join(map(str, WIRE_DTYPES))}"
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


class FusionUnsupportedError(NotImplementedError):
    """The compressor ships no bucket kernel to compress several tensors.

    Raised by :meth:`Compressor.compress_fused` on a bucket of more than
    one segment when the compressor is written against the GRACE API
    alone (``fused_kernel = False``); the trainer gives such a compressor
    one-tensor units instead of fusing.
    """


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
    """Ctx of an aggregated coordinate list: ``[values f32, indices]``.

    The indices travel at ``index_dtype(size)``
    (:func:`~repro.tensorlib.indices.index_dtype`), the width the
    receiver derives from the segment it already knows.

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
    """Ctx of a shared-codebook sum: ``[deltas f32, width u8, codes]``.

    ``deltas`` holds the lattice step per segment (one segment for a
    plain tensor, per-bucket-segment for fused payloads); element ``i``
    of the summed codes decodes to ``delta_of(i) * codes[i]``.  The codes
    travel at their own width (:func:`pack_lattice_codes`), which the
    one-element ``width`` part names.  The per-element aggregation error
    is bounded by ``n_summands·δ`` — receivers can derive the tolerance
    from the payload alone.
    """

    __slots__ = ("shape", "size", "seg_sizes", "n_summands")

    def __init__(self, shape, size: int, seg_sizes, n_summands: int):
        self.shape = tuple(shape)
        self.size = int(size)
        self.seg_sizes = tuple(int(s) for s in seg_sizes)
        self.n_summands = int(n_summands)


#: The widest summed lattice code :func:`pack_lattice_codes` bit-packs;
#: wider sums travel as int32 lanes.
PACKED_CODE_BITS = 16


def pack_lattice_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed lattice codes as ``(width u8[1], packed)`` for the wire.

    At w = ⌈log₂(2·max|code| + 1)⌉ bits the codes, offset by
    ``2^(w-1) - 1`` to non-negative, bit-pack with
    :func:`~repro.tensorlib.packing.pack_bits`; above
    :data:`PACKED_CODE_BITS` they travel as int32 lanes.  A sum of N
    codes of magnitude at most L therefore costs at most
    ⌈log₂(N·(2L + 1))⌉ bits an element.
    """
    peak = int(np.max(np.abs(codes))) if codes.size else 0
    bits = max(1, (2 * peak).bit_length())  # ⌈log₂(2·peak + 1)⌉
    if bits > 32:
        raise OverflowError(f"summed lattice codes need {bits} bits")
    if bits > PACKED_CODE_BITS:
        packed = codes.astype(np.int32)
    else:
        packed = pack_bits(codes + ((1 << (bits - 1)) - 1), bits)
    return np.array([bits], dtype=np.uint8), packed


def unpack_lattice_codes(
    width: np.ndarray, packed: np.ndarray, count: int
) -> np.ndarray:
    """The int64 codes :func:`pack_lattice_codes` packed."""
    bits = int(width[0])
    if bits > PACKED_CODE_BITS:
        return np.asarray(packed, dtype=np.int64)
    return unpack_bits(packed, bits, count) - ((1 << (bits - 1)) - 1)


def coordinate_aggregate(
    shape, dense: np.ndarray, union: np.ndarray, n_summands: int
) -> CompressedTensor:
    """A scatter-added sum on the union support, in its smaller form.

    ``dense`` is the flat float32 sum, ``union`` the sorted positions any
    summand sent, at ``index_dtype(dense.size)``.  Kept coordinates cost
    their value and their index, 4 + w bytes each at a w-byte index
    width; once (4 + w)·union passes 4·size the dense float32 sum
    (:class:`AggregatedDenseCtx`) is smaller and ships instead.  Both
    decode to ``dense`` bitwise: a sum that starts from +0.0 never holds
    -0.0, so adding the kept values to zeros leaves them as they are.
    """
    if union.nbytes + 4 * union.size > dense.nbytes:
        return CompressedTensor(
            payload=[dense], ctx=AggregatedDenseCtx(shape, n_summands)
        )
    return CompressedTensor(
        payload=[dense[union], union],
        ctx=AggregatedCoordsCtx(shape, dense.size, n_summands),
    )


def rank_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """The ranks' sum NumPy takes over the stacked arrays, ``np.sum(stacked,
    axis=0)``, bitwise — without stacking them.

    Same dtype (an int8 or bool sum is int64), same operand order, same
    signed zeros: NumPy's reduction starts from +0, so where every rank
    holds -0.0 the sum is +0.0, even of one rank — the first operand is
    added to 0 rather than copied.  A tensor of at most one element is
    reduced along a contiguous axis, which NumPy sums pairwise from eight
    ranks on: it is summed as NumPy sums it.  Ranks whose shapes differ
    raise ``ValueError``, as stacking them would, rather than broadcast.
    """
    if not arrays:
        raise ValueError("nothing to sum")
    first, *rest = arrays = [np.asarray(array) for array in arrays]
    if any(array.shape != first.shape for array in rest):
        raise ValueError("ranks' arrays differ in shape")
    if first.size <= 1:
        return np.add.reduce(np.asarray(arrays), axis=0)
    # The dtype NumPy's reduction gives the ranks' common type.
    dtype = np.add.reduce(np.empty(0, np.result_type(*arrays))).dtype
    out = np.add(first, 0, dtype=dtype)
    for array in rest:
        np.add(out, array, out=out)
    return out


def rank_mean(arrays: list[np.ndarray]) -> np.ndarray:
    """The ranks' mean, ``np.mean(stacked, axis=0)``, bitwise:
    :func:`rank_sum` divided by the rank count.

    NumPy divides a float sum by the count in float64 and rounds back; a
    float32 quotient of exact operands is the same correctly rounded
    value, so the division stays in the sum's precision, in place.
    Integer and bool sums become float64 means.
    """
    total = rank_sum(arrays)
    if isinstance(total, np.ndarray) and total.dtype.kind == "f":
        return np.true_divide(total, len(arrays), out=total)
    return np.true_divide(total, len(arrays))


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
    #: True when this compressor ships a ``compress_fused`` bucket kernel;
    #: False means every unit it compresses is one tensor (the trainer
    #: ignores ``fusion_mb`` for it).
    fused_kernel: bool = False
    #: Compressed-domain aggregation capability — one of
    #: :data:`AGGREGATION_KINDS`.  ``"none"`` means
    #: :meth:`aggregate_compressed` raises the typed
    #: :class:`AggregationUnsupportedError`; anything else means a
    #: parameter server or in-network switch can sum this scheme's
    #: payloads without decompressing them.
    aggregation: str = "none"
    #: True when instances share no mutable state with one another, so
    #: the exchange may run several ranks' φ → Q → ψ on them at once.
    #: Read through ``type()``: a proxy that forwards attributes does not
    #: inherit it, and runs its ranks one after another.
    concurrent_ranks: bool = False

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
        """Compress one unit of the trainer, a bucket of flat float32.

        A run that does not fuse has one-segment buckets.  ``bucket`` is a
        :class:`repro.core.fusion.FusionBucket`.  Written against the GRACE
        API alone, a compressor compresses a one-segment bucket as its
        tensor (:meth:`compress`) and no other: several segments raise
        :class:`FusionUnsupportedError`.  Subclasses with ``fused_kernel =
        True`` override this with a whole-bucket kernel returning a
        :class:`FusedBucketCtx` payload, and decode it in
        :meth:`_decompress_bucket`.  Two rules bind every kernel: decoded
        values, the random stream and any compressor state afterwards are
        bitwise those of compressing each segment alone, as its one-segment
        bucket, in segment order; and the wire format is a function of
        parameters and bucket layout only (see :class:`FusedBucketCtx`).
        """
        if len(bucket) != 1:
            raise FusionUnsupportedError(
                f"{type(self).__name__} ships no fused kernel: it compresses "
                f"one tensor at a time, not a bucket of {len(bucket)}"
            )
        (seg,) = bucket.segments
        return self.compress(buffer.reshape(seg.shape), seg.name)

    def decompress_fused(
        self, compressed: CompressedTensor, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Decompress one unit back to a flat float32 array.

        Kernel payloads (:class:`FusedBucketCtx`) decode through the
        subclass's :meth:`_decompress_bucket`; any other payload is one
        tensor's and decodes through :meth:`decompress`.  ``out`` (when
        given) is a reusable ``numel``-sized float32 scratch buffer.
        """
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            values = self._decompress_bucket(compressed.payload, ctx.bucket)
        else:
            values = np.ravel(
                np.asarray(self.decompress(compressed), dtype=np.float32)
            )
        if out is None:
            return values
        out[:] = values
        return out

    def _decompress_bucket(self, payload: Payload, bucket) -> np.ndarray:
        """Decode one :meth:`compress_fused` kernel payload to flat float32."""
        raise TypeError(
            f"{type(self).__name__} ships no fused kernel to decode a "
            f"FusedBucketCtx payload"
        )

    def index_extents(self, bucket) -> dict[int, int]:
        """The index parts of a :meth:`compress_fused` payload on ``bucket``.

        Maps a part's place in the payload to its extent, the number of
        positions it counts in.  The part travels at
        :func:`~repro.tensorlib.indices.index_dtype` of that extent, which
        ``--sanitize contract`` checks (``index-width``).  A compressor
        that sends no positions declares none.
        """
        return {}

    # -- defaults the framework provides -------------------------------------

    def aggregate(self, tensors: list[np.ndarray]) -> np.ndarray:
        """Combine per-worker decompressed tensors (default: mean)."""
        if not tensors:
            raise ValueError("nothing to aggregate")
        return rank_mean(tensors)

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
            deltas, width, packed = compressed.payload
            codes = unpack_lattice_codes(width, packed, ctx.size)
            step = np.repeat(
                np.asarray(deltas, dtype=np.float64),
                np.asarray(ctx.seg_sizes, dtype=np.int64),
            )
            values = (step * codes.astype(np.float64)).astype(np.float32)
            return values.reshape(ctx.shape)
        return self.decompress(compressed)

    def _aggregate_dense(
        self, items: list[CompressedTensor], shape
    ) -> CompressedTensor:
        """Exact dense aggregation: elementwise float32 part sum."""
        total = rank_sum([
            np.ravel(np.asarray(item.payload[0], dtype=np.float32))
            for item in items
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
        only understands already-aggregated payloads, coordinates or the
        dense sum :func:`coordinate_aggregate` ships for a wide union.
        """
        ctx = compressed.ctx
        if isinstance(ctx, AggregatedDenseCtx):
            values = np.ravel(
                np.asarray(compressed.payload[0], dtype=np.float32)
            )
            return (
                ctx.shape, values.size, values,
                np.arange(values.size, dtype=np.int64),
            )
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
        Where the workers' heavy hitters coincide the union stays near
        one worker's support; where they do not it grows towards the
        concatenation of all N, and once its coordinates outweigh the
        segment the dense sum ships instead (:func:`coordinate_aggregate`),
        so the aggregate never costs more than 4 bytes an element.  The
        union's indices take the width :func:`index_dtype` gives the
        segment.
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
        union = np.unique(indices).astype(index_dtype(size))
        total = sum(summand_count(item) for item in items)
        return coordinate_aggregate(shape, dense, union, total)

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
            deltas, width, packed = compressed.payload
            return (
                ctx.shape,
                ctx.size,
                np.asarray(deltas, dtype=np.float32),
                np.asarray(ctx.seg_sizes, dtype=np.int64),
                unpack_lattice_codes(width, packed, ctx.size),
            )
        if isinstance(ctx, FusedBucketCtx):
            bucket = ctx.bucket
            shape = bucket.shape
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
        (error ≤ δ*/2 per element per summand) and summed as integers —
        the operation an aggregation switch performs without ever
        touching floats.  Re-quantizing onto a coarser step never grows a
        code, so N summands of magnitude at most L ship at most
        ⌈log₂(N·(2L + 1))⌉ bits an element (:func:`pack_lattice_codes`).
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
            payload=[delta_star, *pack_lattice_codes(summed)],
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


class KernelCompressor(Compressor):
    """A built-in written as its bucket kernel alone.

    ``compress`` runs :meth:`compress_fused` on the tensor's one-segment
    bucket (:func:`~repro.core.fusion.tensor_bucket`) and ``decompress``
    decodes that payload back to the tensor's shape: one body serves a
    tensor and a bucket.  A compressor written against the GRACE API
    subclasses :class:`Compressor` and writes ``compress``/``decompress``
    instead, which :meth:`Compressor.compress_fused` runs on one-tensor
    units — that is why this adapter is a subclass and not the base
    class's default: with both defaults a compressor that wrote neither
    would bounce between them.
    """

    fused_kernel = True
    #: The built-ins keep all their state (the random stream included) per
    #: instance; a subclass whose clones share mutable state sets False.
    concurrent_ranks = True

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: the kernel over the one-segment bucket of ``tensor``.

        A kernel neither writes its buffer nor hands it out in a payload,
        so a float32 tensor goes in uncopied.
        """
        array = np.asarray(tensor, dtype=np.float32)
        return self.compress_fused(
            array.reshape(-1), tensor_bucket(name, array.shape)
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q⁻¹: the kernel's decode, in the tensor's shape."""
        bucket = compressed.ctx.bucket
        return self.decompress_fused(compressed).reshape(bucket.shape)


class Memory(abc.ABC):
    """Error-feedback memory: φ (compensate) and ψ (update) of Algorithm 1.

    A memory is written as its bucket methods; the GRACE API's per-tensor
    :meth:`compensate` and :meth:`update` run them on the tensor's
    one-segment bucket.

    ``telemetry`` is ``None`` by default; a trainer with tracing enabled
    attaches its :class:`~repro.telemetry.metrics.MetricsRegistry` via
    :meth:`attach_telemetry` so memories can record residual norms.
    The disabled path never computes them.
    """

    telemetry = None  # class-level default: no per-instance cost when off

    #: Attributes that hold views of the state rather than state: left
    #: out of :meth:`state_dict` and emptied by :meth:`load_state_dict`,
    #: so a checkpoint holds every residual once.
    _views: tuple[str, ...] = ()

    #: What :meth:`update_fused` consumes as ``transmitted``:
    #: ``"values"`` — the decompressed bucket (one decompress pass per
    #: rank); ``"indices"`` — the flat bucket positions that were sent,
    #: from the compressor's ``transmitted_indices`` (DGC's masking
    #: rule); ``"none"`` — nothing, the trainer passes ``None``.
    fused_transmitted: str = "values"

    #: As :attr:`Compressor.concurrent_ranks`: True when instances share
    #: no mutable state, so ranks' φ and ψ may run at once.
    concurrent_ranks: bool = False

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
        state, and must not be captured or restored — and minus the
        flat per-bucket buffers named by ``_views``, whose name-keyed
        views carry the same values.
        """
        skip = {"telemetry", *self._views}
        return copy.deepcopy(
            {k: v for k, v in self.__dict__.items() if k not in skip}
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (telemetry preserved).

        The snapshot is deep-copied in, so one captured checkpoint can
        be restored multiple times without aliasing live arrays.
        """
        registry = self.telemetry
        self.__dict__.update(copy.deepcopy(state))
        for name in self._views:
            setattr(self, name, {})
        if registry is not None:
            self.telemetry = registry

    @abc.abstractmethod
    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """φ(mᵏ, gᵏ) of every bucket segment as one flat float32 array,
        which the caller compresses.

        ``out`` is a reusable ``bucket.numel``-sized scratch buffer the
        memory may pack into.  The return value may instead be a view of
        the gradient itself (an identity φ of one contiguous float32
        tensor): callers must not write into it.
        """

    @abc.abstractmethod
    def update_fused(
        self,
        compensated: np.ndarray,
        bucket,
        transmitted: np.ndarray | None,
    ) -> None:
        """ψ(mᵏ, gᵏ, g̃ᵏ): fold the error back from flat buckets.

        ``compensated`` and ``transmitted`` are the whole bucket's flat
        float32 compensated and decompressed buffers (``transmitted`` is
        instead the int64 positions that were sent, or ``None``, as
        :attr:`fused_transmitted` says).
        Implementations must not retain these arrays or views of them —
        they alias reused scratch buffers.
        """

    def compensate(self, tensor: np.ndarray, name: str) -> np.ndarray:
        """φ(mᵏ, gᵏ) of one tensor: its one-segment bucket's φ.  It may
        alias ``tensor``; callers must not write into it."""
        array = np.asarray(tensor)
        bucket = tensor_bucket(name, array.shape)
        out = np.empty(bucket.numel, dtype=np.float32)
        return self.compensate_fused({name: array}, bucket, out).reshape(
            array.shape
        )

    def update(
        self,
        compensated: np.ndarray,
        name: str,
        compressor: Compressor,
        compressed: CompressedTensor,
    ) -> None:
        """ψ(mᵏ, gᵏ, g̃ᵏ) of one tensor: its one-segment bucket's ψ."""
        array = np.asarray(compensated)
        update_from_payload(
            self, np.ravel(array), tensor_bucket(name, array.shape),
            compressor, compressed,
        )


def update_from_payload(
    memory: Memory,
    compensated: np.ndarray,
    bucket,
    compressor: Compressor,
    compressed: CompressedTensor,
    scratch: Callable[[], np.ndarray | None] | None = None,
) -> np.ndarray | None:
    """ψ of one bucket from the payload Q made of it.

    ψ takes what ``memory.fused_transmitted`` names: the payload's
    ``decompress_fused``, the positions it carries, or nothing.  Returns
    that decode — Agg averages it instead of decoding the payload again —
    or ``None`` where ψ took none.  ``scratch`` gives the buffer to decode
    into (``None``: a fresh one), and is called only when there is a
    decode, so a memory that takes none holds no buffer for it.  A
    function of the memory rather than a method, so a memory wrapped by a
    proxy is called through the proxy's own ``update_fused``.
    """
    kind = memory.fused_transmitted
    transmitted = None
    if kind == "values":
        transmitted = compressor.decompress_fused(
            compressed, out=scratch() if scratch is not None else None
        )
    elif kind == "indices":
        indices_of = getattr(compressor, "transmitted_indices", None)
        transmitted = None if indices_of is None else indices_of(compressed)
    memory.update_fused(compensated, bucket, transmitted)
    return transmitted if kind == "values" else None


def flatten_with_shape(tensor: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Common preamble: view a gradient as rank-1 plus its original shape."""
    array = np.asarray(tensor)
    return np.ravel(array).astype(np.float32), array.shape
