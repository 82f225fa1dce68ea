"""Runtime contract sanitizer for compression operators.

:class:`ContractChecker` wraps any registered :class:`Compressor` and
re-validates the §IV-B contract on every call — the dynamic complement
to the static ``repro lint`` rules (``repro.analysis.lint``):

==================  =====================================================
payload-type        every payload part is a plain ndarray of a dtype the
                    wire can frame (GR004's runtime twin)
wire-roundtrip      the payload survives :func:`serialize_payload` /
                    :func:`deserialize_payload` bitwise
ctx-honesty         ctx carries no ndarrays — tensor-derived arrays must
                    travel in the payload (GR003's runtime twin)
nbytes              the cached ``CompressedTensor.nbytes`` equals the sum
                    of the payload parts' sizes
input-mutation      ``compress`` and ``compress_fused`` leave their input
                    untouched (an identity φ hands Q the gradient itself)
roundtrip           ``decompress(compress(t))`` returns the original
                    shape as float32
determinism         replaying ``compress`` on a deep-copied snapshot
                    (same RNG state, same memory state) reproduces the
                    payload bitwise
fused-parity        ``compress_fused`` decompresses bitwise-equal to
                    :func:`per_segment_decode` on the same snapshot
format-stability    ``compress_fused`` keeps its wire format (ctx type,
                    part count, part dtypes) when one segment of the
                    bucket is all zero — peers decode each other's
                    payloads under their own ctx
aggregate-*         ``aggregate_compressed`` honours its declared
                    capability: exact-linear schemes must decode bitwise
                    to the decompress-then-sum reference (signed zeros
                    normalized); codebook schemes must return a lattice
                    payload carrying its own ``n·δ*`` tolerance and stay
                    within it; sketch schemes must satisfy the doubling
                    law ``aggregate([c, c]) == compress(2t)`` bitwise in
                    sketch space — approximation may never pass silently
index-width         every index part — those a kernel declares in
                    ``index_extents``, and an aggregated coordinate
                    list's — travels at ``index_dtype`` of the extent it
                    counts in, the width the receiver derives from the
                    layout
aggregate-size      an aggregate stays within its kind's byte bound: a
                    lattice sum of N payloads whose codes reach |L|
                    ⌈log₂(N·(2L+1))⌉ bits an element (32 past 16) plus
                    its δs and width byte; a coordinate sum
                    min((4+w)·union, 4·size) bytes at a w-byte index
                    width; a sketch sum one table
==================  =====================================================

Enable it end-to-end with ``repro train --sanitize``; the registry-wide
sweep in ``tests/core/test_contract_sweep.py`` drives every registered
compressor through it.  Violations raise :class:`ContractViolation` with
the compressor name and the check that failed.

The fused-parity check compares bitwise, which is exactly what the fused
kernels document.  Its reference compresses each segment alone, as its
one-segment bucket, in segment order, so the check holds a bucket to its
tensors; ``tests/core/golden/kernel_digests.json`` holds the one-segment
kernels to the per-tensor bodies they replaced.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from repro.core.api import (
    PACKED_CODE_BITS,
    AggregatedCoordsCtx,
    AggregatedDenseCtx,
    AggregatedLatticeCtx,
    AggregationUnsupportedError,
    CompressedTensor,
    Compressor,
    FusedBucketCtx,
    PayloadTypeError,
    summand_count,
    validate_payload,
)
from repro.core.fusion import tensor_bucket
from repro.core.wire import deserialize_payload, serialize_payload
from repro.tensorlib.indices import index_dtype


def per_segment_decode(
    compressor: Compressor, buffer: np.ndarray, bucket
) -> np.ndarray:
    """The fused-parity reference: each segment of ``bucket`` compressed
    alone, as its one-segment bucket, in segment order, and decoded into
    one flat float32 array."""
    out = np.empty(bucket.numel, dtype=np.float32)
    for seg in bucket.segments:
        compressed = compressor.compress_fused(
            buffer[seg.offset:seg.end], tensor_bucket(seg.name, seg.shape)
        )
        out[seg.offset:seg.end] = compressor.decompress_fused(compressed)
    return out


class ContractViolation(AssertionError):
    """A wrapped compressor broke the §IV-B contract at runtime.

    Attributes
    ----------
    compressor:
        Registry name of the offending compressor.
    check:
        Short identifier of the failed check (see the module table).
    """

    def __init__(self, compressor: str, check: str, message: str):
        super().__init__(f"[{compressor}] {check}: {message}")
        self.compressor = compressor
        self.check = check


def _ctx_arrays(ctx: Any, path: str = "ctx") -> list[str]:
    """Paths of every ndarray reachable through a plain-container ctx.

    Only tuples/lists/dicts are walked — opaque fused ctx objects (which
    legitimately hold the receiver-known bucket plan) are left alone.
    """
    if isinstance(ctx, np.ndarray):
        return [path]
    if isinstance(ctx, (tuple, list)):
        return [
            found
            for i, item in enumerate(ctx)
            for found in _ctx_arrays(item, f"{path}[{i}]")
        ]
    if isinstance(ctx, dict):
        return [
            found
            for key, item in ctx.items()
            for found in _ctx_arrays(item, f"{path}[{key!r}]")
        ]
    return []


def _payloads_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype
        and x.shape == y.shape
        and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


class ContractChecker(Compressor):
    """Transparent validating wrapper around a compressor.

    Drop-in for the wrapped instance: metadata attributes (``name``,
    ``communication``, ``fused_kernel``, …) mirror the inner compressor,
    unknown attributes (``transmitted_indices`` et al.) delegate to it,
    and :meth:`clone` wraps the clone so per-worker copies stay checked.

    ``check_every`` thins the expensive checks (deep-copy determinism
    replay, fused reference compression) to every N-th call; the cheap
    structural checks always run.
    """

    def __init__(self, inner: Compressor, check_every: int = 1):
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        super().__init__(seed=0)
        self.inner = inner
        self.check_every = int(check_every)
        self._calls = 0
        # Mirror the Table I metadata so registry/trainer introspection
        # (communication strategy, fused-kernel dispatch, default memory)
        # sees the wrapped compressor's answers.
        self.name = inner.name
        self.family = inner.family
        self.stochastic = inner.stochastic
        self.communication = inner.communication
        self.default_memory = inner.default_memory
        self.fused_kernel = inner.fused_kernel
        self.aggregation = inner.aggregation

    # -- delegation ----------------------------------------------------------

    def __getattr__(self, attr: str):
        # Only consulted when normal lookup fails.  'inner' must raise
        # (not recurse) while copy/pickle rebuilds an empty instance.
        if attr == "inner" or attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def reseed(self, seed: int) -> None:
        self.inner.reseed(seed)

    def clone(self, seed: int) -> "ContractChecker":
        return ContractChecker(
            self.inner.clone(seed), check_every=self.check_every
        )

    def aggregate(self, tensors: list[np.ndarray]) -> np.ndarray:
        return self.inner.aggregate(tensors)

    def decompress_aggregated(
        self, compressed: CompressedTensor
    ) -> np.ndarray:
        return self.inner.decompress_aggregated(compressed)

    def index_extents(self, bucket) -> dict[int, int]:
        return self.inner.index_extents(bucket)

    # -- checks --------------------------------------------------------------

    def _fail(self, check: str, message: str) -> None:
        raise ContractViolation(self.inner.name, check, message)

    def _check_structure(self, compressed: CompressedTensor) -> None:
        """The cheap, always-on checks: payload types, ctx, nbytes and
        index widths."""
        try:
            validate_payload(compressed.payload)
        except PayloadTypeError as exc:
            self._fail("payload-type", str(exc))
        arrays = _ctx_arrays(compressed.ctx)
        if arrays:
            self._fail(
                "ctx-honesty",
                f"ndarray(s) at {', '.join(arrays)} — tensor-derived "
                f"arrays must travel in the payload so nbytes accounting "
                f"is honest (paper §IV-B)",
            )
        declared = compressed.nbytes
        actual = sum(int(part.nbytes) for part in compressed.payload)
        if declared != actual:
            self._fail(
                "nbytes",
                f"CompressedTensor.nbytes says {declared} but the payload "
                f"parts sum to {actual}",
            )
        self._check_index_width(compressed)

    def _check_index_width(self, compressed: CompressedTensor) -> None:
        """Every index part travels at the width its extent needs.

        A kernel payload's index parts are the ones the compressor
        declares for its bucket (:meth:`Compressor.index_extents`); an
        aggregated coordinate list's are its positions in the segment.
        """
        ctx = compressed.ctx
        if isinstance(ctx, FusedBucketCtx):
            extents = self.inner.index_extents(ctx.bucket)
        elif isinstance(ctx, AggregatedCoordsCtx):
            extents = {1: ctx.size}
        else:
            return
        for part, extent in extents.items():
            wanted = index_dtype(extent)
            found = compressed.payload[part].dtype
            if found != wanted:
                self._fail(
                    "index-width",
                    f"index part {part} is {found}, but a part counting in "
                    f"{extent} positions travels as {wanted} — the width "
                    f"both sides derive from the layout",
                )

    def _check_wire(self, compressed: CompressedTensor) -> None:
        """The payload must survive wire framing bitwise."""
        try:
            parsed = deserialize_payload(serialize_payload(compressed.payload))
        except (PayloadTypeError, ValueError) as exc:
            self._fail("wire-roundtrip", f"payload is not serializable: {exc}")
            return  # unreachable; keeps type-checkers happy
        if not _payloads_equal(compressed.payload, parsed):
            self._fail(
                "wire-roundtrip",
                "payload does not survive serialize/deserialize bitwise",
            )

    def _check_aliasing(
        self, compressed: CompressedTensor, source: np.ndarray, what: str
    ) -> None:
        """No payload part may alias the compress input buffer.

        The trainer hands compressors *reusable* scratch buffers (the
        per-rank :class:`~repro.core.fusion.ScratchPool`), and the
        real-parallel backend additionally keeps payload bytes alive
        across nonblocking collectives.  A payload that aliases its
        input would silently change when the scratch is overwritten for
        the next bucket/iteration — so a compressor must always copy
        (slicing, ``compressed = buffer[idx]`` views, and identity
        returns are all violations).
        """
        for index, part in enumerate(compressed.payload):
            if np.may_share_memory(part, source):
                self._fail(
                    "scratch-aliasing",
                    f"payload part {index} shares memory with the "
                    f"{what} — compressors must not retain references "
                    f"into reusable scratch buffers across calls",
                )

    def _due(self) -> bool:
        self._calls += 1
        return (self._calls - 1) % self.check_every == 0

    # -- the compression contract --------------------------------------------

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        tensor = np.asarray(tensor)
        expensive = self._due()
        snapshot = copy.deepcopy(self.inner) if expensive else None
        sketch_snapshot = (
            copy.deepcopy(self.inner)
            if expensive and self.inner.aggregation == "sketch"
            else None
        )
        before = tensor.copy() if expensive else None

        compressed = self.inner.compress(tensor, name)

        self._check_structure(compressed)
        self._check_aliasing(compressed, tensor, f"input tensor {name!r}")
        self._check_wire(compressed)
        if not expensive:
            return compressed

        if not np.array_equal(before, tensor):
            self._fail("input-mutation", f"compress mutated tensor {name!r}")

        out = self.inner.decompress(compressed)
        if not isinstance(out, np.ndarray):
            self._fail(
                "roundtrip", f"decompress returned {type(out).__name__}"
            )
        if tuple(out.shape) != tuple(tensor.shape):
            self._fail(
                "roundtrip",
                f"decompress returned shape {tuple(out.shape)}, "
                f"expected {tuple(tensor.shape)}",
            )
        if out.dtype != np.float32:
            self._fail(
                "roundtrip",
                f"decompress returned dtype {out.dtype}, expected float32",
            )

        replay = snapshot.compress(before, name)
        if not _payloads_equal(compressed.payload, replay.payload):
            self._fail(
                "determinism",
                "replaying compress on a state-snapshot did not reproduce "
                "the payload — hidden state or unseeded randomness",
            )
        if self.inner.aggregation == "sketch":
            # Sketch aggregation is exact in *sketch space*: doubling a
            # gradient doubles every table entry bitwise (a pure exponent
            # shift), so aggregate([c, c]) must equal compress(2t).
            doubled_ref = sketch_snapshot.compress(
                before * np.float32(2.0), name
            )
            doubled = self.inner.aggregate_compressed(
                [compressed, compressed]
            )
            if not _payloads_equal(doubled.payload, doubled_ref.payload):
                self._fail(
                    "aggregate-sketch-linearity",
                    "aggregate_compressed([c, c]) is not bitwise equal to "
                    "compress(2·t) — the sketch tables do not sum linearly",
                )
        return compressed

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        return self.inner.decompress(compressed)

    # -- fused path ----------------------------------------------------------

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        expensive = self._due()
        snapshot = copy.deepcopy(self.inner) if expensive else None
        before = np.array(buffer) if expensive else None

        compressed = self.inner.compress_fused(buffer, bucket)

        self._check_structure(compressed)
        self._check_aliasing(compressed, buffer, "fused scratch buffer")
        self._check_wire(compressed)
        if not expensive:
            return compressed
        if before.tobytes() != np.asarray(buffer).tobytes():
            self._fail(
                "input-mutation",
                f"compress_fused wrote into its input, bucket {bucket.index} "
                f"({len(bucket)} tensors) — the input may be the gradient "
                f"itself",
            )

        out = self.inner.decompress_fused(compressed)
        if tuple(out.shape) != (bucket.numel,) or out.dtype != np.float32:
            self._fail(
                "roundtrip",
                f"decompress_fused returned {out.dtype}{tuple(out.shape)}, "
                f"expected float32({bucket.numel},)",
            )
        # The bucket's tensors compressed one by one on an identical
        # snapshot (same RNG state) are the parity reference every fused
        # kernel documents itself against.
        probe = copy.deepcopy(snapshot) if self.inner.fused_kernel else None
        expected = per_segment_decode(snapshot, buffer, bucket)
        if out.tobytes() != expected.tobytes():
            self._fail(
                "fused-parity",
                "fused kernel decompresses differently from its segments "
                "compressed one by one with the same seed",
            )
        if self.inner.fused_kernel:
            self._check_format_stability(probe, compressed, buffer, bucket)
        return compressed

    def _check_format_stability(
        self, probe: Compressor, compressed: CompressedTensor,
        buffer: np.ndarray, bucket,
    ) -> None:
        """A dead layer on one rank must not change the wire format.

        In worker mode a rank decodes its peers' payloads under its own
        ctx, so the format may depend on parameters and bucket layout
        (every rank shares those) but never on the values: ``probe``, a
        snapshot from before the call, compresses the same bucket with
        its first non-empty segment zeroed.  Binds the fused kernels; a
        compressor without one keeps whatever its per-tensor format does.
        """
        dead = next((seg for seg in bucket.segments if seg.size), None)
        if dead is None:
            return
        zeroed = np.array(buffer, dtype=np.float32)
        zeroed[dead.offset:dead.end] = 0.0
        other = probe.compress_fused(zeroed, bucket)

        def layout(item: CompressedTensor):
            return type(item.ctx).__name__, [p.dtype for p in item.payload]

        if layout(other) != layout(compressed):
            self._fail(
                "format-stability",
                f"zeroing segment {dead.name!r} changed the fused wire "
                f"format from {layout(compressed)} to {layout(other)} — a "
                f"peer decoding under its own ctx would misread it",
            )

    def decompress_fused(
        self, compressed: CompressedTensor, out: np.ndarray | None = None
    ) -> np.ndarray:
        return self.inner.decompress_fused(compressed, out=out)

    # -- compressed-domain aggregation ---------------------------------------

    def _decode_summand(self, item: CompressedTensor) -> np.ndarray:
        """Flat dense decode of one aggregation input (plain or fused).

        Fresh kernel payloads carry the bucket plan and decode through
        ``decompress_fused``; everything else (plain payloads and
        already-aggregated ones being re-aggregated) decodes through
        ``decompress_aggregated``.
        """
        if isinstance(item.ctx, FusedBucketCtx):
            return np.ravel(self.inner.decompress_fused(item))
        return np.ravel(self.inner.decompress_aggregated(item))

    def _lattice_tolerance(self, result: CompressedTensor) -> np.ndarray:
        """The ``n_summands·δ*`` per-element bound a codebook sum declares."""
        ctx = result.ctx
        n = summand_count(result)
        if isinstance(ctx, AggregatedLatticeCtx):
            deltas = np.asarray(result.payload[0], dtype=np.float64)
            return n * np.repeat(
                deltas, np.asarray(ctx.seg_sizes, dtype=np.int64)
            )
        self._fail(
            "aggregate-tolerance",
            f"codebook aggregation returned a {type(ctx).__name__} payload "
            "— approximate sums must carry their δ* tolerance in a lattice "
            "ctx instead of silently passing as exact",
        )

    def _aggregate_bound(
        self, items: list[CompressedTensor], result: CompressedTensor
    ) -> int | None:
        """The most bytes ``result`` may take, by its kind; ``None`` for
        kinds with no bound (low-rank factors)."""
        ctx = result.ctx
        if self.inner.aggregation == "sketch":
            return max(np.asarray(item.payload[0]).nbytes for item in items)
        if isinstance(ctx, AggregatedLatticeCtx):
            peak = max(
                int(np.max(np.abs(form[4]), initial=0))
                for form in map(self.inner._lattice_form, items)
            )
            bits = max(1, (len(items) * (2 * peak + 1) - 1).bit_length())
            if bits > PACKED_CODE_BITS:
                bits = 32
            header = 4 * len(ctx.seg_sizes) + 1
            return header + -(-ctx.size * bits // 8)
        if isinstance(ctx, (AggregatedCoordsCtx, AggregatedDenseCtx)):
            size = int(np.prod(ctx.shape, dtype=np.int64))
            try:
                forms = [self.inner._coords_form(item) for item in items]
            except AggregationUnsupportedError:  # dense summands
                return 4 * size
            union = np.unique(np.concatenate([form[3] for form in forms]))
            width = index_dtype(size).itemsize
            return min((4 + width) * union.size, 4 * size)
        return None

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Validate the declared aggregation capability on a real sum."""
        kind = self.inner.aggregation
        expensive = self._due()
        result = self.inner.aggregate_compressed(list(items))

        self._check_structure(result)
        self._check_wire(result)
        claimed = summand_count(result)
        actual = sum(summand_count(item) for item in items)
        if claimed != actual:
            self._fail(
                "aggregate-summands",
                f"aggregate of {actual} worker gradients claims "
                f"n_summands={claimed}",
            )
        bound = self._aggregate_bound(items, result) if expensive else None
        if bound is not None and result.nbytes > bound:
            self._fail(
                "aggregate-size",
                f"{kind} aggregate of {len(items)} payloads takes "
                f"{result.nbytes} bytes, over its bound of {bound}",
            )
        if not expensive or kind == "sketch":
            # Sketch-space exactness is checked by the doubling law in
            # :meth:`compress` (the dense decode is legitimately
            # nonlinear, so there is no dense reference to compare here).
            return result

        decoded = np.ravel(self.inner.decompress_aggregated(result))
        parts = [self._decode_summand(item) for item in items]
        reference = np.sum(np.stack(parts), axis=0)
        if kind == "exact-linear":
            # +0.0 normalizes signed zeros: scatter-add and stacked sum
            # legitimately disagree only on -0.0 vs +0.0.
            if (decoded + 0.0).tobytes() != (reference + 0.0).tobytes():
                self._fail(
                    "aggregate-exactness",
                    "exact-linear aggregate does not decode bitwise to "
                    "the decompress-then-sum reference",
                )
        elif kind == "codebook":
            tolerance = self._lattice_tolerance(result)
            reference64 = np.sum(
                np.stack([p.astype(np.float64) for p in parts]), axis=0
            )
            error = np.abs(decoded.astype(np.float64) - reference64)
            # Tiny relative slack for the decode's own f64→f32 rounding.
            if np.any(error > tolerance * (1.0 + 1e-6) + 1e-9):
                self._fail(
                    "aggregate-tolerance",
                    f"codebook aggregate exceeds its declared n·δ* bound: "
                    f"max error {float(error.max()):.3e} vs tolerance "
                    f"{float(tolerance.max()):.3e}",
                )
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContractChecker({self.inner!r}, check_every={self.check_every})"
