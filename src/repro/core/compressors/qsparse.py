"""Qsparse-local-SGD's composed operator (Basu et al., NeurIPS 2019).

Surveyed in Table I but not implemented in the paper's release; included
as a framework extension.  The synchronous variant composes quantization
over sparsification with error feedback: select the top-``ratio``
(or random-``ratio``) coordinates, then stochastically quantize the
survivors QSGD-style.  (The "local steps" part of the original method is
an orthogonal communication-frequency knob; GRACE's loop communicates
every iteration, as the paper's framework does.)
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.api import CompressedTensor, FusedBucketCtx, KernelCompressor
from repro.tensorlib import (
    desparsify,
    pack_bits,
    pack_signs,
    quantize_stochastic_levels,
    segment_norms,
    segment_topk,
    sparsify_randomk,
    unpack_bits,
    unpack_signs,
)
from repro.tensorlib.indices import index_dtype


class QsparseLocalSGDCompressor(KernelCompressor):
    """Top-k / random-k selection followed by stochastic quantization."""

    name = "qsparse"
    family = "hybrid"
    stochastic = True
    communication = "allgather"
    default_memory = "residual"

    def __init__(
        self,
        ratio: float = 0.01,
        levels: int = 16,
        selection: str = "topk",
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if selection not in ("topk", "randomk"):
            raise ValueError(
                f"selection must be 'topk' or 'randomk', got {selection!r}"
            )
        self.ratio = float(ratio)
        self.levels = int(levels)
        self.selection = selection
        self.code_bits = max(1, math.ceil(math.log2(self.levels + 1)))

    def _clone_args(self) -> dict:
        return {
            "ratio": self.ratio,
            "levels": self.levels,
            "selection": self.selection,
        }

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """Select per tensor, then quantize and pack what was selected once.

        Top-k selection partitions each tensor's run of the magnitudes
        (:func:`~repro.tensorlib.segment_topk`, ties as ``sparsify_topk``
        breaks them); the selected values then go through the ``qsgd``
        kernel: one norm per tensor over its contiguous run of them, one
        rounding draw over all live ones.  Random-k draws its indices tensor
        by tensor, and a tensor's rounding draw follows its selection draw
        in the stream, so there the rounding stays with the selection and
        only the packing is shared.  An empty tensor selects nothing and
        sends a zero norm.  Wire: the norms, the packed signs and level
        codes of the selected values, and their bucket positions at the
        width the bucket's ``numel`` needs (:meth:`index_extents`).
        """
        ks = bucket.ratio_counts(self.ratio)
        if self.selection == "topk":
            indices = segment_topk(np.abs(buffer), bucket.ends, ks)
            values = buffer[indices]
            norms = segment_norms(values, np.cumsum(ks))
            codes = quantize_stochastic_levels(
                np.abs(values), np.repeat(norms, ks), self.levels,
                rng=self._rng,
            )
        else:
            picked, norms, codes = [], [], []
            for seg, k in zip(bucket.segments, ks.tolist()):
                run, local = sparsify_randomk(
                    buffer[seg.offset:seg.end], k, rng=self._rng
                )
                picked.append(local + seg.offset)
                norms.append(np.float32(np.linalg.norm(run)))
                codes.append(quantize_stochastic_levels(
                    np.abs(run), norms[-1], self.levels, rng=self._rng
                ))
            indices = np.concatenate(picked)
            values = buffer[indices]
            norms = np.array(norms, dtype=np.float32)
            codes = np.concatenate(codes)
        payload = [
            norms,
            pack_signs(values),
            pack_bits(codes, bits=self.code_bits),
            indices.astype(index_dtype(bucket.numel)),
        ]
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def index_extents(self, bucket) -> dict[int, int]:
        """Positions count from the start of the bucket."""
        return {3: bucket.numel}

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        norms, packed_signs, packed_codes, indices = payload
        ks = bucket.ratio_counts(self.ratio)
        count = int(ks.sum())
        signs = unpack_signs(packed_signs, count)
        codes = unpack_bits(packed_codes, bits=self.code_bits, count=count)
        values = (
            np.repeat(norms, ks) * signs * codes.astype(np.float32)
            / self.levels
        )
        return desparsify(values, indices.astype(np.int64), bucket.numel)

    def transmitted_indices(self, compressed: CompressedTensor) -> np.ndarray:
        """Flat indices sent on the wire (bucket positions when fused)."""
        return compressed.payload[3].astype(np.int64)
