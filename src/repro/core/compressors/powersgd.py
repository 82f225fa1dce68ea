"""PowerSGD (Vogels et al., NeurIPS 2019), and the low-rank bucket kernel.

Low-rank compression by a single step of subspace (power) iteration:
the gradient, viewed as an m×L matrix M, is factorized into P ∈ R^{m×r}
and Q ∈ R^{L×r} with ``P = M Q_prev`` (orthonormalized) and
``Q = Mᵀ P``.  The per-tensor Q factor is reused across iterations
(warm start), which is what makes one iteration sufficient.  The scheme
is biased, so error feedback is on by default (Table I).

Tensors with fewer than ``min_compress_size`` elements — biases, norms —
are sent uncompressed, as the reference implementation does.

:class:`LowRankCompressor`, the bucket kernel this module shares with
ATOMO, GradiVeQ and GradZip, lives here beside the matrix view and the
Gram-matrix SVD they build on.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.api import (
    CompressedTensor,
    FusedBucketCtx,
    KernelCompressor,
    rank_sum,
    summand_count,
)
from repro.core.rng import name_seed


def _orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Gram-Schmidt orthonormalization of the columns (in float64)."""
    q, _ = np.linalg.qr(matrix.astype(np.float64))
    return q


def _matrix_view(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """View an arbitrary-rank gradient as a 2-D matrix (paper's Fig. 5)."""
    if len(shape) <= 1:
        return flat.reshape(1, -1)
    rows = shape[0]
    return flat.reshape(rows, -1)


class _GramSVD:
    """Thin-SVD triples of a float64 matrix from its Gram matrix.

    One symmetric eigendecomposition of the short side's Gram matrix —
    ``AᵀA`` for a tall ``A``, ``AAᵀ`` for a wide one — gives every
    singular value, ``σ = sqrt(λ)`` in descending order, and that side's
    singular vectors; :meth:`triples` forms the other side only for the
    triples asked for (``Uσ = AV`` when tall, ``σVᵀ = UᵀA`` when wide).
    The eigenvalues' absolute error is about ``n·eps₆₄·σ₁²`` for a short
    side of ``n``, so a reconstruction is within float32 rounding of the
    full SVD's.  A ``λ`` inside that error is rounding noise whose formed
    vector would be noise too (its norm is not 1), so its ``σ`` is 0.  The
    Gram matrix is a ``matmul``: an ``einsum`` one is not bitwise equal
    when matrices are stacked.
    """

    __slots__ = ("matrix", "tall", "sigma", "basis")

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.tall = matrix.shape[0] >= matrix.shape[1]
        gram = matrix.T @ matrix if self.tall else matrix @ matrix.T
        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        eigenvalues = eigenvalues[::-1]
        noise = max(eigenvalues[0], 0.0) * len(gram) * np.finfo(np.float64).eps
        self.sigma = np.sqrt(np.where(eigenvalues > noise, eigenvalues, 0.0))
        self.basis = eigenvectors[:, ::-1]

    def triples(self, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(U m×k, σ k, Vᵀ k×L)`` of the triples ``index``; a singular
        value of 0 gets zero vectors on the formed side."""
        sigma = self.sigma[index]
        basis = self.basis[:, index]
        if self.tall:
            u_sigma = self.matrix @ basis
            u = np.divide(u_sigma, sigma, out=np.zeros_like(u_sigma),
                          where=sigma > 0)
            return u, sigma, basis.T
        sigma_vt = basis.T @ self.matrix
        vt = np.divide(sigma_vt, sigma[:, None], out=np.zeros_like(sigma_vt),
                       where=sigma[:, None] > 0)
        return basis, sigma, vt


class AggregatedFactorsCtx:
    """Ctx of a summed low-rank bucket payload.

    Laid out like one kernel payload of ``bucket``: the dense part, now
    the summands' sum, then every factored segment's parts, now its
    summands' factor blocks concatenated along the atom axis.
    ``blocks[i]`` holds each summand's atom count in the ``i``-th factored
    segment, in summand order; the decode sums the blocks' float32
    products in that order — the cast-then-add sequence of decompressing
    every summand and adding the results.
    """

    __slots__ = ("bucket", "blocks", "n_summands")

    def __init__(self, bucket, blocks, n_summands: int):
        self.bucket = bucket
        self.blocks = tuple(tuple(int(k) for k in seg) for seg in blocks)
        self.n_summands = int(n_summands)


def _atoms(part: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    """The view of atoms ``[start, stop)`` of a factor part along ``axis``."""
    index = [slice(None)] * part.ndim
    index[axis] = slice(start, stop)
    return part[tuple(index)]


class LowRankCompressor(KernelCompressor):
    """A bucket kernel that factors each large segment's matrix view.

    The wire format depends on ``min_compress_size`` and the layout only.
    Segments with fewer elements travel as one dense float32 part, in
    segment order, present only when the layout has such a segment; then
    come every other segment's factor parts, in segment order.  A
    one-segment bucket's payload is its tensor's own.  How many atoms
    (rank-one terms) a segment keeps is read from its parts' shapes, so a
    peer decodes a payload under its own ctx.

    A subclass writes the factor math of one matrix: :meth:`_factors`
    builds the float32 parts, :meth:`_product` rebuilds the float64 matrix
    from them, and ``ATOM_AXES`` names, part by part, the axis the atoms
    run along — how a sum's blocks are concatenated and cut apart again.
    """

    family = "low-rank"
    #: Per factor part, the axis along which it lists its atoms.
    ATOM_AXES: tuple[int, ...] = ()

    def __init__(self, min_compress_size: int, seed: int):
        super().__init__(seed=seed)
        self.min_compress_size = int(min_compress_size)

    @abc.abstractmethod
    def _factors(self, matrix: np.ndarray, name: str) -> list[np.ndarray]:
        """The float32 factor parts of one segment's matrix view."""

    @abc.abstractmethod
    def _product(self, factors: list[np.ndarray]) -> np.ndarray:
        """The float64 matrix that float64 factors stand for."""

    def _layout(self, bucket) -> tuple[list, list]:
        """The bucket's segments sent dense, and those factored."""
        dense, factored = [], []
        for seg in bucket.segments:
            (dense if seg.size < self.min_compress_size else factored).append(
                seg
            )
        return dense, factored

    def compress_fused(self, buffer: np.ndarray, bucket) -> CompressedTensor:
        """The dense part, then each factored segment's parts, in order."""
        dense, factored = self._layout(bucket)
        payload = []
        if dense:
            payload.append(np.concatenate(
                [buffer[seg.offset:seg.end] for seg in dense],
                dtype=np.float32,
            ))
        for seg in factored:
            payload += self._factors(
                _matrix_view(buffer[seg.offset:seg.end], seg.shape), seg.name
            )
        return CompressedTensor(payload=payload, ctx=FusedBucketCtx(bucket))

    def _split(self, payload, factored, blocks=None):
        """``(dense part or none, factor parts, atom counts)`` of a fresh
        payload or, given its ``blocks``, a summed one; the last two are
        per factored segment."""
        n_parts = len(self.ATOM_AXES)
        start = len(payload) - n_parts * len(factored)
        factors = [
            payload[start + n_parts * i:start + n_parts * (i + 1)]
            for i in range(len(factored))
        ]
        if blocks is None:
            blocks = [(parts[0].shape[self.ATOM_AXES[0]],) for parts in factors]
        return payload[:start], factors, blocks

    def _decompress_bucket(self, payload, bucket) -> np.ndarray:
        return self._decode(payload, bucket)

    def _decode(self, payload, bucket, blocks=None) -> np.ndarray:
        """Flat float32 bucket of a fresh or summed payload: a factored
        segment's value is its blocks' float32 products, added in order."""
        dense_segments, factored = self._layout(bucket)
        dense, factors, blocks = self._split(payload, factored, blocks)
        out = np.empty(bucket.numel, dtype=np.float32)
        start = 0
        for seg in dense_segments:
            out[seg.offset:seg.end] = dense[0][start:start + seg.size]
            start += seg.size
        for seg, parts, counts in zip(factored, factors, blocks):
            parts = [np.asarray(part, dtype=np.float64) for part in parts]
            total = out[seg.offset:seg.end]
            at = 0
            for index, atoms in enumerate(counts):
                block = self._product([
                    _atoms(part, axis, at, at + atoms)
                    for part, axis in zip(parts, self.ATOM_AXES)
                ]).reshape(-1)
                # The first block is cast straight into the bucket: a
                # float32 copy of a megabyte tensor costs as much again.
                if index == 0:
                    total[:] = block
                else:
                    total += block.astype(np.float32)
                at += atoms
        return out

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact compressed-domain sum: the dense parts add, factors stack.

        A sum of rank-``r`` factorizations is a factorization of the summed
        ranks, so every factored segment concatenates its summands' factor
        blocks and the server never rebuilds a dense matrix.  Sums of sums
        (the hierarchical reducer's rack totals) aggregate the same way.
        """
        if self.aggregation == "none":
            return super().aggregate_compressed(items)
        if not items:
            raise ValueError("nothing to aggregate")
        bucket = items[0].ctx.bucket
        factored = self._layout(bucket)[1]
        splits = []
        for item in items:
            if item.ctx.bucket.segments != bucket.segments:
                raise ValueError(
                    "cannot aggregate low-rank payloads of different bucket "
                    "layouts"
                )
            splits.append(self._split(
                item.payload, factored, getattr(item.ctx, "blocks", None)
            ))
        dense = [part for parts, _, _ in splits for part in parts]
        payload = [rank_sum(dense)] if dense else []
        for i in range(len(factored)):
            payload += [
                np.concatenate(
                    [np.asarray(factors[i][j], dtype=np.float32)
                     for _, factors, _ in splits],
                    axis=axis,
                )
                for j, axis in enumerate(self.ATOM_AXES)
            ]
        blocks = [
            [k for _, _, counts in splits for k in counts[i]]
            for i in range(len(factored))
        ]
        return CompressedTensor(
            payload=payload,
            ctx=AggregatedFactorsCtx(
                bucket, blocks, sum(summand_count(item) for item in items)
            ),
        )

    def decompress_aggregated(
        self, compressed: CompressedTensor
    ) -> np.ndarray:
        ctx = compressed.ctx
        if not isinstance(ctx, AggregatedFactorsCtx):
            return super().decompress_aggregated(compressed)
        return self._decode(
            compressed.payload, ctx.bucket, ctx.blocks
        ).reshape(ctx.bucket.shape)


class PowerSGDCompressor(LowRankCompressor):
    """Rank-r power-iteration factorization with warm-started Q."""

    name = "powersgd"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    aggregation = "exact-linear"
    ATOM_AXES = (1, 1)  # P m×r, Q L×r

    def __init__(self, rank: int = 1, min_compress_size: int = 1024, seed: int = 0):
        super().__init__(min_compress_size, seed)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = int(rank)
        self._q_memory: dict[str, np.ndarray] = {}

    def _clone_args(self) -> dict:
        return {"rank": self.rank, "min_compress_size": self.min_compress_size}

    def _factors(self, matrix: np.ndarray, name: str) -> list[np.ndarray]:
        """One power-iteration step from the tensor's warm-started Q."""
        m, length = matrix.shape
        rank = min(self.rank, m, length)
        q_prev = self._q_memory.get(name)
        if q_prev is None or q_prev.shape != (length, rank):
            # All workers construct the same deterministic start so their Q
            # factors stay synchronized, as the reference implementation's
            # shared seed does.
            start_rng = np.random.default_rng(name_seed(name))
            q_prev = _orthonormalize(start_rng.standard_normal((length, rank)))
        p = matrix @ q_prev
        p = _orthonormalize(p)
        q = matrix.T @ p
        self._q_memory[name] = _orthonormalize(q)
        return [p.astype(np.float32), q.astype(np.float32)]

    def _product(self, factors: list[np.ndarray]) -> np.ndarray:
        p, q = factors
        return p @ q.T
