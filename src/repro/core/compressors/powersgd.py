"""PowerSGD (Vogels et al., NeurIPS 2019).

Low-rank compression by a single step of subspace (power) iteration:
the gradient, viewed as an m×L matrix M, is factorized into P ∈ R^{m×r}
and Q ∈ R^{L×r} with ``P = M Q_prev`` (orthonormalized) and
``Q = Mᵀ P``.  The per-tensor Q factor is reused across iterations
(warm start), which is what makes one iteration sufficient.  The scheme
is biased, so error feedback is on by default (Table I).

Tensors with fewer than ``min_compress_size`` elements — biases, norms —
are sent uncompressed, as the reference implementation does.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    AggregatedDenseCtx,
    CompressedTensor,
    Compressor,
    flatten_with_shape,
    is_fused_concat_ctx,
    summand_count,
)
from repro.core.rng import name_seed


class _AggFactorsCtx:
    """Ctx of an aggregated factor payload ``[P m×R, Q L×R]``.

    ``blocks`` holds each summand's rank: columns ``[c, c+r)`` of both
    factors form one worker's contribution, and the decode sums the
    per-block float32 products in block order — the same cast-then-add
    sequence the legacy decompress-every-payload path performs.
    """

    __slots__ = ("shape", "size", "blocks", "n_summands")

    def __init__(self, shape, size, blocks, n_summands):
        self.shape = tuple(shape)
        self.size = int(size)
        self.blocks = tuple(int(b) for b in blocks)
        self.n_summands = int(n_summands)


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


class PowerSGDCompressor(Compressor):
    """Rank-r power-iteration factorization with warm-started Q."""

    name = "powersgd"
    family = "low-rank"
    stochastic = False
    communication = "allgather"
    default_memory = "residual"
    aggregation = "exact-linear"

    def __init__(self, rank: int = 1, min_compress_size: int = 1024, seed: int = 0):
        super().__init__(seed=seed)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = int(rank)
        self.min_compress_size = int(min_compress_size)
        self._q_memory: dict[str, np.ndarray] = {}

    def _clone_args(self) -> dict:
        return {"rank": self.rank, "min_compress_size": self.min_compress_size}

    def compress(self, tensor: np.ndarray, name: str) -> CompressedTensor:
        """Apply Q: returns the wire payload plus decompression ctx."""
        flat, shape = flatten_with_shape(tensor)
        if flat.size < self.min_compress_size:
            return CompressedTensor(
                payload=[flat.astype(np.float32)], ctx=(shape, flat.size, False)
            )
        matrix = _matrix_view(flat, shape)
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
        payload = [p.astype(np.float32), q.astype(np.float32)]
        return CompressedTensor(payload=payload, ctx=(shape, flat.size, True))

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Apply Q^-1: rebuild a dense tensor of the original shape."""
        shape, size, was_compressed = compressed.ctx
        if not was_compressed:
            return compressed.payload[0].reshape(shape)
        p, q = compressed.payload
        matrix = p.astype(np.float64) @ q.astype(np.float64).T
        return matrix.astype(np.float32).reshape(shape)

    def _factor_blocks(self, compressed: CompressedTensor):
        """(P, Q, per-summand ranks) of a plain or aggregated payload."""
        ctx = compressed.ctx
        p, q = compressed.payload
        if isinstance(ctx, _AggFactorsCtx):
            return p, q, ctx.blocks
        return p, q, (p.shape[1],)

    def aggregate_compressed(
        self, items: list[CompressedTensor]
    ) -> CompressedTensor:
        """Exact factor accumulation: column-concatenate P and Q blocks.

        The sum of rank-r outer products is a rank-``n·r`` factorization,
        so the server never reconstructs the dense matrix.  Each block's
        float32 product is summed at decode time in worker order, which
        matches the legacy decompress-then-sum path bitwise.
        """
        if not items:
            raise ValueError("nothing to aggregate")
        ctx = items[0].ctx
        if is_fused_concat_ctx(ctx):
            return self._aggregate_fused_segments(items)
        if isinstance(ctx, AggregatedDenseCtx):
            # Re-aggregating dense rack sums (hierarchical reduction).
            return self._aggregate_dense(items, ctx.shape)
        if isinstance(ctx, tuple) and not ctx[2]:
            # Small tensors travel uncompressed; their sum is dense.
            # The size threshold is receiver-known, so every summand
            # took the same branch.
            return self._aggregate_dense(items, ctx[0])
        shape = ctx.shape if isinstance(ctx, _AggFactorsCtx) else ctx[0]
        size = ctx.size if isinstance(ctx, _AggFactorsCtx) else ctx[1]
        ps, qs, blocks = [], [], []
        for item in items:
            p, q, item_blocks = self._factor_blocks(item)
            ps.append(np.asarray(p, dtype=np.float32))
            qs.append(np.asarray(q, dtype=np.float32))
            blocks.extend(item_blocks)
        total = sum(summand_count(item) for item in items)
        return CompressedTensor(
            payload=[np.concatenate(ps, axis=1), np.concatenate(qs, axis=1)],
            ctx=_AggFactorsCtx(shape, size, blocks, total),
        )

    def decompress_aggregated(
        self, compressed: CompressedTensor
    ) -> np.ndarray:
        ctx = compressed.ctx
        if not isinstance(ctx, _AggFactorsCtx):
            return super().decompress_aggregated(compressed)
        p, q = compressed.payload
        p64 = np.asarray(p, dtype=np.float64)
        q64 = np.asarray(q, dtype=np.float64)
        total: np.ndarray | None = None
        col = 0
        for rank in ctx.blocks:
            # Per-block f64 matmul + f32 cast, then f32 accumulation:
            # the exact operation sequence of decompressing each
            # summand and summing the results.
            block = (
                p64[:, col:col + rank] @ q64[:, col:col + rank].T
            ).astype(np.float32)
            total = block if total is None else total + block
            col += rank
        return total.reshape(ctx.shape)
