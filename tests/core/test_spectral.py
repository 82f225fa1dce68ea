"""ATOMO and GradiVeQ against the full SVD they no longer call.

Both compressors take their few singular triples from one eigendecomposition
of the Gram matrix (``_GramSVD``).  The oracle here is the full-SVD body each
had before, kept test-local: the same draws, the same payload sizes, the same
kept atoms, and a decode within four float32 spacings of the oracle's.

The Gram matrix resolves a singular value only down to about
``sqrt(n·eps₆₄)·σ₁``.  Below that both factorizations return rounding noise;
the Gram one reports 0 there and sends no such atom, while the SVD may draw
one with water-filling's leftover budget.  So the keep sets are compared on
the resolved atoms, the decode against the oracle's resolved atoms, and the
payload sizes wherever the oracle drew no unresolved atom.
"""

import numpy as np
import pytest

from perfbench.workloads import LARGE_SHAPES
from repro.core import create
from repro.core.api import CompressedTensor, FusedBucketCtx, flatten_with_shape
from repro.core.compressors.powersgd import _GramSVD, _matrix_view
from repro.core.compressors.variance import selection_probabilities
from repro.core.fusion import tensor_bucket
from tests.core import kernel_digest_cases

SEEDS = (0, 1, 2)
EPS64 = np.finfo(np.float64).eps


def _orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def _corpus() -> dict:
    rng = np.random.default_rng(0x5BD)
    cases = {
        "tall": rng.standard_normal((300, 40)),
        "wide": rng.standard_normal((40, 300)),
        "row": rng.standard_normal(2000),  # a 1×L matrix
        "conv": rng.standard_normal((32, 16, 3, 3)),
        "zero": np.zeros((64, 48)),
        "rank1": np.outer(rng.standard_normal(80), rng.standard_normal(50)),
        "rank3-wide": (
            rng.standard_normal((30, 3)) @ rng.standard_normal((3, 400))
        ),
        "spread-1e-7": (
            _orthonormal(rng, 200, 50) * np.logspace(0, -7, 50)
        ) @ _orthonormal(rng, 50, 50).T,
        "kernel-digest-dense": kernel_digest_cases.inputs(0)["dense"],
    }
    for name, shape in LARGE_SHAPES:
        if np.prod(shape) >= 1024:  # the rest are sent dense
            cases[f"large:{name}"] = 0.01 * rng.standard_normal(shape)
    return {name: np.asarray(x, dtype=np.float32) for name, x in cases.items()}


CASES = _corpus()


def _svd(tensor):
    flat, shape = flatten_with_shape(tensor)
    matrix = _matrix_view(flat, shape).astype(np.float64)
    u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    noise = (sigma > 0) & (sigma ** 2 <= len(sigma) * EPS64 * sigma[0] ** 2)
    return shape, flat.size, u, sigma, vt, ~noise


def _ctx(shape):
    """The ctx the kernel gives a tensor ``t`` of ``shape``."""
    return FusedBucketCtx(tensor_bucket("t", shape))


def svd_atomo(compressor, tensor):
    """The full-SVD ATOMO body: payload, kept atoms, resolved atoms."""
    shape, size, u, sigma, vt, resolved = _svd(tensor)
    probabilities = selection_probabilities(sigma, compressor.budget)
    keep = np.flatnonzero(
        compressor._rng.random(size=sigma.size) < probabilities
    )
    payload = [
        u[:, keep].astype(np.float32),
        (sigma[keep] / probabilities[keep]).astype(np.float32),
        vt[keep, :].astype(np.float32),
    ]
    return CompressedTensor(payload, ctx=_ctx(shape)), keep, resolved


def svd_gradiveq(compressor, tensor):
    """The full-SVD GradiVeQ body."""
    shape, size, u, sigma, vt, _ = _svd(tensor)
    rank = min(compressor.rank, sigma.size)
    payload = [
        (u[:, :rank] * sigma[:rank]).astype(np.float32),
        vt[:rank, :].astype(np.float32),
    ]
    return CompressedTensor(payload, ctx=_ctx(shape))


def gram_keep(seed, tensor, budget):
    """The atoms the Gram-based ATOMO keeps, by replaying its draws."""
    flat, shape = flatten_with_shape(tensor)
    sigma = _GramSVD(_matrix_view(flat, shape).astype(np.float64)).sigma
    draws = create("atomo", seed=seed)._rng.random(size=sigma.size)
    return np.flatnonzero(draws < selection_probabilities(sigma, budget))


def assert_decodes_alike(decoded, oracle):
    assert not np.isnan(decoded).any()
    assert decoded.shape == oracle.shape and decoded.dtype == np.float32
    scale = float(np.abs(oracle).max())
    if scale == 0.0:
        assert not decoded.any()
        return
    error = np.abs(decoded.astype(np.float64) - oracle).max()
    assert error <= 4 * np.spacing(np.float32(scale))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_atomo_matches_the_full_svd(case, seed):
    tensor = CASES[case]
    gram, oracle = create("atomo", seed=seed), create("atomo", seed=seed)
    got = gram.compress(tensor.copy(), "t")
    want, keep, resolved = svd_atomo(oracle, tensor)
    # The same draws, and the same atoms kept among those the Gram
    # matrix resolves.
    assert gram._rng.bit_generator.state == oracle._rng.bit_generator.state
    kept = gram_keep(seed, tensor, gram.budget)
    assert got.payload[1].size == kept.size
    np.testing.assert_array_equal(kept, keep[resolved[keep]])
    if resolved[keep].all():
        assert got.nbytes == want.nbytes
    else:
        assert got.nbytes < want.nbytes
    part = resolved[keep]
    want_resolved = CompressedTensor(
        [want.payload[0][:, part], want.payload[1][part],
         want.payload[2][part, :]],
        ctx=want.ctx,
    )
    assert_decodes_alike(
        gram.decompress(got), oracle.decompress(want_resolved)
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_gradiveq_matches_the_full_svd(case):
    tensor = CASES[case]
    gram, oracle = create("gradiveq"), create("gradiveq")
    got = gram.compress(tensor.copy(), "t")
    want = svd_gradiveq(oracle, tensor)
    assert [p.shape for p in got.payload] == [p.shape for p in want.payload]
    assert got.nbytes == want.nbytes
    assert_decodes_alike(gram.decompress(got), oracle.decompress(want))


def test_the_zero_matrix_decodes_to_exact_zeros():
    zero = CASES["zero"]
    for name in ("atomo", "gradiveq"):
        compressor = create(name)
        decoded = compressor.decompress(compressor.compress(zero, "t"))
        assert decoded.shape == zero.shape
        assert not decoded.any() and not np.isnan(decoded).any()


@pytest.mark.parametrize("shape", ((300, 40), (40, 300), (1, 2000), (50, 50)))
def test_gram_triples_are_the_svd_triples(shape):
    matrix = np.random.default_rng(7).standard_normal(shape)
    svd = _GramSVD(matrix)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    np.testing.assert_allclose(svd.sigma, sigma, rtol=1e-10)
    u, s, vt = svd.triples(np.arange(sigma.size))
    np.testing.assert_array_equal(s, svd.sigma)
    np.testing.assert_allclose(u.T @ u, np.eye(sigma.size), atol=1e-10)
    np.testing.assert_allclose(vt @ vt.T, np.eye(sigma.size), atol=1e-10)
    np.testing.assert_allclose((u * s) @ vt, matrix, atol=1e-10)


def test_unresolved_singular_values_are_zero_with_zero_vectors():
    rng = np.random.default_rng(8)
    rank1 = np.outer(rng.standard_normal(80), rng.standard_normal(50))
    for matrix in (rank1, rank1.T):
        svd = _GramSVD(matrix)
        assert svd.sigma[0] > 0 and not svd.sigma[1:].any()
        u, s, vt = svd.triples(np.arange(1, 50))
        formed = vt if matrix.shape[0] < matrix.shape[1] else u
        assert not formed.any()
