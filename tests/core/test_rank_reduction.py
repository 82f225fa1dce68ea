"""The rank reduction against the stacked NumPy expressions it replaces.

``rank_sum`` is every "sum over ranks" of the exchange (Agg, the
sequential, parameter-server and hierarchical collectives, worker mode's
reduce); ``rank_mean`` is the default Agg.  Both must be bitwise
``np.sum(np.stack(xs), axis=0)`` and ``np.mean(np.stack(xs), axis=0)``,
dtype included, over the values a gradient can hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm.parallel import ParallelWorkerCommunicator
from repro.core.api import rank_mean, rank_sum

DTYPES = [np.float32, np.float64, np.int8, np.uint8, np.int32, np.bool_]

SHAPES = st.sampled_from([(), (0,), (1,), (2,), (7,), (3, 0), (2, 5), (17,)])


def _special(dtype) -> st.SearchStrategy:
    """Finite values, and the ones that break naive reductions."""
    finfo = np.finfo(dtype)
    width = 32 if dtype == np.float32 else 64
    return st.one_of(
        st.floats(width=width, allow_nan=True, allow_infinity=True),
        st.sampled_from([
            0.0, -0.0, float(finfo.smallest_subnormal),
            -float(finfo.smallest_subnormal), float(finfo.max), np.inf,
            -np.inf, np.nan,
        ]),
    )


@st.composite
def rank_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(SHAPES)
    n = draw(st.integers(min_value=1, max_value=6))
    elements = _special(dtype.type) if dtype.kind == "f" else None
    return [
        draw(hnp.arrays(dtype, shape, elements=elements)) for _ in range(n)
    ]


def assert_bitwise(actual, expected):
    """Same type, dtype, shape and bits; NaN matches NaN at any payload."""
    assert type(actual) is type(expected)
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    if expected.dtype.kind == "f":
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(actual), nan)
        assert actual[~nan].tobytes() == expected[~nan].tobytes()
    else:
        assert actual.tobytes() == expected.tobytes()


@settings(max_examples=250, deadline=None)
@given(arrays=rank_arrays())
def test_sum_is_the_stacked_sum(arrays):
    with np.errstate(all="ignore"):
        assert_bitwise(rank_sum(arrays), np.sum(np.stack(arrays), axis=0))


@settings(max_examples=250, deadline=None)
@given(arrays=rank_arrays())
def test_mean_is_the_stacked_mean(arrays):
    with np.errstate(all="ignore"):
        assert_bitwise(rank_mean(arrays), np.mean(np.stack(arrays), axis=0))


def test_one_rank_of_negative_zero_sums_to_positive_zero():
    # NumPy's reduction starts from +0: a copy of the one rank would keep
    # the sign.
    ranks = [np.array([-0.0, 1.0, -0.0], dtype=np.float32)]
    total = rank_sum(ranks)
    assert not np.signbit(total).any()
    assert_bitwise(total, np.sum(np.stack(ranks), axis=0))
    assert_bitwise(rank_mean(ranks), np.mean(np.stack(ranks), axis=0))


def test_every_rank_negative_zero_sums_to_positive_zero():
    ranks = [np.full(4, -0.0, dtype=np.float32) for _ in range(3)]
    assert_bitwise(rank_sum(ranks), np.sum(np.stack(ranks), axis=0))
    assert not np.signbit(rank_sum(ranks)).any()


@pytest.mark.parametrize("shape", [(), (1,), (2,), (64,)])
@pytest.mark.parametrize("n", [7, 8, 9, 16, 33])
def test_many_ranks(shape, n):
    # One element per rank is summed along a contiguous axis, which
    # NumPy sums pairwise from eight ranks on.
    rng = np.random.default_rng(n)
    ranks = [
        (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape))
        .astype(np.float32)
        for _ in range(n)
    ]
    assert_bitwise(rank_sum(ranks), np.sum(np.stack(ranks), axis=0))
    assert_bitwise(rank_mean(ranks), np.mean(np.stack(ranks), axis=0))


def test_sum_leaves_its_operands_alone():
    ranks = [np.arange(5, dtype=np.float32) for _ in range(3)]
    rank_mean(ranks)
    for array in ranks:
        assert np.array_equal(array, np.arange(5, dtype=np.float32))


def test_nothing_to_sum():
    with pytest.raises(ValueError):
        rank_sum([])


@pytest.mark.parametrize(
    "shapes", [[(4,), (1,)], [(4,), ()], [(1,), ()], [(2, 3), (3, 2)]]
)
def test_ranks_of_different_shapes_raise_like_stack(shapes):
    ranks = [np.ones(shape, dtype=np.float32) for shape in shapes]
    with pytest.raises(ValueError):
        np.stack(ranks)
    with pytest.raises(ValueError):
        rank_sum(ranks)
    with pytest.raises(ValueError):
        rank_sum(ranks[::-1])


def test_worker_reduce_rejects_a_part_of_another_shape():
    good = [np.ones(4, dtype=np.float32)]
    with pytest.raises(ValueError):
        ParallelWorkerCommunicator._reduce_parts(
            [good, [np.ones(1, dtype=np.float32)]]
        )
