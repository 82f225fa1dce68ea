"""The segment primitives are the NumPy calls they stand for, bit for bit."""

import numpy as np
import pytest

from repro.tensorlib import (
    segment_means,
    segment_norms,
    segment_quantiles,
    segment_searchsorted,
    segment_sort,
    segment_stds,
    segment_sums,
    segment_topk,
)

#: Run lengths around NumPy's pairwise-summation block sizes (8, 128) and
#: an empty run; every run starts at an odd offset in the flat array.
LENGTHS = (1, 0, 7, 8, 9, 127, 128, 129, 1000, 3, 4099, 2, 65, 20000)


def _flat_and_ends(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    flat = (scale * rng.standard_normal(sum(LENGTHS))).astype(np.float32)
    flat[5:9] = 0.0
    flat[9] = -0.0
    return flat, np.cumsum(LENGTHS)


def _per_run(stat, flat, ends):
    starts = [0] + list(ends[:-1])
    return np.array(
        [
            stat(flat[a:b].copy()) if b > a else 0.0
            for a, b in zip(starts, ends)
        ],
        dtype=np.float32,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-30, 3e4])
@pytest.mark.parametrize(
    "segmented,stat",
    [
        (segment_sums, np.sum),
        (segment_means, np.mean),
        (segment_stds, np.std),
        (segment_norms, np.linalg.norm),
    ],
)
def test_equals_the_per_run_numpy_call_bitwise(segmented, stat, seed, scale):
    flat, ends = _flat_and_ends(seed, scale)
    before = flat.copy()
    got = segmented(flat, ends)
    assert got.dtype == np.float32
    assert got.tobytes() == _per_run(stat, flat, ends).tobytes()
    assert flat.tobytes() == before.tobytes()  # the input is not scratch


def test_constant_and_subnormal_runs():
    tiny = np.float32(1e-45)
    flat = np.concatenate([
        np.full(300, 0.3, dtype=np.float32),
        np.full(17, tiny, dtype=np.float32),
        np.zeros(9, dtype=np.float32),
    ])
    ends = np.array([300, 317, 326])
    for segmented, stat in ((segment_means, np.mean), (segment_stds, np.std)):
        assert (
            segmented(flat, ends).tobytes()
            == _per_run(stat, flat, ends).tobytes()
        )


# ---------------------------------------------------------------------------
# Sorting, quantiles, searching and selection per run
# ---------------------------------------------------------------------------

#: Run lengths around where ``np.quantile``'s virtual index degenerates (one
#: and two elements) and around the 64 buckets of SketchML's grids.
QUANTILE_LENGTHS = (1, 2, 3, 63, 64, 65, 2048, 0, 5, 1)


def _sketchml_grid(num_buckets=64):
    from repro.tensorlib import QuantileSketch

    return np.concatenate(QuantileSketch.grids(num_buckets))


def _runs(ends):
    return list(zip([0] + list(ends[:-1]), ends))


def _quantile_input(seed, dtype):
    rng = np.random.default_rng([seed, 0x5E6])
    ends = np.cumsum(QUANTILE_LENGTHS)
    flat = (0.01 * rng.standard_normal(ends[-1])).astype(dtype)
    flat[6:30] = rng.choice(flat[6:10], 24)  # ties inside the 63-run
    return flat, ends


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_sort_is_np_sort_of_every_run(dtype):
    flat, ends = _quantile_input(0, dtype)
    before = flat.copy()
    got = segment_sort(flat, ends)
    assert got.dtype == dtype and got is not flat
    for start, end in _runs(ends):
        assert got[start:end].tobytes() == np.sort(flat[start:end]).tobytes()
    assert flat.tobytes() == before.tobytes()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_quantiles_equal_np_quantile_bitwise(dtype, seed):
    """On the grids the kernels ask for: SketchML's 63 boundaries and 64
    centres, DGC's ``1 - k/d``, and the ends and the middle."""
    flat, ends = _quantile_input(seed, dtype)
    grid = np.concatenate(
        [_sketchml_grid(), [0.0, 0.5, 1.0, 1 - 1 / 3, 1 - 21 / 2048, 0.99]]
    )
    got = segment_quantiles(segment_sort(flat, ends), ends, grid)
    assert got.dtype == dtype and got.shape == (len(ends), grid.size)
    for row, (start, end) in zip(got, _runs(ends)):
        run = flat[start:end]
        if run.size == 0:
            assert not row.any()
            continue
        # The scalar call: a float32 run interpolates in float32.
        expected = np.array([np.quantile(run, float(q)) for q in grid])
        assert expected.dtype == dtype
        assert row.tobytes() == expected.tobytes()
        if dtype == np.float64:  # where the array call computes the same
            assert row.tobytes() == np.quantile(run, grid).tobytes()


def test_segment_quantiles_take_one_row_of_q_per_run():
    """DGC asks every tensor for its own ``1 - k/d``."""
    rng = np.random.default_rng(8)
    sizes = np.array([1, 3, 20, 7, 2, 11])
    ends = np.cumsum(sizes)
    flat = np.abs(rng.standard_normal(ends[-1])).astype(np.float32)
    ks = np.maximum(1, np.ceil(0.3 * sizes)).astype(np.int64)
    q = 1.0 - ks / sizes
    got = segment_quantiles(segment_sort(flat, ends), ends, q[:, None])
    assert got.shape == (len(sizes), 1)
    for value, (start, end), one_q in zip(got[:, 0], _runs(ends), q):
        expected = np.float32(np.quantile(flat[start:end], float(one_q)))
        assert value.tobytes() == expected.tobytes()


def test_segment_quantiles_on_zeros_of_either_sign_and_nan():
    neg, pos = np.float32(-0.0), np.float32(0.0)
    runs = [
        [neg] * 5,               # all -0.0: the upper formula keeps the sign
        [neg],                   # one element: both neighbours are the top
        [neg, pos, 0.5, 0.75],   # one zero of each sign: order-free
        [pos, neg],
        [-1.0, neg, neg],
        [0.25, np.nan, -0.5],    # NaN poisons its run, and only its run
        [1.0, 2.0, 4.0],
    ]
    flat = np.float32(np.concatenate(runs))
    ends = np.cumsum([len(run) for run in runs])
    grid = np.array([0.0, 0.2, 0.5, 0.6, 0.9, 1.0])
    got = segment_quantiles(segment_sort(flat, ends), ends, grid)
    with np.errstate(invalid="ignore"):
        for row, run in zip(got, runs):
            expected = np.array(
                [np.quantile(np.float32(run), float(q)) for q in grid]
            )
            assert row.tobytes() == expected.tobytes(), run
    assert np.isnan(got[5]).all() and not np.isnan(got[6]).any()


@pytest.mark.parametrize("m", [1, 2, 3, 63, 64, 255])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_searchsorted_is_the_per_run_lookup(dtype, m):
    from repro.tensorlib.sketch import _searchsorted_right

    rng = np.random.default_rng([m, 0xC0DE])
    ends = np.cumsum(QUANTILE_LENGTHS)
    flat = rng.standard_normal(ends[-1]).astype(dtype)
    boundaries = np.sort(rng.standard_normal((len(ends), m)), axis=1)
    # Values exactly on a boundary, boundaries that repeat, one run whose
    # values all lie outside its boundaries on either side.
    boundaries[3, : m // 2] = boundaries[3, 0]
    on = rng.integers(0, m, 40)
    flat[200:240] = boundaries[6, on].astype(dtype)
    boundaries[4] = np.sort(boundaries[4]) + 100.0
    boundaries[5] = np.sort(boundaries[5]) - 100.0
    flat[3] = np.inf
    flat[70] = -np.inf
    got = segment_searchsorted(boundaries, flat, ends)
    assert got.shape == flat.shape and got.dtype.kind == "i"
    for row, (start, end) in zip(boundaries, _runs(ends)):
        expected = _searchsorted_right(row, flat[start:end])
        assert np.array_equal(got[start:end], expected)
        assert np.array_equal(
            expected, np.searchsorted(row, flat[start:end], side="right")
        )


def test_segment_topk_is_the_per_run_argpartition():
    rng = np.random.default_rng(12)
    sizes = np.array([1, 40, 7, 300, 2, 64, 11])
    ends = np.cumsum(sizes)
    magnitudes = np.abs(rng.standard_normal(ends[-1])).astype(np.float32)
    magnitudes[1:41] = 0.25          # a constant run: every pick is a tie
    magnitudes[50:60] = magnitudes[50]
    ks = np.array([1, 3, 7, 30, 0, 1, 4])
    got = segment_topk(magnitudes, ends, ks)
    expected = np.concatenate([
        np.sort(
            np.argpartition(magnitudes[start:end], end - start - k)[-k:]
        ) + start
        for (start, end), k in zip(_runs(ends), ks) if k
    ])
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert segment_topk(magnitudes, ends, np.zeros(7, dtype=int)).size == 0
