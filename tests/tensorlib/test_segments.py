"""The segment statistics are the NumPy calls they stand for, bit for bit."""

import numpy as np
import pytest

from repro.tensorlib import (
    segment_means,
    segment_norms,
    segment_stds,
    segment_sums,
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
