"""The vectorised kernels against the kernels they replaced.

``reference_kernels`` holds the element-at-a-time implementations; every
result must be equal to the last bit (value and dtype) and every
``ValueError`` the old kernel raised on malformed input must still be a
``ValueError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tensorlib as fast
from tests.tensorlib import reference_kernels as slow


def assert_same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def both_raise(name: str, *args) -> None:
    with pytest.raises(ValueError):
        getattr(slow, name)(*args)
    with pytest.raises(ValueError):
        getattr(fast, name)(*args)


class TestPackingParity:
    @given(st.integers(1, 16), st.data())
    @settings(max_examples=200, deadline=None)
    def test_pack_and_unpack_match(self, bits, data):
        codes = np.array(
            data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=70)),
            dtype=np.int64,
        )
        packed = fast.pack_bits(codes, bits)
        assert_same(packed, slow.pack_bits(codes, bits))
        count = data.draw(st.integers(0, codes.size))
        assert_same(
            fast.unpack_bits(packed, bits, count),
            slow.unpack_bits(packed, bits, count),
        )

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint16, bool])
    def test_narrow_code_dtypes(self, dtype):
        codes = (np.arange(37) % 2).astype(dtype)
        for bits in (1, 2, 7, 8, 11):
            assert_same(fast.pack_bits(codes, bits), slow.pack_bits(codes, bits))

    @given(st.lists(st.floats(-4, 4, width=32), max_size=70))
    @settings(max_examples=100, deadline=None)
    def test_signs_match(self, values):
        values = np.array(values, dtype=np.float32)
        packed = fast.pack_signs(values)
        assert_same(packed, slow.pack_signs(values))
        assert_same(
            fast.unpack_signs(packed, values.size),
            slow.unpack_signs(packed, values.size),
        )

    def test_unpack_reads_a_non_uint8_buffer_like_before(self):
        buffer = np.array([255, 1, 128], dtype=np.int64)
        assert_same(fast.unpack_bits(buffer, 3, 8), slow.unpack_bits(buffer, 3, 8))

    @pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 16])
    def test_oversized_code_word(self, bits):
        both_raise("pack_bits", np.array([0, 1 << bits]), bits)

    @pytest.mark.parametrize("bits", [1, 4, 8, 12, 16])
    def test_negative_code(self, bits):
        both_raise("pack_bits", np.array([1, -1]), bits)

    @pytest.mark.parametrize("bits", [0, 17, -1])
    def test_bit_width_out_of_range(self, bits):
        both_raise("pack_bits", np.array([0]), bits)
        both_raise("unpack_bits", np.zeros(4, dtype=np.uint8), bits, 1)

    @pytest.mark.parametrize("bits", [1, 3, 8, 11, 16])
    def test_short_buffer(self, bits):
        packed = slow.pack_bits(np.zeros(9, dtype=np.int64), bits)
        both_raise("unpack_bits", packed, bits, 10 + 8 // bits)
        both_raise("unpack_bits", packed[:-1], bits, 9)

    def test_negative_count(self):
        both_raise("unpack_bits", np.zeros(1, dtype=np.uint8), 1, -1)
        both_raise("unpack_signs", np.zeros(1, dtype=np.uint8), -1)

    def test_short_sign_buffer(self):
        both_raise("unpack_signs", np.zeros(1, dtype=np.uint8), 9)


class TestVarintParity:
    @given(st.lists(st.integers(0, (1 << 63) - 1), max_size=60), st.data())
    @settings(max_examples=200, deadline=None)
    def test_encode_and_decode_match(self, values, data):
        values = np.array(values, dtype=np.int64)
        encoded = fast.varint_encode(values)
        assert_same(encoded, slow.varint_encode(values))
        count = data.draw(st.integers(0, values.size))
        assert_same(
            fast.varint_decode(encoded, count),
            slow.varint_decode(encoded, count),
        )

    def test_negative_value(self):
        both_raise("varint_encode", np.array([3, -1]))

    def test_negative_count(self):
        both_raise("varint_decode", np.array([1], dtype=np.uint8), -1)

    def test_exhausted_buffer(self):
        encoded = slow.varint_encode(np.array([5, 300]))
        both_raise("varint_decode", encoded, 3)
        both_raise("varint_decode", encoded[:-1], 2)  # ends mid-value
        both_raise("varint_decode", np.zeros(0, dtype=np.uint8), 1)

    def test_value_wider_than_int64_is_a_value_error(self):
        # Ten continuation bytes: the old decoder overflowed its int64
        # output (OverflowError); the new one names the problem.
        buffer = np.array([0xFF] * 10 + [0x01], dtype=np.uint8)
        with pytest.raises(ValueError, match="63 bits"):
            fast.varint_decode(buffer, 1)


class TestZeroRLEParity:
    @given(st.lists(st.sampled_from([-1, 0, 0, 0, 1]), max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_encode_and_decode_match(self, ternary):
        ternary = np.array(ternary, dtype=np.int64)
        symbols, runs, n_symbols = fast.rle_encode_zeros(ternary)
        ref_symbols, ref_runs, ref_n = slow.rle_encode_zeros(ternary)
        assert_same(symbols, ref_symbols)
        assert_same(runs, ref_runs)
        assert n_symbols == ref_n and type(n_symbols) is int
        assert_same(
            fast.rle_decode_zeros(symbols, runs, ternary.size),
            slow.rle_decode_zeros(symbols, runs, ternary.size),
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.float32, np.float64])
    def test_other_input_dtypes(self, dtype):
        ternary = np.array([0, 0, 1, -1, 0, 1, 0, 0], dtype=dtype)
        for got, want in zip(
            fast.rle_encode_zeros(ternary), slow.rle_encode_zeros(ternary)
        ):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "stream",
        [[0, 2], [-2, 0, 1], [0.5, 0.0], [0.0, -1.5], [1.0, float("nan")],
         [1e-9, 0.0]],
        ids=["two", "minus-two", "half", "negative-fraction", "nan", "tiny"],
    )
    def test_non_ternary_input(self, stream):
        both_raise("rle_encode_zeros", np.array(stream))

    def test_unknown_symbol(self):
        both_raise("rle_decode_zeros", np.array([1, 3]), np.zeros(0, np.int64), 2)

    def test_run_lengths_exhausted(self):
        both_raise("rle_decode_zeros", np.array([2, 1, 2]), np.array([4]), 9)

    def test_overrun_by_a_run(self):
        both_raise("rle_decode_zeros", np.array([1, 2]), np.array([7]), 5)

    def test_underrun(self):
        both_raise("rle_decode_zeros", np.array([1, 2]), np.array([2]), 5)
        both_raise("rle_decode_zeros", np.zeros(0, np.int64), np.zeros(0, np.int64), 1)

    def test_overrun_by_a_literal_is_a_value_error(self):
        # The old decoder wrote the literal first and died of IndexError.
        with pytest.raises(ValueError, match="overruns"):
            fast.rle_decode_zeros(np.array([2, 1]), np.array([3]), 3)


class TestCountSketchParity:
    @pytest.mark.parametrize(
        "width,depth,universe,seed",
        [(8, 1, 5, 0), (16, 2, 40, 1), (32, 5, 300, 0x5EED), (7, 4, 64, 9)],
    )
    def test_tables_estimates_and_heavy_hitters_match(
        self, width, depth, universe, seed
    ):
        rng = np.random.default_rng(seed)
        new = fast.CountSketch(width, depth, universe, seed=seed)
        old = slow.CountSketch(width, depth, universe, seed=seed)
        dense = rng.standard_normal(universe).astype(np.float32)
        new.update_dense(dense)
        old.update(np.arange(universe), dense.astype(np.float64))
        assert_same(new.table, old.table)
        # Repeated indices, onto a table that is no longer empty.
        indices = rng.integers(0, universe, 3 * universe)
        values = rng.standard_normal(indices.size)
        new.update(indices, values)
        old.update(indices, values)
        assert_same(new.table, old.table)
        assert_same(new.query(indices), old.query(indices))
        for k in (1, 3, universe):
            assert_same(new.heavy_hitters(k), old.heavy_hitters(k))

    def test_signed_zero_estimates_match(self):
        new = fast.CountSketch(8, 5, 20, seed=3)
        old = slow.CountSketch(8, 5, 20, seed=3)
        everything = np.arange(20)
        assert_same(new.query(everything), old.query(everything))

    @pytest.mark.parametrize("index", [10, 11, -1])
    def test_index_outside_universe(self, index):
        for module in (slow, fast):
            sketch = module.CountSketch(width=8, depth=2, universe=10)
            with pytest.raises(ValueError, match="universe"):
                sketch.update(np.array([0, index]), np.array([1.0, 1.0]))

    def test_mismatched_shapes(self):
        for module in (slow, fast):
            sketch = module.CountSketch(width=8, depth=2, universe=10)
            with pytest.raises(ValueError, match="same shape"):
                sketch.update(np.array([1, 2]), np.array([1.0]))

    def test_dense_update_must_cover_the_universe(self):
        sketch = fast.CountSketch(width=8, depth=2, universe=10)
        with pytest.raises(ValueError, match="whole universe"):
            sketch.update_dense(np.zeros(9))


class TestQuantileEncodeParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, n: rng.standard_normal(n),
            lambda rng, n: rng.laplace(size=n) ** 3,
            lambda rng, n: rng.choice([-0.5, -0.25, 0.25, 0.5], n),
            lambda rng, n: np.full(n, 0.125),
            lambda rng, n: np.concatenate(
                [rng.standard_normal(n - 4), [np.inf, -np.inf, 0.0, -0.0]]
            ),
        ],
        ids=["normal", "heavy-tailed", "ties", "constant", "infinities"],
    )
    def test_encode_is_searchsorted(self, draw, dtype):
        rng = np.random.default_rng(5)
        # Enough values for the grid table to be worth building.
        values = np.asarray(draw(rng, 70_000), dtype=dtype)
        for buckets in (2, 64, 1000):
            sketch = fast.QuantileSketch(buckets, max_size=512)
            sketch.insert(values[np.isfinite(values)][:700])
            expected = np.searchsorted(
                sketch.boundaries(), values.astype(np.float64), side="right"
            )
            assert_same(sketch.encode(values), expected)
            # Values sitting exactly on a boundary go to the upper bucket.
            on_boundary = np.resize(sketch.boundaries().astype(dtype), 70_000)
            assert_same(
                sketch.encode(on_boundary),
                np.searchsorted(
                    sketch.boundaries(), on_boundary.astype(np.float64),
                    side="right",
                ),
            )
