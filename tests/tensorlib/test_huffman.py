"""Canonical Huffman coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensorlib.huffman import (
    canonical_codes,
    code_lengths,
    huffman_decode,
    huffman_encode,
)


class TestCodeLengths:
    def test_uniform_counts_give_balanced_code(self):
        lengths = code_lengths(np.array([10, 10, 10, 10]))
        assert set(lengths.tolist()) == {2}

    def test_skewed_counts_give_short_code_to_common_symbol(self):
        lengths = code_lengths(np.array([100, 5, 5]))
        assert lengths[0] < lengths[1]
        assert lengths[0] == 1

    def test_absent_symbols_get_zero_length(self):
        lengths = code_lengths(np.array([5, 0, 5]))
        assert lengths[1] == 0

    def test_single_symbol_stream(self):
        lengths = code_lengths(np.array([7, 0, 0]))
        assert lengths.tolist() == [1, 0, 0]

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 100, size=16)
        counts[0] = 1  # ensure at least one present
        lengths = code_lengths(counts).astype(np.int64)
        present = lengths[lengths > 0]
        assert float(np.sum(2.0 ** (-present.astype(np.float64)))) <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            code_lengths(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            code_lengths(np.array([-1, 2]))


class TestCanonicalCodes:
    def test_codes_are_prefix_free(self):
        lengths = code_lengths(np.array([50, 20, 20, 5, 5]))
        codes = canonical_codes(lengths)
        present = np.flatnonzero(lengths)
        bitstrings = {
            format(int(codes[s]), f"0{int(lengths[s])}b") for s in present
        }
        for a in bitstrings:
            for b in bitstrings:
                if a != b:
                    assert not b.startswith(a)


class TestEncodeDecode:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        symbols = rng.choice(4, size=500, p=[0.7, 0.15, 0.1, 0.05])
        encoded = huffman_encode(symbols, 4)
        decoded = huffman_decode(encoded)
        np.testing.assert_array_equal(decoded, symbols)

    def test_empty_stream(self):
        encoded = huffman_encode(np.zeros(0, dtype=np.int64), 4)
        assert huffman_decode(encoded).size == 0

    def test_skewed_ternary_stream_beats_two_bits(self):
        # TernGrad-like stream: 90% zeros.
        rng = np.random.default_rng(2)
        symbols = rng.choice(3, size=4000, p=[0.9, 0.05, 0.05])
        encoded = huffman_encode(symbols, 3)
        assert encoded.buffer.nbytes < 4000 * 2 / 8

    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError, match="range"):
            huffman_encode(np.array([0, 5]), 3)

    def test_corrupt_stream_detected(self):
        encoded = huffman_encode(np.array([0, 1, 0, 1]), 2)
        encoded.count = 1000  # lie about the length
        with pytest.raises(ValueError, match="exhausted"):
            huffman_decode(encoded)

    @given(st.lists(st.integers(0, 7), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        symbols = np.array(values, dtype=np.int64)
        decoded = huffman_decode(huffman_encode(symbols, 8))
        np.testing.assert_array_equal(decoded, symbols)


class TestTernGradIntegration:
    def test_entropy_coded_terngrad_roundtrips(self):
        from repro.core import create

        rng = np.random.default_rng(3)
        tensor = (1e-2 * rng.standard_normal(5000)).astype(np.float32)
        plain = create("terngrad", seed=7)
        coded = create("terngrad", entropy_coding=True, seed=7)
        np.testing.assert_array_equal(
            plain.decompress(plain.compress(tensor, "t")),
            coded.decompress(coded.compress(tensor, "t")),
        )

    def test_entropy_coding_shrinks_the_wire(self):
        from repro.core import create

        rng = np.random.default_rng(4)
        # Small-magnitude gradients: TernGrad keeps few elements -> the
        # ternary stream is mostly zeros and Huffman wins clearly.
        tensor = (1e-3 * rng.standard_normal(20000)).astype(np.float32)
        tensor[:20] = 0.05  # a few large entries stretch the scale
        plain = create("terngrad", seed=0).compress(tensor, "t")
        coded = create("terngrad", entropy_coding=True, seed=0).compress(
            tensor, "t"
        )
        assert coded.nbytes < plain.nbytes
