"""Wire framing of compressed payloads."""

import zlib

import numpy as np
import pytest

from repro.core import available_compressors, create
from repro.core.api import PayloadTypeError
from repro.core.wire import (
    CHECKSUM_NBYTES,
    WireChecksumError,
    WireFormatError,
    deserialize_payload,
    frame_payload,
    framing_overhead_bytes,
    serialize_payload,
    unframe_payload,
)


class TestRoundTrip:
    def test_mixed_dtype_payload(self):
        payload = [
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.array([1, 2, 3], dtype=np.int32),
            np.array([255], dtype=np.uint8),
            np.array(7.5, dtype=np.float64),
        ]
        restored = deserialize_payload(serialize_payload(payload))
        assert len(restored) == 4
        for original, copy in zip(payload, restored):
            np.testing.assert_array_equal(copy, np.asarray(original))
            assert copy.dtype == np.asarray(original).dtype
            assert copy.shape == np.asarray(original).shape

    def test_empty_payload(self):
        assert deserialize_payload(serialize_payload([])) == []

    def test_empty_arrays_survive(self):
        payload = [np.zeros(0, dtype=np.float32)]
        restored = deserialize_payload(serialize_payload(payload))
        assert restored[0].size == 0

    @pytest.mark.parametrize("name", available_compressors())
    def test_every_compressor_payload_is_wire_serializable(self, name):
        rng = np.random.default_rng(0)
        tensor = (1e-2 * rng.standard_normal((32, 32))).astype(np.float32)
        compressor = create(name, seed=1)
        compressed = compressor.compress(tensor, "t")
        restored_payload = deserialize_payload(
            serialize_payload(compressed.payload)
        )
        compressed.payload = restored_payload
        out = compressor.decompress(compressed)
        assert out.shape == tensor.shape

    def test_decompression_identical_after_wire_trip(self):
        rng = np.random.default_rng(1)
        tensor = (1e-2 * rng.standard_normal(2048)).astype(np.float32)
        compressor = create("qsgd", seed=2)
        compressed = compressor.compress(tensor, "t")
        direct = compressor.decompress(compressed)
        compressed.payload = deserialize_payload(
            serialize_payload(compressed.payload)
        )
        via_wire = compressor.decompress(compressed)
        np.testing.assert_array_equal(direct, via_wire)


class TestFramingOverhead:
    def test_overhead_is_small_and_predictable(self):
        payload = [np.zeros(1000, np.float32), np.zeros(10, np.int32)]
        overhead = framing_overhead_bytes(payload)
        # 1 count byte + 2 * (2 header + 4 dim) bytes.
        assert overhead == 1 + 2 * 6

    def test_overhead_negligible_vs_data(self):
        payload = [np.zeros(1 << 18, np.float32)]
        assert framing_overhead_bytes(payload) < 16


class TestValidation:
    def test_rejects_unsupported_dtype(self):
        with pytest.raises(PayloadTypeError, match="dtype complex64"):
            serialize_payload([np.zeros(2, dtype=np.complex64)])

    def test_rejects_truncated_buffer(self):
        buffer = serialize_payload([np.arange(10, dtype=np.float32)])
        with pytest.raises(ValueError, match="truncated"):
            deserialize_payload(buffer[:-4])

    def test_rejects_trailing_garbage(self):
        buffer = serialize_payload([np.arange(4, dtype=np.float32)])
        with pytest.raises(ValueError, match="trailing"):
            deserialize_payload(buffer + b"xx")

    def test_rejects_empty_buffer(self):
        with pytest.raises(ValueError, match="empty"):
            deserialize_payload(b"")

    def test_rejects_unknown_dtype_code(self):
        buffer = bytearray(serialize_payload([np.zeros(1, np.uint8)]))
        buffer[1] = 99  # corrupt the dtype code
        with pytest.raises(ValueError, match="dtype code"):
            deserialize_payload(bytes(buffer))


class TestUint16Part:
    """Two-byte index parts (a bucket of up to 65,536 elements)."""

    PAYLOAD = [
        np.arange(3, dtype=np.float32),
        np.array([0, 300, 65_535], dtype=np.uint16),
    ]

    def test_round_trips_plain_and_framed(self):
        for restored in (
            deserialize_payload(serialize_payload(self.PAYLOAD)),
            unframe_payload(frame_payload(self.PAYLOAD)),
        ):
            for original, copy in zip(self.PAYLOAD, restored):
                assert copy.dtype == original.dtype
                assert copy.tobytes() == original.tobytes()

    def test_code_comes_after_the_first_eight(self):
        first_eight = (
            np.uint8, np.int8, np.int16, np.int32, np.int64,
            np.float16, np.float32, np.float64,
        )
        codes = [
            serialize_payload([np.zeros(1, dtype)])[1]
            for dtype in (*first_eight, np.uint16)
        ]
        assert codes == list(range(9))

    def test_truncation_is_rejected_plain_and_framed(self):
        buffer = serialize_payload(self.PAYLOAD)
        for cut in range(1, len(buffer)):
            with pytest.raises(WireFormatError, match="truncated"):
                deserialize_payload(buffer[:cut])
        frame = frame_payload(self.PAYLOAD)
        with pytest.raises(WireFormatError):
            unframe_payload(frame[:-1])
        with pytest.raises(WireFormatError, match="truncated"):
            unframe_payload(
                buffer[:-1] + (zlib.crc32(buffer[:-1]) & 0xFFFFFFFF)
                .to_bytes(CHECKSUM_NBYTES, "little")
            )


class TestPartCountEscape:
    """Fused buckets can carry more than 254 payload parts per frame."""

    def test_roundtrip_at_and_past_the_escape(self):
        for n_parts in (254, 255, 300):
            payload = [
                np.array([i], dtype=np.int32) for i in range(n_parts)
            ]
            restored = deserialize_payload(serialize_payload(payload))
            assert len(restored) == n_parts
            assert all(
                int(part[0]) == i for i, part in enumerate(restored)
            )

    def test_header_grows_by_four_bytes_past_escape(self):
        small = [np.zeros(1, np.uint8)] * 254
        large = [np.zeros(1, np.uint8)] * 255
        assert framing_overhead_bytes(small) == 1 + 254 * 6
        assert framing_overhead_bytes(large) == 5 + 255 * 6

    def test_analytic_header_matches_serialized(self):
        from repro.core.wire import framing_header_bytes

        for n_parts in (1, 254, 255, 260):
            payload = [np.zeros((2, 3), np.float32)] * n_parts
            assert framing_header_bytes(payload) == framing_overhead_bytes(
                payload
            )

    def test_truncated_escaped_count_rejected(self):
        with pytest.raises(ValueError, match="part count"):
            deserialize_payload(b"\xff\x01\x00")


class TestTypedErrors:
    """Malformed frames raise WireFormatError, never raw numpy errors."""

    def test_errors_are_wire_format_errors(self):
        buffer = serialize_payload([np.arange(10, dtype=np.float32)])
        for bad in (b"", buffer[:-4], buffer + b"xx", b"\xff\x01\x00"):
            with pytest.raises(WireFormatError):
                deserialize_payload(bad)

    def test_wire_format_error_subclasses_value_error(self):
        assert issubclass(WireFormatError, ValueError)
        assert issubclass(WireChecksumError, WireFormatError)

    def test_implausible_escaped_part_count_rejected(self):
        # An escaped u32 count far beyond what the buffer could hold
        # must fail structural validation, not walk off the buffer.
        garbage = b"\xff\xff\xff\xff\x7f" + b"\x00" * 16
        with pytest.raises(WireFormatError, match="implausible part count"):
            deserialize_payload(garbage)

    def test_garbage_dims_cannot_overflow_bounds_check(self):
        # Huge dims whose int64 product would overflow negative used to
        # slip past the bounds check into a raw numpy error.
        buffer = bytearray(serialize_payload(
            [np.zeros((2, 2, 2, 2), dtype=np.uint8)]
        ))
        buffer[3:19] = (2**31 - 1).to_bytes(4, "little") * 4
        with pytest.raises(WireFormatError):
            deserialize_payload(bytes(buffer))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_garbage_never_escapes_typed_error(self, seed):
        rng = np.random.default_rng(seed)
        for length in (1, 3, 17, 64, 257):
            blob = rng.integers(0, 256, size=length, dtype=np.uint8)
            try:
                deserialize_payload(blob.tobytes())
            except WireFormatError:
                pass


class TestChecksumFrames:
    def test_roundtrip(self):
        payload = [np.arange(6, dtype=np.float32), np.array([1], np.int32)]
        frame = frame_payload(payload)
        assert len(frame) == len(serialize_payload(payload)) + CHECKSUM_NBYTES
        restored = unframe_payload(frame)
        for original, copy in zip(payload, restored):
            np.testing.assert_array_equal(copy, original)

    def test_single_bit_flip_detected(self):
        frame = bytearray(frame_payload([np.arange(32, dtype=np.float32)]))
        for position in (0, len(frame) // 2, len(frame) - 1):
            corrupted = bytearray(frame)
            corrupted[position] ^= 0x10
            with pytest.raises(WireChecksumError):
                unframe_payload(bytes(corrupted))

    def test_short_frame_is_format_error(self):
        with pytest.raises(WireFormatError):
            unframe_payload(b"\x00\x01")
