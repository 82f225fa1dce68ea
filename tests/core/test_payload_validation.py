"""Typed payload-type validation at the API and wire layers.

Non-ndarray payload parts used to be silently coerced by ``np.asarray``
inside the wire framer (ints became int64 — 8 accounted bytes where the
compressor meant packed bits).  They now raise the typed
:class:`PayloadTypeError` at the choke point ``serialize_payload``
(everything that crosses the framed wire).
"""

import numpy as np
import pytest

from repro.core.api import PayloadTypeError, validate_payload
from repro.core.wire import frame_payload, serialize_payload


GOOD = [np.arange(4, dtype=np.float32), np.zeros(3, dtype=np.uint8)]

BAD_PARTS = [
    pytest.param([1.0, 2.0], id="python-list"),
    pytest.param((1, 2), id="python-tuple"),
    pytest.param(3.5, id="bare-float"),
    pytest.param(7, id="bare-int"),
    pytest.param(np.float32(1.5), id="numpy-scalar"),
    pytest.param(b"\x00\x01", id="raw-bytes"),
    pytest.param(np.array([object()], dtype=object), id="object-dtype"),
]


class TestValidatePayload:
    def test_accepts_real_arrays(self):
        assert validate_payload(GOOD) is GOOD

    def test_accepts_empty_payload(self):
        assert validate_payload([]) == []

    @pytest.mark.parametrize("part", BAD_PARTS)
    def test_rejects_non_ndarray_parts(self, part):
        with pytest.raises(PayloadTypeError) as excinfo:
            validate_payload([GOOD[0], part])
        assert "part 1" in str(excinfo.value)

    def test_error_is_a_type_error(self):
        # Callers that only know the stdlib hierarchy still catch it.
        assert issubclass(PayloadTypeError, TypeError)

    def test_owner_appears_in_message(self):
        with pytest.raises(PayloadTypeError, match="wire payload"):
            serialize_payload([[1.0]])


class TestWireRejectsBadParts:
    @pytest.mark.parametrize("part", BAD_PARTS)
    def test_serialize_payload_raises(self, part):
        with pytest.raises(PayloadTypeError):
            serialize_payload([part])

    @pytest.mark.parametrize("part", BAD_PARTS)
    def test_frame_payload_raises(self, part):
        with pytest.raises(PayloadTypeError):
            frame_payload([part])

    def test_good_payload_still_round_trips(self):
        from repro.core.wire import deserialize_payload

        parsed = deserialize_payload(serialize_payload(GOOD))
        assert len(parsed) == len(GOOD)
        for a, b in zip(GOOD, parsed):
            assert a.dtype == b.dtype and np.array_equal(a, b)
