"""On-wire framing of compressed payloads.

The simulator moves payloads as lists of arrays; a real transport moves
bytes.  This module defines the byte format — a small header per part
(dtype code, rank, dims) followed by the raw data — so any compressor's
output can be serialized to one buffer and parsed back, and so framing
overhead is measurable (`framing_overhead_bytes`).

Format (little-endian)::

    u8   part count          (0..254; 255 escapes to a u32 count)
    u32  part count          (only when the escape byte 255 is present)
    per part:
      u8   dtype code          (a place in repro.core.api.WIRE_DTYPES:
                                uint8 int8 int16 int32 int64 float16
                                float32 float64 uint16 = 0..8)
      u8   rank
      u32  dim[rank]
      raw  data (C order)

Codes are only ever appended: uint16, code 8, came last, for the index
parts that a bucket of up to 65,536 elements sends two bytes a position
(:func:`repro.tensorlib.indices.index_dtype`).  The width of an index
part is not on the wire beyond its dtype code: both sides derive it
from the bucket layout they share.

The escape exists for fusion: a bucket kernel's payload can carry parts
per segment (a low-rank kernel's factors), so one frame may carry far
more than 254 parts.

Malformed input — truncation anywhere, an implausible escaped part
count, dims whose product overruns the buffer — raises the typed
:class:`WireFormatError` instead of leaking a raw numpy/struct error.

For transports that can corrupt frames in flight, the checksummed frame
variant appends a CRC32 trailer: :func:`frame_payload` /
:func:`unframe_payload`.  A failed check raises
:class:`WireChecksumError` (a :class:`WireFormatError`), which the
resilient collective layer turns into a NACK + bounded retransmit.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.core.api import WIRE_DTYPES, Payload, validate_payload


class WireFormatError(ValueError):
    """A wire frame failed structural validation (truncated/garbage)."""


class WireChecksumError(WireFormatError):
    """A checksummed wire frame failed CRC32 validation."""

_DTYPE_CODE = {dtype: code for code, dtype in enumerate(WIRE_DTYPES)}

_PART_COUNT_ESCAPE = 255  # u8 sentinel: real count follows as u32
_MAX_PARTS = 2**32 - 1
_MAX_RANK = 255


def _part_count_header(n_parts: int) -> bytes:
    if n_parts < _PART_COUNT_ESCAPE:
        return struct.pack("<B", n_parts)
    return struct.pack("<BI", _PART_COUNT_ESCAPE, n_parts)


def part_count_header_bytes(n_parts: int) -> int:
    """Size of the frame's part-count field (1, or 5 past the escape)."""
    return 1 if n_parts < _PART_COUNT_ESCAPE else 5


def serialize_payload(payload: Payload) -> bytes:
    """Frame a payload (list of arrays) into one byte buffer.

    Parts must be plain ndarrays of a dtype in
    :data:`~repro.core.api.WIRE_DTYPES` — anything else raises
    :class:`~repro.core.api.PayloadTypeError` rather than being silently
    coerced with a data-dependent size.
    """
    if len(payload) > _MAX_PARTS:
        raise ValueError(f"payload has too many parts ({len(payload)})")
    validate_payload(payload, owner="wire payload")
    chunks = [_part_count_header(len(payload))]
    for part in payload:
        original = np.asarray(part)
        # ascontiguousarray promotes 0-d to 1-d; restore the true shape.
        array = np.ascontiguousarray(original).reshape(original.shape)
        if array.ndim > _MAX_RANK:
            raise ValueError(f"rank {array.ndim} exceeds wire limit")
        chunks.append(
            struct.pack(
                f"<BB{array.ndim}I",
                _DTYPE_CODE[array.dtype],
                array.ndim,
                *array.shape,
            )
        )
        chunks.append(array.tobytes())
    return b"".join(chunks)


def deserialize_payload(buffer: bytes) -> Payload:
    """Inverse of :func:`serialize_payload`.

    Raises :class:`WireFormatError` on any structurally invalid input:
    truncation, unknown dtype codes, an escaped part count no buffer of
    this size could hold, or dims whose product overruns the data.  The
    dims product is computed with Python ints so absurd u32 dims cannot
    silently wrap a fixed-width accumulator and sidestep the bounds
    check.
    """
    if len(buffer) < 1:
        raise WireFormatError("empty wire buffer")
    (n_parts,) = struct.unpack_from("<B", buffer, 0)
    offset = 1
    if n_parts == _PART_COUNT_ESCAPE:
        if len(buffer) < 5:
            raise WireFormatError("truncated wire buffer (part count)")
        (n_parts,) = struct.unpack_from("<I", buffer, 1)
        offset = 5
        # Every part costs at least a 2-byte dtype/rank header, so a
        # garbage escaped count larger than the buffer could possibly
        # carry is rejected up front instead of looping to the first
        # truncation error.
        if n_parts * 2 > len(buffer) - offset:
            raise WireFormatError(
                f"implausible part count {n_parts} for "
                f"{len(buffer)}-byte wire buffer"
            )
    payload: Payload = []
    for _ in range(n_parts):
        if offset + 2 > len(buffer):
            raise WireFormatError("truncated wire buffer (header)")
        dtype_code, rank = struct.unpack_from("<BB", buffer, offset)
        offset += 2
        if dtype_code >= len(WIRE_DTYPES):
            raise WireFormatError(f"unknown wire dtype code {dtype_code}")
        if offset + 4 * rank > len(buffer):
            raise WireFormatError("truncated wire buffer (dims)")
        dims = struct.unpack_from(f"<{rank}I", buffer, offset)
        offset += 4 * rank
        dtype = WIRE_DTYPES[dtype_code]
        count = 1
        for dim in dims:
            count *= int(dim)
        nbytes = count * dtype.itemsize
        if nbytes > len(buffer) - offset:
            raise WireFormatError("truncated wire buffer (data)")
        array = np.frombuffer(
            buffer, dtype=dtype, count=count, offset=offset
        ).reshape(tuple(dims))
        payload.append(array.copy())
        offset += nbytes
    if offset != len(buffer):
        raise WireFormatError(
            f"wire buffer has {len(buffer) - offset} trailing bytes"
        )
    return payload


#: Size of the CRC32 trailer a checksummed frame appends.
CHECKSUM_NBYTES = 4


def frame_payload(payload: Payload) -> bytes:
    """Serialize a payload with a CRC32 trailer for in-flight integrity.

    Layout is :func:`serialize_payload`'s byte stream followed by a
    little-endian u32 CRC32 of that stream.  The trailer is what lets a
    receiver distinguish "sender meant this" from "the wire flipped a
    bit" — the property the resilient collectives' NACK/retransmit
    machinery is built on.
    """
    body = serialize_payload(payload)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def unframe_payload(frame: bytes) -> Payload:
    """Validate and parse a checksummed frame from :func:`frame_payload`.

    Raises :class:`WireChecksumError` when the CRC32 trailer disagrees
    with the body, and :class:`WireFormatError` for structural damage
    (both are subclasses of :class:`ValueError`).
    """
    if len(frame) < 1 + CHECKSUM_NBYTES:
        raise WireFormatError("frame too short to carry a CRC32 trailer")
    body = frame[:-CHECKSUM_NBYTES]
    (expected,) = struct.unpack_from("<I", frame, len(body))
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != expected:
        raise WireChecksumError(
            f"CRC32 mismatch: frame says {expected:#010x}, "
            f"body hashes to {actual:#010x}"
        )
    return deserialize_payload(body)


def framing_overhead_bytes(payload: Payload) -> int:
    """Header bytes the wire format adds on top of the raw data."""
    raw = sum(int(np.asarray(part).nbytes) for part in payload)
    return len(serialize_payload(payload)) - raw


def framing_header_bytes(payload: Payload) -> int:
    """Analytic header size of the wire format, without serializing.

    Equals :func:`framing_overhead_bytes` for any serializable payload
    (the part-count field, then a dtype/rank/dims header per part);
    telemetry uses this form so accounting never pays a serialization
    pass.  Fusion pays the count field once per *bucket*, which is how
    header overhead amortizes across the fused tensors.
    """
    return part_count_header_bytes(len(payload)) + sum(
        2 + 4 * np.asarray(part).ndim for part in payload
    )
