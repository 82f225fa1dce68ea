"""Bit-packing helpers.

Several compressors produce elements that need far fewer than 32 bits
(signs need 1 bit, ternary values 2 bits, QSGD code-words ``ceil(log2 s)``
bits).  The GRACE paper's ``pack``/``unpack`` helpers encode several
lower-bit values into one higher-bit word so that the transmitted volume
reflects the true entropy of the compressed representation.

All functions operate on flat ``numpy`` arrays of non-negative integer
code-words and round-trip exactly.  The wire layout is one little-endian
bit stream: code ``i`` occupies stream bits ``[i * bits, (i + 1) * bits)``,
least-significant bit first.  Eight codes therefore always fill exactly
``bits`` bytes, which is the group the kernels below work in.
"""

from __future__ import annotations

import numpy as np

_WORD_BITS = 8  # we pack into uint8 words, the natural unit for bytes-on-wire
_GROUP = 8  # codes per group: 8 codes of ``bits`` bits are ``bits`` whole bytes
# Where each of a group's eight codes sits in the group's 64-bit word, by
# code width (widths below 8 only: 8 * 7 bits fit in the word).
_LANE_SHIFTS = [
    np.arange(_GROUP, dtype=np.uint64) * np.uint64(bits) for bits in range(8)
]
_LANE_WEIGHTS = [np.uint64(1) << shifts for shifts in _LANE_SHIFTS]


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")


def _checked_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """``codes`` flattened, as an integer array known to fit in ``bits``."""
    codes = np.ravel(codes)
    if codes.dtype.kind not in "iu":
        codes = codes.astype(np.uint64)  # bools and floats: truncate
    if codes.size:
        low, high = int(codes.min()), int(codes.max())
        if low < 0 or high >= (1 << bits):
            bad = low if low < 0 else high
            raise ValueError(f"code-word {bad} does not fit in {bits} bits")
    return codes


def _pad_to_group(array: np.ndarray) -> np.ndarray:
    pad = (-array.size) % _GROUP
    if pad:
        array = np.concatenate([array, np.zeros(pad, dtype=array.dtype)])
    return array


def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack an array of integer code-words into a dense ``uint8`` buffer.

    Each code-word must fit in ``bits`` bits.  The output buffer holds
    ``ceil(n * bits / 8)`` bytes.

    >>> pack_bits(np.array([1, 0, 1, 1]), bits=1)
    array([13], dtype=uint8)
    """
    _check_bits(bits)
    codes = _checked_codes(codes, bits)
    if bits == 1:
        return np.packbits(codes.astype(np.uint8), bitorder="little")
    if bits == 8:
        return codes.astype(np.uint8)
    if bits == 16:
        return codes.astype("<u2").view(np.uint8)
    if bits > 8:
        # Two bytes per code, of which the low ``bits`` bits are kept.
        bit_matrix = np.unpackbits(
            codes.astype("<u2").view(np.uint8), bitorder="little"
        ).reshape(-1, 16)[:, :bits]
        return np.packbits(bit_matrix.ravel(), bitorder="little")
    # bits < 8: eight codes make one 64-bit word (their bits are disjoint,
    # so the weighted sum is their or), whose low ``bits`` bytes are the
    # group's bytes on the wire.
    lanes = _pad_to_group(codes.astype(np.uint8)).reshape(-1, _GROUP)
    words = lanes.astype(np.uint64) @ _LANE_WEIGHTS[bits]
    group_bytes = (
        words.astype("<u8", copy=False).view(np.uint8).reshape(-1, _GROUP)
    )
    return group_bytes[:, :bits].ravel()[: packed_nbytes(codes.size, bits)]


def _checked_buffer(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """``buffer`` as flat ``uint8``, known to hold ``count`` codes."""
    _check_bits(bits)
    if count < 0:
        raise ValueError("count must be non-negative")
    buffer = np.ravel(np.asarray(buffer)).astype(np.uint8, copy=False)
    needed = count * bits
    if buffer.size * _WORD_BITS < needed:
        raise ValueError(
            f"buffer holds {buffer.size * _WORD_BITS} bits but {needed} "
            "are required"
        )
    return buffer


def unpack_bits(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns ``count`` code-words as int64."""
    buffer = _checked_buffer(buffer, bits, count)
    if bits == 1:
        return np.unpackbits(buffer, count=count, bitorder="little").astype(
            np.int64
        )
    if bits == 8:
        return buffer[:count].astype(np.int64)
    if bits == 16:
        return buffer[: 2 * count].view("<u2").astype(np.int64)
    if bits > 8:
        bit_matrix = np.zeros((count, 16), dtype=np.uint8)
        bit_matrix[:, :bits] = np.unpackbits(
            buffer, count=count * bits, bitorder="little"
        ).reshape(count, bits)
        return np.packbits(bit_matrix.ravel(), bitorder="little").view(
            "<u2"
        ).astype(np.int64)
    # bits < 8: a group's ``bits`` bytes are the low bytes of one 64-bit
    # word; the eight codes come out of it with a shift and a mask each.
    groups = -(-count // _GROUP)
    wire = buffer[: groups * bits]
    if wire.size < groups * bits:  # the last group's bytes stop with its codes
        wire = np.concatenate(
            [wire, np.zeros(groups * bits - wire.size, dtype=np.uint8)]
        )
    group_bytes = np.zeros((groups, _GROUP), dtype=np.uint8)
    group_bytes[:, :bits] = wire.reshape(groups, bits)
    out = group_bytes.view("<u8") >> _LANE_SHIFTS[bits]  # (groups, 1) by (8,)
    out &= np.uint64((1 << bits) - 1)
    return out.view(np.int64).ravel()[:count]


def pack_signs(values: np.ndarray) -> np.ndarray:
    """Pack the signs of ``values`` (non-negative -> 1, negative -> 0)."""
    return np.packbits(np.ravel(values) >= 0, bitorder="little")


def unpack_signs(buffer: np.ndarray, count: int) -> np.ndarray:
    """Unpack a sign buffer into a float ±1 vector of length ``count``."""
    buffer = _checked_buffer(buffer, 1, count)
    bits = np.unpackbits(buffer, count=count, bitorder="little")
    signs = bits.astype(np.float32)
    signs *= np.float32(2.0)
    signs -= np.float32(1.0)
    return signs


def packed_nbytes(count: int, bits: int) -> int:
    """Number of bytes :func:`pack_bits` uses for ``count`` ``bits``-wide codes."""
    _check_bits(bits)
    if count < 0:
        raise ValueError("count must be non-negative")
    return (count * bits + _WORD_BITS - 1) // _WORD_BITS
