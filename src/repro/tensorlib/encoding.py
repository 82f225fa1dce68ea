"""Lossless encodings.

3LC's third stage is "aggressive lossless encoding" of the quantized
stream; its reference design uses zero-run-length encoding, which is what
:func:`rle_encode_zeros` implements (ternary symbols, with runs of zeros
collapsed into a length counter).  Varint encoding serves as the compact
integer representation for the run lengths.
"""

from __future__ import annotations

import numpy as np

_VARINT_PAYLOAD_BITS = 7
_VARINT_PAYLOAD_MASK = 0x7F
_VARINT_CONTINUE = 0x80
_VARINT_MAX_BYTES = 9  # 9 * 7 = 63 bits: every non-negative int64


def varint_encode(values: np.ndarray) -> np.ndarray:
    """LEB128-style varint encoding of non-negative integers."""
    values = np.ravel(np.asarray(values, dtype=np.int64))
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if values.min() < 0:
        raise ValueError("varint encoding requires non-negative integers")
    widest = max(1, -(-int(values.max()).bit_length() // _VARINT_PAYLOAD_BITS))
    lengths = np.ones(values.size, dtype=np.int64)
    for extra in range(1, widest):
        lengths += values >= (1 << (_VARINT_PAYLOAD_BITS * extra))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    # Byte ``index`` of every value that has one, most values first.
    for index in range(widest):
        has = slice(None) if index == 0 else np.flatnonzero(lengths > index)
        byte = (values[has] >> (_VARINT_PAYLOAD_BITS * index)) & _VARINT_PAYLOAD_MASK
        byte |= (lengths[has] > index + 1) * _VARINT_CONTINUE
        out[starts[has] + index] = byte
    return out


def varint_decode(buffer: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`varint_encode`; reads ``count`` integers."""
    if count < 0:
        raise ValueError("count must be non-negative")
    data = np.ravel(np.asarray(buffer, dtype=np.uint8))
    ends = np.flatnonzero(data < _VARINT_CONTINUE)[:count]
    if ends.size < count:
        raise ValueError("varint buffer exhausted")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    used = int(ends[-1]) + 1
    if used == count:  # every value is one byte
        return data[:count].astype(np.int64)
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends + 1 - starts
    if lengths.max() > _VARINT_MAX_BYTES:
        raise ValueError("varint does not fit in 63 bits")
    index = np.arange(used) - np.repeat(starts, lengths)
    parts = (data[:used] & _VARINT_PAYLOAD_MASK).astype(np.int64) << (
        _VARINT_PAYLOAD_BITS * index
    )
    # The parts of one value occupy disjoint bits: their sum is their or.
    return np.add.reduceat(parts, starts)


# Symbols of the zero-RLE ternary stream: literal -1 / +1, or a zero-run.
_SYMBOL_NEG, _SYMBOL_POS, _SYMBOL_RUN = 0, 1, 2


def rle_encode_zeros(ternary: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Zero-run-length encode a {-1, 0, +1} stream (3LC's lossless stage).

    Returns ``(symbols, run_lengths, n_symbols)``: a 2-bit symbol stream
    (packed by the caller) where each ``RUN`` symbol consumes the next
    varint run length.
    """
    ternary = np.ravel(np.asarray(ternary))
    zero = ternary == 0
    positive = ternary == 1
    if not np.all(zero | positive | (ternary == -1)):
        raise ValueError("input must be ternary (-1, 0, +1)")
    # A symbol is emitted at every literal and at the first zero of a run.
    emits = ~zero
    emits[:1] = True
    emits[1:] |= ~zero[:-1]
    positions = np.flatnonzero(emits)
    symbols = positive[positions].astype(np.uint8)  # NEG 0 / POS 1
    is_run = zero[positions]
    symbols[is_run] = _SYMBOL_RUN
    # A run lasts until the next emitted symbol (or the end of the stream).
    following = np.append(positions[1:], ternary.size)
    runs = (following - positions)[is_run]
    return symbols, runs.astype(np.int64), int(symbols.size)


def rle_decode_zeros(
    symbols: np.ndarray, run_lengths: np.ndarray, size: int
) -> np.ndarray:
    """Inverse of :func:`rle_encode_zeros`; returns a float32 ternary array."""
    symbols = np.ravel(np.asarray(symbols))
    run_lengths = np.ravel(np.asarray(run_lengths))
    unknown = (symbols < _SYMBOL_NEG) | (symbols > _SYMBOL_RUN)
    if np.any(unknown):
        raise ValueError(f"unknown RLE symbol {symbols[np.argmax(unknown)]}")
    is_run = symbols == _SYMBOL_RUN
    n_runs = int(np.count_nonzero(is_run))
    if n_runs > run_lengths.size:
        raise ValueError("run-length stream exhausted")
    if n_runs and run_lengths[:n_runs].min() < 0:
        raise ValueError("negative run length")
    advance = np.ones(symbols.size, dtype=np.int64)
    advance[is_run] = run_lengths[:n_runs]
    ends = np.cumsum(advance)
    decoded = int(ends[-1]) if symbols.size else 0
    if decoded > size:
        raise ValueError("RLE stream overruns the declared size")
    if decoded != size:
        raise ValueError(
            f"RLE stream decodes {decoded} elements, expected {size}"
        )
    out = np.zeros(size, dtype=np.float32)
    literal = np.flatnonzero(~is_run)
    out[ends[literal] - 1] = np.where(
        symbols[literal] == _SYMBOL_POS, np.float32(1.0), np.float32(-1.0)
    )
    return out
