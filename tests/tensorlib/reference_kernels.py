"""The kernels as they were before the vectorised rewrite, kept as oracles.

Element-at-a-time (or bit-matrix) implementations whose behaviour the fast
kernels in ``repro.tensorlib`` must reproduce exactly: same bytes, same
values, same ``ValueError`` on the same malformed input.  Used only by the
tests in this directory.
"""

from __future__ import annotations

import numpy as np


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")


def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    _check_bits(bits)
    codes = np.ascontiguousarray(codes).astype(np.uint64).ravel()
    if codes.size and int(codes.max()) >= (1 << bits):
        raise ValueError(f"code-word {int(codes.max())} does not fit in {bits} bits")
    bit_matrix = ((codes[:, None] >> np.arange(bits, dtype=np.uint64)) & 1).astype(
        np.uint8
    )
    flat_bits = bit_matrix.ravel()
    pad = (-flat_bits.size) % 8
    if pad:
        flat_bits = np.concatenate([flat_bits, np.zeros(pad, dtype=np.uint8)])
    return np.packbits(flat_bits.reshape(-1, 8), axis=1, bitorder="little").ravel()


def unpack_bits(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    _check_bits(bits)
    if count < 0:
        raise ValueError("count must be non-negative")
    flat_bits = np.unpackbits(buffer.astype(np.uint8), bitorder="little")
    needed = count * bits
    if flat_bits.size < needed:
        raise ValueError(
            f"buffer holds {flat_bits.size} bits but {needed} are required"
        )
    bit_matrix = flat_bits[:needed].reshape(count, bits).astype(np.int64)
    weights = (1 << np.arange(bits, dtype=np.int64))
    return bit_matrix @ weights


def pack_signs(values: np.ndarray) -> np.ndarray:
    return pack_bits((np.ravel(values) >= 0).astype(np.uint8), bits=1)


def unpack_signs(buffer: np.ndarray, count: int) -> np.ndarray:
    bits = unpack_bits(buffer, bits=1, count=count)
    return np.where(bits > 0, 1.0, -1.0).astype(np.float32)


def varint_encode(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("varint encoding requires non-negative integers")
    out = bytearray()
    for value in values.tolist():
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return np.frombuffer(bytes(out), dtype=np.uint8)


def varint_decode(buffer: np.ndarray, count: int) -> np.ndarray:
    if count < 0:
        raise ValueError("count must be non-negative")
    data = bytes(np.asarray(buffer, dtype=np.uint8))
    values = np.empty(count, dtype=np.int64)
    position = 0
    for index in range(count):
        result = 0
        shift = 0
        while True:
            if position >= len(data):
                raise ValueError("varint buffer exhausted")
            byte = data[position]
            position += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        values[index] = result
    return values


_SYMBOL_NEG, _SYMBOL_POS, _SYMBOL_RUN = 0, 1, 2


def rle_encode_zeros(ternary: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    ternary = np.asarray(ternary)
    if ternary.size and not set(np.unique(ternary)).issubset({-1, 0, 1}):
        raise ValueError("input must be ternary (-1, 0, +1)")
    symbols: list[int] = []
    runs: list[int] = []
    index = 0
    values = ternary.astype(np.int64)
    n = values.size
    while index < n:
        value = values[index]
        if value == 0:
            run_start = index
            while index < n and values[index] == 0:
                index += 1
            symbols.append(_SYMBOL_RUN)
            runs.append(index - run_start)
        else:
            symbols.append(_SYMBOL_POS if value > 0 else _SYMBOL_NEG)
            index += 1
    return (
        np.asarray(symbols, dtype=np.uint8),
        np.asarray(runs, dtype=np.int64),
        len(symbols),
    )


def rle_decode_zeros(
    symbols: np.ndarray, run_lengths: np.ndarray, size: int
) -> np.ndarray:
    out = np.zeros(size, dtype=np.float32)
    position = 0
    run_index = 0
    for symbol in np.asarray(symbols).tolist():
        if symbol == _SYMBOL_RUN:
            if run_index >= len(run_lengths):
                raise ValueError("run-length stream exhausted")
            position += int(run_lengths[run_index])
            run_index += 1
        elif symbol == _SYMBOL_POS:
            out[position] = 1.0
            position += 1
        elif symbol == _SYMBOL_NEG:
            out[position] = -1.0
            position += 1
        else:
            raise ValueError(f"unknown RLE symbol {symbol}")
        if position > size:
            raise ValueError("RLE stream overruns the declared size")
    if position != size:
        raise ValueError(
            f"RLE stream decodes {position} elements, expected {size}"
        )
    return out


class CountSketch:
    """Hash functions drawn per instance, ``np.add.at`` / ``np.median``."""

    def __init__(self, width: int, depth: int, universe: int, seed: int = 0):
        if width < 1 or depth < 1 or universe < 1:
            raise ValueError("width, depth and universe must all be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.universe = int(universe)
        rng = np.random.default_rng(seed)
        self._buckets = rng.integers(0, width, size=(depth, universe))
        self._signs = rng.choice(np.array([-1.0, 1.0]), size=(depth, universe))
        self.table = np.zeros((depth, width), dtype=np.float64)

    def update(self, indices: np.ndarray, values: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must have the same shape")
        if indices.size and (indices.max() >= self.universe or indices.min() < 0):
            raise ValueError("index outside sketch universe")
        for row in range(self.depth):
            np.add.at(
                self.table[row],
                self._buckets[row, indices],
                self._signs[row, indices] * values,
            )

    def query(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        estimates = np.empty((self.depth, indices.size), dtype=np.float64)
        for row in range(self.depth):
            estimates[row] = (
                self._signs[row, indices] * self.table[row, self._buckets[row, indices]]
            )
        return np.median(estimates, axis=0)

    def heavy_hitters(self, k: int) -> np.ndarray:
        estimates = np.abs(self.query(np.arange(self.universe)))
        k = int(min(max(k, 1), self.universe))
        idx = np.argpartition(estimates, self.universe - k)[-k:]
        return np.sort(idx)
