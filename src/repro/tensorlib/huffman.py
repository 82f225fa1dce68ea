"""Canonical Huffman coding for quantized symbol streams.

Related work (§VI) points at Huffman encoding "for efficiently packing
and transmitting the quantized vectors" (Gajjala et al.): quantizer
outputs are heavily skewed (TernGrad emits mostly zeros, QSGD mostly
small codes), so entropy coding beats fixed-width packing.  The codebook
is canonical, so only the per-symbol code *lengths* need to travel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


def code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code length per symbol from its frequency counts.

    Symbols with zero count get length 0 (absent from the stream).
    Single-symbol streams get length 1 by convention.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D array")
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    present = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.uint8)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    # Standard heap construction tracking subtree members' depths.
    heap: list[tuple[int, int, list[int]]] = [
        (int(counts[s]), int(s), [int(s)]) for s in present
    ]
    heapq.heapify(heap)
    depth = np.zeros(counts.size, dtype=np.int64)
    tiebreak = counts.size
    while len(heap) > 1:
        count_a, _, members_a = heapq.heappop(heap)
        count_b, _, members_b = heapq.heappop(heap)
        for symbol in members_a + members_b:
            depth[symbol] += 1
        heapq.heappush(
            heap, (count_a + count_b, tiebreak, members_a + members_b)
        )
        tiebreak += 1
    lengths[present] = depth[present]
    return lengths


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code value per symbol (0 for absent symbols).

    Canonical assignment: sort by (length, symbol); codes are consecutive
    integers within a length, shifted left when the length increases.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.int64)
    order = sorted(
        (int(s) for s in np.flatnonzero(lengths)),
        key=lambda s: (lengths[s], s),
    )
    code = 0
    previous_length = 0
    for symbol in order:
        code <<= int(lengths[symbol]) - previous_length
        codes[symbol] = code
        previous_length = int(lengths[symbol])
        code += 1
    return codes


@dataclass
class HuffmanEncoded:
    """An entropy-coded symbol stream plus its canonical codebook."""

    buffer: np.ndarray  # packed uint8 bit stream (MSB-first per code)
    lengths: np.ndarray  # uint8 code length per symbol (the codebook)
    count: int  # number of encoded symbols

    @property
    def nbytes(self) -> int:
        """On-wire size in bytes."""
        return int(self.buffer.nbytes + self.lengths.nbytes)


def huffman_encode(symbols: np.ndarray, num_symbols: int) -> HuffmanEncoded:
    """Encode an integer symbol stream with a stream-specific codebook."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if num_symbols < 1:
        raise ValueError("num_symbols must be >= 1")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= num_symbols):
        raise ValueError("symbol out of range")
    counts = np.bincount(symbols, minlength=num_symbols)
    lengths = code_lengths(counts)
    codes = canonical_codes(lengths)
    # Emit bits MSB-first per code word.
    bit_chunks: list[np.ndarray] = []
    for symbol in symbols.tolist():
        length = int(lengths[symbol])
        code = int(codes[symbol])
        bits = (code >> np.arange(length - 1, -1, -1)) & 1
        bit_chunks.append(bits.astype(np.uint8))
    if bit_chunks:
        stream = np.concatenate(bit_chunks)
    else:
        stream = np.zeros(0, dtype=np.uint8)
    return HuffmanEncoded(
        buffer=np.packbits(stream),
        lengths=lengths.astype(np.uint8),
        count=int(symbols.size),
    )


def huffman_decode(encoded: HuffmanEncoded) -> np.ndarray:
    """Inverse of :func:`huffman_encode`."""
    lengths = encoded.lengths.astype(np.int64)
    codes = canonical_codes(lengths)
    # (length, code) -> symbol lookup.
    table = {
        (int(lengths[s]), int(codes[s])): int(s)
        for s in np.flatnonzero(lengths)
    }
    bits = np.unpackbits(encoded.buffer)
    out = np.empty(encoded.count, dtype=np.int64)
    position = 0
    current = 0
    current_length = 0
    emitted = 0
    max_length = int(lengths.max()) if lengths.size else 0
    while emitted < encoded.count:
        if position >= bits.size or current_length > max_length:
            raise ValueError("huffman stream exhausted or corrupt")
        current = (current << 1) | int(bits[position])
        position += 1
        current_length += 1
        symbol = table.get((current_length, current))
        if symbol is not None:
            out[emitted] = symbol
            emitted += 1
            current = 0
            current_length = 0
    return out
