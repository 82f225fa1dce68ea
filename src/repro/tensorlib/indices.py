"""Sparse-index widths and encodings.

For sparsifiers, the index vector is most of the wire footprint besides
the values.  Sender and receiver share the bucket layout, so both know
how many positions an index part counts in — its *extent* — and
:func:`index_dtype` fixes the part's width from that alone: uint8 up to
256 positions, uint16 up to 65,536, int32 beyond (int64 past 2³¹).  No
tag travels, and a decoder widens the part to int64 whatever its width.

The paper's own group later attacked the index cost further in
DeepReduce ("independent and combined compression of values and indices
of sparse tensors", related work §VI); this module also provides the two
classic index representations and an automatic chooser:

* ``bitmap`` — one bit per universe position; wins when density > ~1/32;
* ``delta`` — varint-coded gaps between sorted indices; wins for sparse
  but clustered selections (typical gap ≪ 2²⁸).

Encoding is lossless and requires sorted, unique indices.
"""

from __future__ import annotations

import numpy as np

from repro.tensorlib.encoding import varint_decode, varint_encode
from repro.tensorlib.packing import pack_bits, unpack_bits

MODES = ("int32", "bitmap", "delta")

_UINT8, _UINT16 = np.dtype(np.uint8), np.dtype(np.uint16)
_INT32, _INT64 = np.dtype(np.int32), np.dtype(np.int64)


def index_dtype(extent: int) -> np.dtype:
    """The narrowest wire dtype that holds every position of
    ``range(extent)``: the width of an index part counting in ``extent``
    positions, which both sides derive from the layout they share."""
    if extent <= 1 << 8:
        return _UINT8
    if extent <= 1 << 16:
        return _UINT16
    if extent <= 1 << 31:
        return _INT32
    return _INT64


def _check_indices(indices: np.ndarray, universe: int) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size:
        if indices.min() < 0 or indices.max() >= universe:
            raise ValueError("index out of range for the declared universe")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("indices must be sorted and unique")
    return indices


def encode_indices(
    indices: np.ndarray, universe: int, mode: str = "auto"
) -> tuple[np.ndarray, str]:
    """Encode sorted unique indices; returns ``(buffer, mode_used)``.

    ``mode="auto"`` picks the smallest of the three representations.
    """
    indices = _check_indices(indices, universe)
    if mode == "auto":
        candidates = [encode_indices(indices, universe, m) for m in MODES]
        return min(candidates, key=lambda pair: pair[0].nbytes)
    if mode == "int32":
        return indices.astype(np.int32).view(np.uint8), "int32"
    if mode == "bitmap":
        bits = np.zeros(universe, dtype=np.uint8)
        bits[indices] = 1
        return pack_bits(bits, bits=1), "bitmap"
    if mode == "delta":
        if indices.size == 0:
            return np.zeros(0, dtype=np.uint8), "delta"
        gaps = np.diff(indices, prepend=0)
        return varint_encode(gaps), "delta"
    raise ValueError(f"unknown index encoding mode {mode!r}")


def decode_indices(
    buffer: np.ndarray, mode: str, universe: int, count: int
) -> np.ndarray:
    """Inverse of :func:`encode_indices`."""
    if count < 0 or universe < 0:
        raise ValueError("count and universe must be non-negative")
    if mode == "int32":
        return np.asarray(buffer, dtype=np.uint8).view(np.int32).astype(
            np.int64
        )
    if mode == "bitmap":
        bits = unpack_bits(np.asarray(buffer, dtype=np.uint8), 1, universe)
        indices = np.flatnonzero(bits)
        if indices.size != count:
            raise ValueError(
                f"bitmap decodes {indices.size} indices, expected {count}"
            )
        return indices.astype(np.int64)
    if mode == "delta":
        gaps = varint_decode(np.asarray(buffer, dtype=np.uint8), count)
        return np.cumsum(gaps).astype(np.int64)
    raise ValueError(f"unknown index encoding mode {mode!r}")
