"""Low-level tensor helpers shared by every compressor.

This package mirrors the helper API that the GRACE paper lists in §IV-B:

==============  ============================================================
``quantize``    Quantizes tensor values and returns values in lower bits.
``dequantize``  Dequantizes a tensor and restores the original bits.
``sparsify``    Sparsifies a tensor with a certain selection algorithm.
``desparsify``  Restores the original shape by filling zeros.
``pack``        Encodes several lower-bit values into one higher-bit value.
``unpack``      Unpacks and restores the original decoded form.
==============  ============================================================

plus the sketch data structures needed by SketchML (count-sketch and a
Greenwald-Khanna-style quantile sketch).
"""

from repro.tensorlib.packing import (
    pack_bits,
    unpack_bits,
    pack_signs,
    unpack_signs,
    packed_nbytes,
)
from repro.tensorlib.quantize import (
    quantize_uniform,
    dequantize_uniform,
    quantize_float8,
    dequantize_float8,
    quantize_stochastic_levels,
    nearest_power_of_two,
    stochastic_power_of_two,
)
from repro.tensorlib.sparsify import (
    sparsify_topk,
    sparsify_randomk,
    sparsify_threshold,
    desparsify,
)
from repro.tensorlib.sketch import CountSketch, QuantileSketch
from repro.tensorlib.segments import (
    segment_means,
    segment_norms,
    segment_quantiles,
    segment_searchsorted,
    segment_sort,
    segment_stds,
    segment_sums,
    segment_topk,
)
from repro.tensorlib.encoding import (
    varint_encode,
    varint_decode,
    rle_encode_zeros,
    rle_decode_zeros,
)

__all__ = [
    "varint_encode",
    "varint_decode",
    "rle_encode_zeros",
    "rle_decode_zeros",
    "pack_bits",
    "unpack_bits",
    "pack_signs",
    "unpack_signs",
    "packed_nbytes",
    "quantize_uniform",
    "dequantize_uniform",
    "quantize_float8",
    "dequantize_float8",
    "quantize_stochastic_levels",
    "nearest_power_of_two",
    "stochastic_power_of_two",
    "sparsify_topk",
    "sparsify_randomk",
    "sparsify_threshold",
    "desparsify",
    "CountSketch",
    "QuantileSketch",
    "segment_sums",
    "segment_means",
    "segment_norms",
    "segment_stds",
    "segment_sort",
    "segment_quantiles",
    "segment_searchsorted",
    "segment_topk",
]
