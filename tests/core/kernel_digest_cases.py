"""Byte-level digests of the bit-packed / sketched / quantized kernels.

The corpus behind ``tests/core/golden/kernel_digests.json``: SHA-256 of
every payload part (dtype, shape and bytes), of the decompressed array and
of the compressor's random stream after the call, for every registry
compressor built on the ``repro.tensorlib`` packing, sketch, encoding and
quantize primitives and for the four built on LAPACK, plus direct digests
of those primitives.  A kernel rewrite must leave every digest unchanged:
same bytes on the wire, same values after decode, same draws from
``self._rng``.

Regenerate (only when a wire format is *meant* to change)::

    PYTHONPATH=src python tests/core/kernel_digest_cases.py --write

To freeze the digests of another checkout's kernels, point ``PYTHONPATH``
at its ``src`` instead.  When a change is meant to move some wire formats,
keep the old file and prove nothing else moved::

    PYTHONPATH=src python tests/core/kernel_digest_cases.py \
        --diff old.json --payloads eightbit,qsgd/bucket-zero,sketchml/compress

fails unless the golden file differs from ``old.json`` in nothing but the
``payload`` field of the declared entries: ``<name>`` declares the
``<name>/bucket*/seed*/fused*`` entries of a compressor (or variant),
``<name>/<bucket>`` those of one bucket, ``<name>/compress`` its
per-tensor ``compress`` entries and ``<name>/aggregate`` its aggregates,
the per-tensor ``aggregate`` and the bucket's ``fused-aggregate`` ones.
Every decoded array and every random stream is byte-identical, and so is
every payload that was not declared.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys

import numpy as np

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "kernel_digests.json"
)

#: Registry compressors whose kernels sit on the shared primitives
#: (``tensorlib`` packing, sketch, encoding, quantize and segments).
COMPRESSORS = (
    "adaptive", "dgc", "efsignsgd", "eightbit", "inceptionn", "lpcsvrg",
    "natural", "none", "onebit", "qsgd", "qsparse", "signsgd", "signum",
    "sketchml", "sketchsgd", "terngrad", "threelc", "thresholdv", "variance",
    "topk", "randomk",
)
#: Registry compressors that factor a tensor's matrix view with LAPACK
#: (``matmul``, ``qr``, ``eigh``).  Their digests hold under both BLAS
#: threadings, which CI checks.
LAPACK = ("atomo", "gradiveq", "gradzip", "powersgd")
#: Non-default formats and draws, digested under ``<name>:<variant>``.
VARIANTS = {
    "topk:bitmap": ("topk", {"index_encoding": "bitmap"}),
    "topk:delta": ("topk", {"index_encoding": "delta"}),
    "topk:auto": ("topk", {"index_encoding": "auto"}),
    "randomk:unbiased": ("randomk", {"unbiased": True}),
    "terngrad:entropy": ("terngrad", {"entropy_coding": True}),
    "qsparse:randomk": ("qsparse", {"selection": "randomk"}),
}
#: An index encoding of an empty tensor raised when the corpus was frozen,
#: so these variants have no ``empty``/``bucket-empty`` digests;
#: ``tests/core/test_contract_sweep.py`` round-trips that case.
NO_EMPTY = ("topk:bitmap", "topk:delta", "topk:auto")
SEEDS = (0, 3)


def digest(array) -> str:
    """``dtype:shape:sha256`` of an array's bytes."""
    array = np.asarray(array)
    sha = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
    shape = "x".join(str(dim) for dim in array.shape)
    return f"{array.dtype.str}:{shape}:{sha}"


def _rng_digest(compressor) -> str:
    state = json.dumps(compressor._rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


def edge_values() -> np.ndarray:
    """Where ``log2``/``floor``/``exp2`` rewrites would first go wrong:
    exact powers of two, one ulp either side, subnormals and signed zeros."""
    powers = np.exp2(np.arange(-24, 4, dtype=np.float32))
    below = np.nextafter(powers, np.float32(0.0))
    above = np.nextafter(powers, np.float32(np.inf))
    tiny = np.float32(np.finfo(np.float32).tiny)
    subnormal = np.array(
        [1e-45, 3e-42, 1e-39, tiny, tiny / 2, tiny * 2], dtype=np.float32
    )
    zeros = np.array([0.0, -0.0], dtype=np.float32)
    positive = np.concatenate([powers, below, above, subnormal])
    return np.concatenate([positive, -positive, zeros, np.float32([1.5, -3.0])])


def inputs(seed: int) -> dict:
    """The float32 tensors every compressor is digested on."""
    rng = np.random.default_rng([seed, 0xD16E])
    dense = (0.01 * rng.standard_normal((512, 512))).astype(np.float32)
    sparse = (0.01 * rng.standard_normal(1 << 16)).astype(np.float32)
    sparse[rng.random(sparse.size) >= 0.05] = 0.0
    ties = rng.choice(
        np.float32([-0.5, -0.25, 0.0, 0.25, 0.5]), size=1 << 15
    ).astype(np.float32)
    cases = {
        "dense": dense,
        "sparse5": sparse,
        "zeros": np.zeros(4099, dtype=np.float32),
        "ties": ties,
        "edge": edge_values(),
    }
    for length in (1, 7, 8, 9):
        cases[f"len{length}"] = (
            0.01 * rng.standard_normal(length)
        ).astype(np.float32)
    cases["empty"] = np.zeros((0, 3), dtype=np.float32)
    # Matrix views other than the square ``dense``: tall, and a 4-d
    # convolution kernel whose view is wide.
    cases["tall"] = (0.01 * rng.standard_normal((1536, 40))).astype(np.float32)
    cases["conv"] = (
        0.01 * rng.standard_normal((64, 32, 3, 3))
    ).astype(np.float32)
    return cases


def _payload_digests(compressed) -> list:
    return [digest(part) for part in compressed.payload]


def _fused_bucket(seed: int, zero: str | None = None, empty: bool = False):
    """One bucket of odd-sized segments; ``zero`` names one to blank out
    (a layer that is dead on this rank: zero norm, zero scale), ``empty``
    puts a tensor of no elements between the live ones."""
    from repro.core.fusion import FusionPlan

    rng = np.random.default_rng([seed, 0xF05E])
    grads = {
        "a.w": (0.01 * rng.standard_normal((37, 5))).astype(np.float32),
        "a.b": (0.1 * rng.standard_normal(9)).astype(np.float32),
    }
    if empty:
        grads["e.w"] = np.zeros((0, 3), dtype=np.float32)
    grads.update({
        "b.w": (0.01 * rng.standard_normal((3, 4, 11))).astype(np.float32),
        "b.b": rng.standard_normal(1).astype(np.float32),
        "c.w": (0.001 * rng.standard_normal(4096)).astype(np.float32),
    })
    if zero is not None:
        grads[zero] = np.zeros_like(grads[zero])
    (bucket,) = FusionPlan.from_gradients(grads, 1 << 20).buckets
    buffer = np.empty(bucket.numel, dtype=np.float32)
    for seg in bucket.segments:
        buffer[seg.offset:seg.end] = grads[seg.name].ravel()
    return bucket, buffer


def compressor_digests() -> dict:
    """``name/case/seed/mode`` -> payload, decoded and rng digests."""
    from repro.core import create

    out = {}
    kinds = dict(
        {name: (name, {}) for name in COMPRESSORS + LAPACK}, **VARIANTS
    )
    for seed in SEEDS:
        cases = inputs(seed)
        buckets = {
            "bucket": _fused_bucket(seed),
            "bucket-zero": _fused_bucket(seed, zero="b.w"),
            "bucket-empty": _fused_bucket(seed, empty=True),
        }
        for name, (kind, params) in kinds.items():
            make = functools.partial(create, kind, **params)
            skipped = ("empty", "bucket-empty") if name in NO_EMPTY else ()
            for case, tensor in cases.items():
                if case in skipped:
                    continue
                comp = make(seed=seed)
                compressed = comp.compress(tensor.copy(), "t")
                out[f"{name}/{case}/seed{seed}/compress"] = {
                    "payload": _payload_digests(compressed),
                    "decoded": digest(comp.decompress(compressed)),
                    "rng": _rng_digest(comp),
                }
            # Every compressor goes through its fused entry point, kernel
            # or generic concatenation alike: the decoded bucket and the
            # draws must not depend on which of the two a tree ships.
            for case, (bucket, buffer) in buckets.items():
                if case in skipped:
                    continue
                comp = make(seed=seed)
                # Twice: the second call sees the advanced random stream
                # (and signum's momentum).
                for call in (1, 2):
                    compressed = comp.compress_fused(buffer.copy(), bucket)
                    out[f"{name}/{case}/seed{seed}/fused{call}"] = {
                        "payload": _payload_digests(compressed),
                        "decoded": digest(comp.decompress_fused(compressed)),
                        "rng": _rng_digest(comp),
                    }
            comp = make(seed=seed)
            if comp.aggregation != "none":
                workers = [make(seed=seed + rank) for rank in (0, 1)]
                for case in ("dense", "sparse5", "len9"):
                    items = [
                        worker.compress(cases[case] * np.float32(rank + 1), "t")
                        for rank, worker in enumerate(workers)
                    ]
                    merged = comp.aggregate_compressed(items)
                    out[f"{name}/{case}/seed{seed}/aggregate"] = {
                        "payload": _payload_digests(merged),
                        "decoded": digest(comp.decompress_aggregated(merged)),
                    }
                bucket, buffer = buckets["bucket"]
                merged = comp.aggregate_compressed([
                    worker.compress_fused(buffer * np.float32(rank + 1), bucket)
                    for rank, worker in enumerate(workers)
                ])
                out[f"{name}/bucket/seed{seed}/fused-aggregate"] = {
                    "payload": _payload_digests(merged),
                    "decoded": digest(comp.decompress_aggregated(merged)),
                }
    return out


# ---------------------------------------------------------------------------
# The primitives themselves
# ---------------------------------------------------------------------------

_PACK_LENGTHS = (0, 1, 7, 8, 9, 65, 1000, 4097)


def _packing_digests() -> dict:
    from repro.tensorlib import pack_bits, pack_signs, unpack_bits, unpack_signs

    out = {}
    rng = np.random.default_rng(0xB175)
    for bits in range(1, 17):
        for n in _PACK_LENGTHS:
            codes = rng.integers(0, 1 << bits, n)
            if n:
                codes[-1] = (1 << bits) - 1
            packed = pack_bits(codes, bits)
            out[f"pack_bits/{bits}/{n}"] = digest(packed)
            out[f"unpack_bits/{bits}/{n}"] = digest(unpack_bits(packed, bits, n))
            # Fewer codes than the buffer holds: the tail is ignored.
            out[f"unpack_bits/{bits}/{n}/short"] = digest(
                unpack_bits(packed, bits, n // 2)
            )
            if bits <= 8:
                out[f"pack_bits/{bits}/{n}/u8"] = digest(
                    pack_bits(codes.astype(np.uint8), bits)
                )
    for n in _PACK_LENGTHS:
        values = rng.standard_normal(n).astype(np.float32)
        values[::5] = 0.0
        values[1::7] = -0.0
        packed = pack_signs(values)
        out[f"pack_signs/{n}"] = digest(packed)
        out[f"unpack_signs/{n}"] = digest(unpack_signs(packed, n))
        out[f"pack_signs/{n}/2d-f64"] = digest(
            pack_signs(values.astype(np.float64).reshape(1, -1))
        )
    return out


def _encoding_digests() -> dict:
    from repro.tensorlib import (
        rle_decode_zeros,
        rle_encode_zeros,
        varint_decode,
        varint_encode,
    )

    out = {}
    rng = np.random.default_rng(0xE2C0)
    boundaries = np.array(
        [0, 1, 127, 128, 255, 16383, 16384, 2097151, 2097152, (1 << 28) - 1,
         1 << 28, 1 << 35, (1 << 42) + 5, 1 << 49, 1 << 56, (1 << 62) + 1,
         (1 << 63) - 1],
        dtype=np.int64,
    )
    streams = {
        "empty": np.zeros(0, dtype=np.int64),
        "boundaries": boundaries,
        "small": rng.integers(0, 300, 5000),
        "geometric": rng.geometric(0.01, 5000).astype(np.int64),
        "wide": rng.integers(0, 1 << 40, 777),
    }
    for name, values in streams.items():
        encoded = varint_encode(values)
        out[f"varint_encode/{name}"] = digest(encoded)
        out[f"varint_decode/{name}"] = digest(
            varint_decode(encoded, values.size)
        )
        out[f"varint_decode/{name}/prefix"] = digest(
            varint_decode(encoded, values.size // 2)
        )
    ternaries = {
        "empty": np.zeros(0, dtype=np.int64),
        "zeros": np.zeros(1000, dtype=np.int64),
        "no-zeros": rng.choice(np.array([-1, 1]), 1000),
        "sparse": rng.choice(np.array([-1, 0, 1]), 20000, p=[0.02, 0.96, 0.02]),
        "half": rng.choice(np.array([-1, 0, 1]), 20000, p=[0.25, 0.5, 0.25]),
        "lead-trail": np.array([0, 0, 1, 0, -1, -1, 0, 0, 0], dtype=np.int64),
        "one-zero": np.array([0], dtype=np.int64),
        "one-pos": np.array([1], dtype=np.int64),
        "float": np.float32([0, 1, 0, 0, -1, 1]),
    }
    for name, ternary in ternaries.items():
        symbols, runs, n_symbols = rle_encode_zeros(ternary)
        out[f"rle_encode/{name}"] = [digest(symbols), digest(runs), n_symbols]
        out[f"rle_decode/{name}"] = digest(
            rle_decode_zeros(symbols, runs, ternary.size)
        )
    return out


def _sketch_digests() -> dict:
    from repro.tensorlib import CountSketch, QuantileSketch

    out = {}
    rng = np.random.default_rng(0x5CE7)
    for width, depth, universe, seed in (
        (8, 1, 1, 0), (8, 5, 9, 0x5EED), (64, 3, 1000, 1),
        (2096, 5, 26214, 0x5EED), (37, 4, 5000, 2), (16, 7, 300, 5),
        (16, 2, 300, 5),
    ):
        key = f"{width}-{depth}-{universe}-{seed}"
        sketch = CountSketch(width, depth, universe, seed=seed)
        values = rng.standard_normal(universe).astype(np.float32)
        sketch.update(np.arange(universe), values)
        some = rng.integers(0, universe, max(1, universe // 3))
        sketch.update(some, rng.standard_normal(some.size))
        out[f"count_sketch/{key}/table"] = digest(sketch.table)
        out[f"count_sketch/{key}/query"] = digest(sketch.query(some))
        out[f"count_sketch/{key}/query-all"] = digest(
            sketch.query(np.arange(universe))
        )
        for k in (1, max(1, universe // 100), universe):
            out[f"count_sketch/{key}/heavy/{k}"] = digest(
                sketch.heavy_hitters(k)
            )
    for buckets, max_size, n in (
        (2, 16, 5), (64, 2048, 2048), (64, 2048, 5000), (256, 4096, 100),
        (3, 8, 1),
    ):
        key = f"{buckets}-{max_size}-{n}"
        sketch = QuantileSketch(buckets, max_size=max_size)
        values = (0.01 * rng.standard_normal(n)).astype(np.float32)
        sketch.insert(values)
        sketch.insert(values[: n // 2] * np.float32(3.0))
        out[f"quantile_sketch/{key}/boundaries"] = digest(sketch.boundaries())
        out[f"quantile_sketch/{key}/representatives"] = digest(
            sketch.representatives()
        )
        codes = sketch.encode(values)
        out[f"quantile_sketch/{key}/encode"] = digest(codes)
        out[f"quantile_sketch/{key}/encode-f64"] = digest(
            sketch.encode(values.astype(np.float64))
        )
        out[f"quantile_sketch/{key}/decode"] = digest(sketch.decode(codes))
    return out


def _quantize_digests() -> dict:
    from repro.tensorlib import (
        dequantize_float8,
        dequantize_uniform,
        nearest_power_of_two,
        quantize_float8,
        quantize_stochastic_levels,
        quantize_uniform,
        stochastic_power_of_two,
    )

    out = {}
    rng = np.random.default_rng(0x0A47)
    tensors = {
        "edge": edge_values(),
        "normal": (0.01 * rng.standard_normal(4097)).astype(np.float32),
        "zeros": np.zeros(17, dtype=np.float32),
        "empty": np.zeros(0, dtype=np.float32),
        "one": np.float32([-0.37]),
    }
    for name, tensor in tensors.items():
        codes, scale = quantize_float8(tensor)
        out[f"quantize_float8/{name}"] = [
            digest(codes), digest(np.float64(scale))
        ]
        for label, wire_scale in (
            ("f64", float(scale)), ("f32", np.float32(scale))
        ):
            out[f"dequantize_float8/{name}/{label}"] = digest(
                dequantize_float8(codes, wire_scale)
            )
        draw = np.random.default_rng(7)
        out[f"stochastic_power_of_two/{name}"] = [
            digest(stochastic_power_of_two(tensor, draw)),
            digest(draw.random(3)),
        ]
        out[f"nearest_power_of_two/{name}"] = digest(
            nearest_power_of_two(tensor)
        )
        magnitudes = np.abs(tensor)
        norm = np.float32(np.linalg.norm(tensor))
        for levels in (1, 4, 64, 255):
            draw = np.random.default_rng(9)
            out[f"quantize_stochastic_levels/{name}/{levels}"] = [
                digest(quantize_stochastic_levels(
                    magnitudes, norm, levels, draw
                )),
                digest(draw.random(3)),
            ]
            unit = np.minimum(magnitudes * np.float32(50.0), np.float32(1.0))
            codes = quantize_uniform(unit, levels)
            out[f"quantize_uniform/{name}/{levels}"] = digest(codes)
            out[f"dequantize_uniform/{name}/{levels}"] = digest(
                dequantize_uniform(codes, levels)
            )
    all_codes = np.arange(256, dtype=np.uint8)
    out["dequantize_float8/all-codes"] = digest(
        dequantize_float8(all_codes, 0.731)
    )
    return out


def primitive_digests() -> dict:
    out = {}
    for part in (
        _packing_digests, _encoding_digests, _sketch_digests,
        _quantize_digests,
    ):
        out.update(part())
    return out


def all_digests() -> dict:
    return {
        "compressors": compressor_digests(),
        "tensorlib": primitive_digests(),
    }


def _may_move(key: str, payloads) -> bool:
    """Whether ``key`` is an entry whose payload the caller let move: a
    fused-bucket entry by compressor (``eightbit``) or by compressor and
    bucket (``qsgd/bucket-zero``), a per-tensor one by compressor
    (``sketchml/compress``), an aggregate by compressor
    (``qsgd/aggregate``)."""
    name, case, _, mode = key.split("/")
    if mode == "compress":
        return f"{name}/compress" in payloads
    if f"{name}/aggregate" in payloads and mode.endswith("aggregate"):
        return True
    return (
        case.startswith("bucket")
        and mode.startswith("fused")
        and (name in payloads or f"{name}/{case}" in payloads)
    )


def unexpected_changes(old: dict, new: dict, payloads) -> list:
    """What differs between two digest files beyond the allowed fields.

    Allowed: the ``payload`` of the entries ``payloads`` declares (see
    :func:`_may_move`).  Everything else — an entry added or dropped, a
    decoded array, a random stream, an undeclared payload, a tensorlib
    primitive — is reported as ``section/key[/field]``.
    """
    problems = []
    for section in sorted(set(old) | set(new)):
        before, after = old.get(section, {}), new.get(section, {})
        for key in sorted(set(before) | set(after)):
            if key not in before or key not in after:
                problems.append(f"{section}/{key} (added or removed)")
                continue
            if before[key] == after[key]:
                continue
            if section != "compressors" or not _may_move(key, payloads):
                problems.append(f"{section}/{key}")
                continue
            problems.extend(
                f"{section}/{key}/{field}"
                for field in sorted(set(before[key]) | set(after[key]))
                if field != "payload"
                and before[key].get(field) != after[key].get(field)
            )
    return problems


def main(argv) -> int:
    if argv == ["--write"]:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(all_digests(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    if len(argv) == 4 and argv[0] == "--diff" and argv[2] == "--payloads":
        with open(argv[1]) as handle:
            old = json.load(handle)
        with open(GOLDEN_PATH) as handle:
            new = json.load(handle)
        problems = unexpected_changes(old, new, set(argv[3].split(",")))
        for problem in problems:
            print(f"moved: {problem}")
        print(f"{len(problems)} unexpected change(s) vs {argv[1]}")
        return 1 if problems else 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
