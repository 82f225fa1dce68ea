"""The kernels' bytes are frozen: payloads, decoded values, random draws.

``golden/kernel_digests.json`` was generated from the kernels as they were
before the vectorised rewrite (see ``kernel_digest_cases.py`` for the corpus
and how to regenerate).  A faster kernel must reproduce every digest.
"""

from __future__ import annotations

import json

import pytest

from tests.core import kernel_digest_cases as cases


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(cases.GOLDEN_PATH) as handle:
        return json.load(handle)


def _mismatches(actual: dict, expected: dict) -> list:
    # JSON round-trip so tuples/ints compare the way the file stores them.
    actual = json.loads(json.dumps(actual))
    keys = sorted(set(actual) | set(expected))
    return [key for key in keys if actual.get(key) != expected.get(key)]


def test_compressor_payloads_decodes_and_draws_are_bit_identical(golden):
    assert _mismatches(cases.compressor_digests(), golden["compressors"]) == []


def test_tensorlib_primitives_are_bit_identical(golden):
    assert _mismatches(cases.primitive_digests(), golden["tensorlib"]) == []


def test_corpus_covers_every_edited_kernel(golden):
    names = {key.split("/")[0] for key in golden["compressors"]}
    assert names == (
        set(cases.COMPRESSORS) | set(cases.LAPACK) | set(cases.VARIANTS)
    )
    modes = {key.rsplit("/", 1)[1] for key in golden["compressors"]}
    assert modes == {
        "compress", "fused1", "fused2", "aggregate", "fused-aggregate"
    }
    # Every compressor is frozen on its fused entry point too, on a dense
    # bucket, on one with a dead (all-zero) segment and on one holding an
    # empty tensor.
    for name in names:
        for case in ("bucket", "bucket-zero", "bucket-empty"):
            frozen = f"{name}/{case}/seed0/fused2" in golden["compressors"]
            assert frozen or (case == "bucket-empty" and name in cases.NO_EMPTY)
    for bits in range(1, 17):
        assert f"pack_bits/{bits}/9" in golden["tensorlib"]
        assert f"unpack_bits/{bits}/9" in golden["tensorlib"]


def test_diff_mode_lets_only_declared_payloads_move():
    entry = {"payload": ["a"], "decoded": "d", "rng": "r"}
    old = {
        "compressors": {
            "eightbit/bucket/seed0/fused1": dict(entry),
            "eightbit/dense/seed0/compress": dict(entry),
            "sketchml/dense/seed0/compress": dict(entry),
            "qsgd/bucket/seed0/fused1": dict(entry),
            "qsgd/bucket-zero/seed0/fused1": dict(entry),
            "none/bucket/seed0/fused-aggregate": dict(entry),
            "qsgd/dense/seed0/aggregate": dict(entry),
            "qsgd/bucket/seed0/fused-aggregate": dict(entry),
            "topk/dense/seed0/aggregate": dict(entry),
        },
        "tensorlib": {"pack_bits/1/9": "x"},
    }
    allowed = {
        "eightbit", "none", "qsgd/bucket-zero", "sketchml/compress",
        "qsgd/aggregate",
    }
    moved = dict(entry, payload=["b"])

    def changed(**entries):
        new = json.loads(json.dumps(old))
        new["compressors"].update(entries)
        return cases.unexpected_changes(old, new, allowed)

    assert changed() == []
    assert changed(**{
        "eightbit/bucket/seed0/fused1": moved,
        "qsgd/bucket-zero/seed0/fused1": moved,
        "none/bucket/seed0/fused-aggregate": moved,
        "sketchml/dense/seed0/compress": moved,
        "qsgd/dense/seed0/aggregate": moved,
        "qsgd/bucket/seed0/fused-aggregate": moved,
    }) == []
    # An undeclared per-tensor payload, a kernel that was not named, a
    # decoded array.
    assert changed(**{"eightbit/dense/seed0/compress": moved}) == [
        "compressors/eightbit/dense/seed0/compress"
    ]
    assert changed(**{"qsgd/bucket/seed0/fused1": moved}) == [
        "compressors/qsgd/bucket/seed0/fused1"
    ]
    assert changed(**{
        "eightbit/bucket/seed0/fused1": dict(moved, decoded="other")
    }) == ["compressors/eightbit/bucket/seed0/fused1/decoded"]
    assert changed(**{
        "sketchml/dense/seed0/compress": dict(moved, rng="other")
    }) == ["compressors/sketchml/dense/seed0/compress/rng"]
    # A declared aggregate moves its payload only, and only its own
    # compressor's.
    assert changed(**{"topk/dense/seed0/aggregate": moved}) == [
        "compressors/topk/dense/seed0/aggregate"
    ]
    assert changed(**{
        "qsgd/dense/seed0/aggregate": dict(moved, decoded="other")
    }) == ["compressors/qsgd/dense/seed0/aggregate/decoded"]
    new = json.loads(json.dumps(old))
    new["tensorlib"]["pack_bits/1/9"] = "y"
    del new["compressors"]["qsgd/bucket/seed0/fused1"]
    assert cases.unexpected_changes(old, new, allowed) == [
        "compressors/qsgd/bucket/seed0/fused1 (added or removed)",
        "tensorlib/pack_bits/1/9",
    ]
