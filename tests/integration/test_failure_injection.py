"""Fault isolation: injected failures surface as clear errors."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, create
from repro.core.api import CompressedTensor
from repro.core.wire import deserialize_payload, serialize_payload


class FaultyTask:
    """Emits a NaN/Inf gradient on a chosen call."""

    def __init__(self, fail_on_call: int, poison: float = np.nan):
        self.calls = 0
        self.fail_on_call = fail_on_call
        self.poison = poison
        self.updates = 0

    def forward_backward(self, inputs, targets):
        self.calls += 1
        grad = np.ones(16, dtype=np.float32)
        if self.calls == self.fail_on_call:
            grad[3] = self.poison
        return 1.0, {"x": grad}

    def apply_update(self, grads):
        self.updates += 1


def batches(n):
    return [(np.zeros(1, np.float32), None)] * n


class TestFiniteChecks:
    def test_nan_gradient_raises_with_rank_and_name(self):
        trainer = DistributedTrainer(
            FaultyTask(fail_on_call=2), create("none"), n_workers=2,
            check_finite=True,
        )
        with pytest.raises(FloatingPointError, match="'x' on rank 1"):
            trainer.step(batches(2))

    def test_inf_gradient_raises(self):
        trainer = DistributedTrainer(
            FaultyTask(fail_on_call=1, poison=np.inf), create("none"),
            n_workers=2, check_finite=True,
        )
        with pytest.raises(FloatingPointError, match="non-finite"):
            trainer.step(batches(2))

    def test_no_update_applied_after_detection(self):
        task = FaultyTask(fail_on_call=1)
        trainer = DistributedTrainer(
            task, create("none"), n_workers=2, check_finite=True
        )
        with pytest.raises(FloatingPointError):
            trainer.step(batches(2))
        assert task.updates == 0

    def test_checks_off_by_default(self):
        task = FaultyTask(fail_on_call=1)
        trainer = DistributedTrainer(task, create("none"), n_workers=2)
        trainer.step(batches(2))  # NaN flows through silently
        assert task.updates == 1

    def test_clean_run_unaffected_by_checks(self):
        task = FaultyTask(fail_on_call=10**9)
        trainer = DistributedTrainer(
            task, create("topk", ratio=0.5), n_workers=2, check_finite=True
        )
        for _ in range(5):
            trainer.step(batches(2))
        assert task.updates == 5


class TestCorruptedPayloads:
    def test_truncated_wire_buffer_rejected(self):
        compressor = create("qsgd", seed=0)
        compressed = compressor.compress(
            np.ones(100, dtype=np.float32), "t"
        )
        buffer = serialize_payload(compressed.payload)
        with pytest.raises(ValueError, match="truncated"):
            deserialize_payload(buffer[: len(buffer) // 2])

    def test_bitflipped_header_rejected_or_decodes_to_garbage(self):
        compressor = create("topk", ratio=0.1, seed=0)
        compressed = compressor.compress(
            np.arange(100, dtype=np.float32), "t"
        )
        buffer = bytearray(serialize_payload(compressed.payload))
        buffer[1] ^= 0xFF  # corrupt the first part's dtype code
        with pytest.raises(ValueError):
            deserialize_payload(bytes(buffer))

    def test_out_of_range_sparse_index_rejected_on_decompress(self):
        compressor = create("topk", ratio=0.1, seed=0)
        compressed = compressor.compress(
            np.arange(100, dtype=np.float32), "t"
        )
        compressed.payload[1] = compressed.payload[1].copy()
        # 100 positions travel as uint8: the widest index the part can
        # hold still lies beyond the tensor.
        assert compressed.payload[1].dtype == np.uint8
        compressed.payload[1][0] = 255
        with pytest.raises(ValueError, match="out of range"):
            compressor.decompress(compressed)

    def test_mismatched_decoder_configuration_fails_loudly(self):
        # GRACE assumes symmetric configuration (the receiver knows the
        # method's parameters).  Decoding a 3-bit stream as 7-bit codes
        # runs out of buffer and must raise rather than mis-read.
        tensor = np.random.default_rng(0).standard_normal(256).astype(
            np.float32
        )
        encoder = create("qsgd", levels=4, seed=0)
        decoder = create("qsgd", levels=64, seed=0)
        compressed = encoder.compress(tensor, "t")
        with pytest.raises(ValueError):
            decoder.decompress(compressed)

    def test_sketch_table_shape_mismatch_detected(self):
        encoder = create("sketchsgd", ratio=0.05, seed=0)
        compressed = encoder.compress(
            np.random.default_rng(1).standard_normal(1000).astype(np.float32),
            "t",
        )
        # Truncate the sketch table: decode must fail, not mis-read.
        compressed.payload[0] = compressed.payload[0][:, :-1]
        with pytest.raises(Exception):
            encoder.decompress(compressed)


class TestDegenerateInputs:
    @pytest.mark.parametrize("name", ["topk", "qsgd", "terngrad", "dgc",
                                      "powersgd", "threelc"])
    def test_single_element_tensor(self, name):
        compressor = create(name, seed=0)
        out = compressor.decompress(
            compressor.compress(np.array([0.5], dtype=np.float32), "t")
        )
        assert out.shape == (1,)
        assert np.isfinite(out[0])

    def test_constant_tensor(self):
        for name in ("eightbit", "qsgd", "adaptive", "sketchml"):
            compressor = create(name, seed=0)
            tensor = np.full(64, 0.25, dtype=np.float32)
            out = compressor.decompress(compressor.compress(tensor, "t"))
            assert np.all(np.isfinite(out)), name
