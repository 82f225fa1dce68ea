"""Error-feedback memories: Eq. 4 semantics and DGC masking."""

import numpy as np
import pytest

from repro.core import (
    DgcMemory,
    Memory,
    NoneMemory,
    ResidualMemory,
    create,
    make_memory,
)
from repro.core.api import update_from_payload
from repro.core.fusion import tensor_bucket


class TestNoneMemory:
    def test_compensate_is_identity(self):
        memory = NoneMemory()
        tensor = np.arange(4.0, dtype=np.float32)
        np.testing.assert_array_equal(memory.compensate(tensor, "t"), tensor)

    def test_update_is_noop(self):
        memory = NoneMemory()
        compressor = create("topk", ratio=0.5)
        tensor = np.arange(4.0, dtype=np.float32)
        compressed = compressor.compress(tensor, "t")
        memory.update(tensor, "t", compressor, compressed)
        np.testing.assert_array_equal(memory.compensate(tensor, "t"), tensor)


class TestResidualMemory:
    def test_first_compensation_scales_by_gamma(self):
        memory = ResidualMemory(beta=1.0, gamma=0.5)
        tensor = np.ones(3, dtype=np.float32)
        np.testing.assert_allclose(memory.compensate(tensor, "t"), 0.5)

    def test_residual_is_phi_minus_transmitted(self):
        # Eq. 4: psi = phi(m, g) - g~.
        memory = ResidualMemory()
        compressor = create("topk", ratio=0.5, seed=0)
        tensor = np.array([5.0, 0.1, -4.0, 0.2], dtype=np.float32)
        compensated = memory.compensate(tensor, "t")
        compressed = compressor.compress(compensated, "t")
        memory.update(compensated, "t", compressor, compressed)
        transmitted = compressor.decompress(compressed)
        np.testing.assert_allclose(
            memory.residual("t"), compensated - transmitted
        )

    def test_dropped_elements_reappear_next_iteration(self):
        memory = ResidualMemory()
        compressor = create("topk", ratio=0.25, seed=0)
        tensor = np.array([10.0, 1.0, 1.0, 1.0], dtype=np.float32)
        compensated = memory.compensate(tensor, "t")
        compressed = compressor.compress(compensated, "t")
        memory.update(compensated, "t", compressor, compressed)
        # Second iteration: the dropped 1.0s are carried in the memory.
        second = memory.compensate(tensor, "t")
        np.testing.assert_allclose(second[1:], 2.0)

    def test_beta_decays_memory(self):
        memory = ResidualMemory(beta=0.5, gamma=1.0)
        compressor = create("topk", ratio=0.25, seed=0)
        tensor = np.array([10.0, 1.0, 0.9, 0.8], dtype=np.float32)
        compensated = memory.compensate(tensor, "t")
        compressed = compressor.compress(compensated, "t")
        memory.update(compensated, "t", compressor, compressed)
        second = memory.compensate(tensor, "t")
        assert second[1] == pytest.approx(1.0 + 0.5 * 1.0)

    def test_per_tensor_isolation(self):
        memory = ResidualMemory()
        compressor = create("topk", ratio=0.5, seed=0)
        a = np.array([1.0, 2.0], dtype=np.float32)
        compensated = memory.compensate(a, "a")
        memory.update(compensated, "a", compressor,
                      compressor.compress(compensated, "a"))
        assert memory.residual("b") is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            ResidualMemory(beta=0.0)
        with pytest.raises(ValueError, match="positive"):
            ResidualMemory(gamma=-1.0)


class TestDgcMemory:
    def test_momentum_accumulates(self):
        memory = DgcMemory(momentum=0.5)
        grad = np.ones(4, dtype=np.float32)
        first = memory.compensate(grad, "t")
        np.testing.assert_allclose(first, 1.0)  # v=1, acc=1
        second = memory.compensate(grad, "t")
        # v = 0.5*1 + 1 = 1.5; acc = 1 + 1.5 = 2.5
        np.testing.assert_allclose(second, 2.5)

    def test_transmitted_indices_are_cleared(self):
        memory = DgcMemory(momentum=0.5)
        compressor = create("dgc", ratio=0.25, seed=0)
        grad = np.array([10.0, 0.1, 0.2, 0.1], dtype=np.float32)
        compensated = memory.compensate(grad, "t")
        compressed = compressor.compress(compensated, "t")
        memory.update(compensated, "t", compressor, compressed)
        sent = compressor.transmitted_indices(compressed)
        assert memory._accumulated["t"][sent].sum() == 0.0
        assert memory._velocity["t"][sent].sum() == 0.0

    def test_untransmitted_entries_survive(self):
        memory = DgcMemory(momentum=0.0)
        compressor = create("dgc", ratio=0.25, seed=0)
        grad = np.array([10.0, 0.1, 0.2, 0.1], dtype=np.float32)
        compensated = memory.compensate(grad, "t")
        compressed = compressor.compress(compensated, "t")
        memory.update(compensated, "t", compressor, compressed)
        sent = set(compressor.transmitted_indices(compressed).tolist())
        kept = [i for i in range(4) if i not in sent]
        assert all(memory._accumulated["t"][i] != 0 for i in kept)

    def test_requires_index_exposing_compressor(self):
        memory = DgcMemory()
        compressor = create("qsgd", seed=0)  # no transmitted_indices
        grad = np.ones(4, dtype=np.float32)
        compensated = memory.compensate(grad, "t")
        compressed = compressor.compress(compensated, "t")
        with pytest.raises(ValueError, match="transmitted_indices"):
            memory.update(compensated, "t", compressor, compressed)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError, match="momentum"):
            DgcMemory(momentum=1.0)


class TestMakeMemory:
    def test_builds_each_kind(self):
        assert isinstance(make_memory("none"), NoneMemory)
        assert isinstance(make_memory("residual"), ResidualMemory)
        assert isinstance(make_memory("dgc"), DgcMemory)

    def test_forwards_parameters(self):
        memory = make_memory("residual", beta=0.7, gamma=0.2)
        assert memory.beta == 0.7 and memory.gamma == 0.2

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown memory"):
            make_memory("bogus")


class TestMemoryBase:
    def test_bucket_methods_are_abstract(self):
        class PerTensorOnly(Memory):
            def compensate(self, tensor, name):
                return tensor

            def update(self, compensated, name, compressor, compressed):
                return None

        with pytest.raises(TypeError, match="compensate_fused"):
            PerTensorOnly()

    @pytest.mark.parametrize("kind, scheme", [
        ("none", "topk"), ("residual", "topk"), ("dgc", "dgc"),
    ])
    def test_per_tensor_methods_run_the_one_segment_bucket(
        self, kind, scheme
    ):
        per_tensor, fused = make_memory(kind), make_memory(kind)
        compressor = create(scheme, ratio=0.25, seed=0)
        bucket = tensor_bucket("t", (2, 4))
        rng = np.random.default_rng(5)
        for _ in range(3):
            grad = rng.standard_normal((2, 4)).astype(np.float32)
            compensated = per_tensor.compensate(grad, "t")
            out = fused.compensate_fused(
                {"t": grad}, bucket, np.empty(8, dtype=np.float32)
            )
            assert np.array_equal(out.reshape(2, 4), compensated)
            compressed = compressor.compress(compensated, "t")
            per_tensor.update(compensated, "t", compressor, compressed)
            update_from_payload(fused, out, bucket, compressor, compressed)

    def test_update_from_payload_returns_what_psi_took(self):
        bucket = tensor_bucket("t", (8,))
        compressor = create("dgc", ratio=0.25, seed=0)
        grad = np.linspace(-1, 1, 8).astype(np.float32)
        compressed = compressor.compress(grad, "t")
        asked = []

        def scratch():
            asked.append(True)
            return np.empty(8, dtype=np.float32)

        decoded = update_from_payload(
            ResidualMemory(), grad, bucket, compressor, compressed, scratch
        )
        assert np.array_equal(
            decoded, compressor.decompress_fused(compressed)
        )
        assert asked == [True]
        for memory in (NoneMemory(), DgcMemory()):
            assert update_from_payload(
                memory, grad, bucket, compressor, compressed, scratch
            ) is None
        assert asked == [True]
