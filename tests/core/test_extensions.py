"""Behaviour of the extension compressors (surveyed but not released)."""

import numpy as np
import pytest

from repro.core import FusionPlan, create
from repro.core.compressors.variance import (
    bucket_selection_probabilities,
    selection_probabilities,
)


def gradient(shape, seed=0, scale=1e-2):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal(shape)).astype(np.float32)


def roundtrip(name, tensor, seed=0, **params):
    compressor = create(name, seed=seed, **params)
    return compressor.decompress(compressor.compress(tensor, "t"))


class TestLPCSVRG:
    def test_output_on_uniform_grid(self):
        tensor = gradient((500,), seed=1)
        compressor = create("lpcsvrg", bit_width=4, seed=0)
        compressed = compressor.compress(tensor, "t")
        delta = float(compressed.payload[1][0])
        out = compressor.decompress(compressed)
        codes = out / delta
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-4)

    def test_unbiased_within_clip_range(self):
        tensor = gradient((64,), seed=2)
        total = np.zeros(64, dtype=np.float64)
        for trial in range(400):
            total += roundtrip("lpcsvrg", tensor, seed=trial, clip_std=10.0)
        mean = total / 400
        error = np.linalg.norm(mean - tensor) / np.linalg.norm(tensor)
        assert error < 0.15

    def test_wire_size_scales_with_bit_width(self):
        tensor = gradient((800,))
        small = create("lpcsvrg", bit_width=2).compress(tensor, "t").nbytes
        large = create("lpcsvrg", bit_width=8).compress(tensor, "t").nbytes
        assert large > 3 * small

    def test_clipping_bounds_output(self):
        tensor = np.zeros(1000, dtype=np.float32)
        tensor[0] = 100.0
        out = roundtrip("lpcsvrg", tensor, clip_std=2.5)
        assert np.abs(out).max() < 100.0

    def test_validation(self):
        with pytest.raises(ValueError, match="bit_width"):
            create("lpcsvrg", bit_width=1)
        with pytest.raises(ValueError, match="clip_std"):
            create("lpcsvrg", clip_std=0.0)


class TestVarianceSparsifier:
    def test_probabilities_meet_budget(self):
        magnitudes = np.abs(np.random.default_rng(0).standard_normal(1000))
        probabilities = selection_probabilities(magnitudes, budget=50)
        assert probabilities.sum() == pytest.approx(50, rel=0.05)
        assert np.all((0 <= probabilities) & (probabilities <= 1))

    def test_large_magnitudes_kept_with_certainty(self):
        magnitudes = np.ones(100)
        magnitudes[0] = 1e6
        probabilities = selection_probabilities(magnitudes, budget=5)
        assert probabilities[0] == pytest.approx(1.0)

    def test_zero_gradient_uniform_probabilities(self):
        probabilities = selection_probabilities(np.zeros(10), budget=5)
        np.testing.assert_allclose(probabilities, 0.5)

    def test_bucket_water_filling_is_the_per_tensor_one_bitwise(self):
        """Tensors that saturate nothing, a few coordinates over several
        rounds, everything, and one with no mass, side by side."""
        rng = np.random.default_rng(6)
        heavy = np.abs(rng.standard_cauchy(400)) ** 2
        tensors = {
            "gauss": np.abs(rng.standard_normal(300)),
            "heavy": heavy,
            "spike": np.r_[np.full(50, 1e-6), 1e3, 5e2, np.full(9, 1.0)],
            "dead": np.zeros(17),
            "few": np.abs(rng.standard_normal(3)),
            "one": np.array([0.7]),
        }
        budgets = np.array([3, 120, 20, 5, 3, 1])
        plan = FusionPlan(
            [(name, value.shape) for name, value in tensors.items()], 1 << 20
        )
        (bucket,) = plan.buckets
        flat = np.concatenate(list(tensors.values())).astype(np.float32)
        got = bucket_selection_probabilities(flat, bucket, budgets)
        assert got.dtype == np.float64
        saturated = []
        for seg, budget in zip(bucket.segments, budgets):
            run = flat[seg.offset:seg.end]
            expected = selection_probabilities(run, int(budget))
            assert got[seg.offset:seg.end].tobytes() == expected.tobytes(), (
                seg.name
            )
            saturated.append(np.count_nonzero(expected >= 1.0))
        assert saturated[0] == 0 and saturated[1] > 10 and saturated[2] >= 2

    def test_unbiasedness(self):
        tensor = gradient((64,), seed=3)
        total = np.zeros(64, dtype=np.float64)
        for trial in range(600):
            total += roundtrip("variance", tensor, seed=trial, ratio=0.3)
        mean = total / 600
        error = np.linalg.norm(mean - tensor) / np.linalg.norm(tensor)
        assert error < 0.15

    def test_expected_sparsity_near_ratio(self):
        tensor = gradient((5000,), seed=4)
        counts = [
            np.count_nonzero(roundtrip("variance", tensor, seed=t, ratio=0.02))
            for t in range(20)
        ]
        assert 50 <= np.mean(counts) <= 200  # target 100


class TestSketchedSGD:
    def test_recovers_heavy_coordinates(self):
        tensor = np.zeros(2000, dtype=np.float32)
        heavy = [13, 500, 1999]
        tensor[heavy] = [5.0, -4.0, 3.0]
        tensor += 0.01 * np.random.default_rng(0).standard_normal(2000).astype(
            np.float32
        )
        out = roundtrip("sketchsgd", tensor, ratio=0.002)  # k = 4
        recovered = set(np.flatnonzero(np.abs(out) > 1.0).tolist())
        assert set(heavy) <= recovered

    def test_wire_size_independent_of_content(self):
        a = create("sketchsgd", ratio=0.01).compress(
            gradient((4000,), seed=1), "t"
        )
        b = create("sketchsgd", ratio=0.01).compress(
            gradient((4000,), seed=2), "t"
        )
        assert a.nbytes == b.nbytes

    def test_sketches_merge_across_workers(self):
        # Decode(compress(a)) + decode(compress(b)) approximates
        # decode(compress(a + b)) by sketch linearity.
        a = np.zeros(1000, dtype=np.float32)
        b = np.zeros(1000, dtype=np.float32)
        a[7] = 10.0
        b[7] = 6.0
        worker_a = create("sketchsgd", ratio=0.005, seed=1)
        worker_b = create("sketchsgd", ratio=0.005, seed=2)
        out = worker_a.decompress(worker_a.compress(a, "t")) + (
            worker_b.decompress(worker_b.compress(b, "t"))
        )
        assert out[7] == pytest.approx(16.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="depth"):
            create("sketchsgd", depth=0)


class TestQsparse:
    def test_output_sparse_and_quantized(self):
        tensor = gradient((2000,), seed=5)
        out = roundtrip("qsparse", tensor, ratio=0.01, levels=8)
        assert np.count_nonzero(out) <= 21
        nonzero = out[out != 0]
        norm = np.linalg.norm(
            np.sort(np.abs(tensor))[-20:]
        )
        # Every value sits on a level of the quantization grid.
        codes = np.abs(nonzero) * 8 / norm
        np.testing.assert_allclose(codes, np.round(codes), atol=0.05)

    def test_randomk_selection_mode(self):
        tensor = gradient((1000,), seed=6)
        out = roundtrip("qsparse", tensor, ratio=0.05, selection="randomk")
        assert np.count_nonzero(out) <= 51

    def test_validation(self):
        with pytest.raises(ValueError, match="selection"):
            create("qsparse", selection="middle-k")


class TestThreeLC:
    def test_output_is_ternary_times_scale(self):
        tensor = gradient((3000,), seed=7)
        compressor = create("threelc")
        compressed = compressor.compress(tensor, "t")
        scale = float(compressed.payload[2][0])
        out = compressor.decompress(compressed)
        levels = np.unique(np.round(out / scale, 5))
        assert set(levels).issubset({-1.0, 0.0, 1.0})

    def test_sparsity_multiplier_reduces_zeros(self):
        tensor = gradient((5000,), seed=8)
        sparse = roundtrip("threelc", tensor, sparsity_multiplier=1.0)
        dense = roundtrip("threelc", tensor, sparsity_multiplier=1.99)
        assert np.count_nonzero(dense) > np.count_nonzero(sparse)

    def test_lossless_stage_shrinks_sparse_streams(self):
        # Mostly-zero gradient: RLE makes the wire far below 2 bits/element.
        tensor = np.zeros(8000, dtype=np.float32)
        tensor[::100] = 1.0
        compressed = create("threelc").compress(tensor, "t")
        assert compressed.nbytes < 8000 / 8

    def test_zero_tensor(self):
        out = roundtrip("threelc", np.zeros(100, dtype=np.float32))
        assert np.array_equal(out, np.zeros(100))

    def test_validation(self):
        with pytest.raises(ValueError, match="sparsity_multiplier"):
            create("threelc", sparsity_multiplier=2.0)


class TestAtomo:
    def test_unbiased_on_matrices(self):
        tensor = gradient((16, 12), seed=9, scale=1.0)
        total = np.zeros_like(tensor, dtype=np.float64)
        n_trials = 500
        for trial in range(n_trials):
            total += roundtrip(
                "atomo", tensor, seed=trial, budget=3, min_compress_size=16
            )
        mean = total / n_trials
        error = np.linalg.norm(mean - tensor) / np.linalg.norm(tensor)
        assert error < 0.2

    def test_small_tensors_uncompressed(self):
        tensor = gradient((10,), seed=10)
        out = roundtrip("atomo", tensor, min_compress_size=1024)
        np.testing.assert_array_equal(out, tensor)

    def test_budget_controls_rank(self):
        tensor = gradient((64, 64), seed=11)
        out = roundtrip("atomo", tensor, budget=2, min_compress_size=16)
        assert np.linalg.matrix_rank(out, tol=1e-5) <= 10


class TestGradiVeQ:
    def test_exact_on_low_rank_input(self):
        u = np.random.default_rng(12).standard_normal((32, 2))
        v = np.random.default_rng(13).standard_normal((2, 24))
        matrix = (u @ v).astype(np.float32)
        out = roundtrip("gradiveq", matrix, rank=2, min_compress_size=16)
        np.testing.assert_allclose(out, matrix, atol=1e-3)

    def test_truncation_is_best_rank_r(self):
        tensor = gradient((32, 32), seed=14, scale=1.0)
        out = roundtrip("gradiveq", tensor, rank=4, min_compress_size=16)
        # Error equals the tail singular values' energy.
        sigma = np.linalg.svd(tensor, compute_uv=False)
        expected = np.sqrt((sigma[4:] ** 2).sum())
        actual = np.linalg.norm(out - tensor)
        assert actual == pytest.approx(expected, rel=1e-3)

    def test_wire_footprint_is_m_plus_l_times_r(self):
        compressed = create("gradiveq", rank=3, min_compress_size=16).compress(
            gradient((40, 30)), "t"
        )
        assert compressed.nbytes == (40 + 30) * 3 * 4


class TestGradZip:
    def test_reconstruction_is_low_rank(self):
        tensor = gradient((48, 32), seed=15, scale=1.0)
        out = roundtrip("gradzip", tensor, rank=2, min_compress_size=16)
        assert np.linalg.matrix_rank(out, tol=1e-4) <= 2

    def test_als_approaches_truncated_svd_quality(self):
        tensor = gradient((32, 32), seed=16, scale=1.0)
        out = roundtrip(
            "gradzip", tensor, rank=4, als_iterations=8, min_compress_size=16
        )
        sigma = np.linalg.svd(tensor, compute_uv=False)
        optimal = np.sqrt((sigma[4:] ** 2).sum())
        assert np.linalg.norm(out - tensor) < 1.2 * optimal

    def test_warm_start_state_is_per_tensor(self):
        compressor = create("gradzip", rank=1, min_compress_size=16)
        compressor.compress(gradient((16, 16), seed=1), "a")
        compressor.compress(gradient((20, 20), seed=2), "b")
        assert set(compressor._r_memory) == {"a", "b"}

    def test_validation(self):
        with pytest.raises(ValueError, match="als_iterations"):
            create("gradzip", als_iterations=0)


class TestExtensionsTrainEndToEnd:
    # Sparsifying methods get a ratio that keeps k meaningful on a
    # 64-dimensional toy problem (their 1% default targets DNNs with
    # millions of coordinates).
    @pytest.mark.parametrize(
        "name,params",
        [
            ("lpcsvrg", {}),
            ("variance", {"ratio": 0.25}),
            ("sketchsgd", {"ratio": 0.1}),
            ("qsparse", {"ratio": 0.1}),
            ("threelc", {}),
            ("atomo", {}),
            ("gradiveq", {}),
            ("gradzip", {}),
        ],
    )
    def test_quadratic_convergence(self, name, params):
        from repro.core import DistributedTrainer

        rng = np.random.default_rng(0)
        target = rng.standard_normal(64).astype(np.float32)

        class Quadratic:
            def __init__(self):
                self.x = np.zeros(64, dtype=np.float32)

            def forward_backward(self, inputs, targets):
                grad = 2 * (self.x - target) + np.asarray(
                    inputs, dtype=np.float32
                )
                return float(np.sum((self.x - target) ** 2)), {"x": grad}

            def apply_update(self, grads):
                self.x -= 0.05 * grads["x"]

        task = Quadratic()
        trainer = DistributedTrainer(task, create(name, **params), n_workers=2)
        start = float(np.linalg.norm(task.x - target))
        for step in range(200):
            noise_rng = np.random.default_rng(step)
            batches = [
                (0.05 * noise_rng.standard_normal(64).astype(np.float32),
                 None)
                for _ in range(2)
            ]
            trainer.step(batches)
        assert float(np.linalg.norm(task.x - target)) < 0.5 * start, name
