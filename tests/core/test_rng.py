"""Per-rank seed derivation (`repro.core.rng`)."""

import numpy as np
import pytest

from repro.core.rng import name_seed, spawn_worker_seeds


class TestSpawnWorkerSeeds:
    def test_deterministic_in_seed_and_count(self):
        a = spawn_worker_seeds(7, 4)
        b = spawn_worker_seeds(7, 4)
        for left, right in zip(a, b):
            rng_a = np.random.default_rng(left)
            rng_b = np.random.default_rng(right)
            np.testing.assert_array_equal(
                rng_a.standard_normal(8), rng_b.standard_normal(8)
            )

    def test_children_are_distinct(self):
        seeds = spawn_worker_seeds(0, 8)
        draws = {
            np.random.default_rng(s).standard_normal(4).tobytes()
            for s in seeds
        }
        assert len(draws) == 8

    def test_nearby_base_seeds_do_not_share_streams(self):
        # The failure mode of `default_rng(seed + rank)`: run A's rank 3
        # equals run B's rank 1 for base seeds 0 and 2.  Spawned children
        # hash the entropy pool, so no cross-run collision exists.
        run_a = {
            np.random.default_rng(s).standard_normal(4).tobytes()
            for s in spawn_worker_seeds(0, 4)
        }
        run_b = {
            np.random.default_rng(s).standard_normal(4).tobytes()
            for s in spawn_worker_seeds(2, 4)
        }
        assert not run_a & run_b

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            spawn_worker_seeds(0, 0)


class TestNameSeed:
    def test_deterministic_and_name_sensitive(self):
        a = np.random.default_rng(name_seed("conv1.weight"))
        b = np.random.default_rng(name_seed("conv1.weight"))
        c = np.random.default_rng(name_seed("conv2.weight"))
        first = a.standard_normal(8)
        np.testing.assert_array_equal(first, b.standard_normal(8))
        assert not np.array_equal(first, c.standard_normal(8))

    def test_stable_across_processes(self):
        # `hash(str)` is per-process randomized (PYTHONHASHSEED); the
        # sha256 derivation must not be.  Re-derive in a child process
        # with a different hash seed and compare entropy pools.
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        code = (
            "from repro.core.rng import name_seed;"
            "print(name_seed('layer.weight').entropy)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"},
        ).stdout.strip()
        assert out == str(name_seed("layer.weight").entropy)
