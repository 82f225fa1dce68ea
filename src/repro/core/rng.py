"""Per-rank random-stream derivation.

Every place the simulator fans one seed out to many workers must use
:func:`spawn_worker_seeds`, which wraps NumPy's
:class:`~numpy.random.SeedSequence` spawning.  The legacy ad-hoc
``default_rng(seed + rank)`` derivation (flagged by lint rule GR001)
produces *correlated* streams: Philox/PCG64 states seeded from
consecutive integers start statistically close, and two runs whose base
seeds differ by less than ``n_workers`` silently share worker streams
(run A's rank 3 == run B's rank 1 for seeds 0 and 2).  SeedSequence
hashes the entropy pool per child, so spawned streams are independent
and collision-free regardless of how base seeds are chosen.

The helper is also the hand-off point for the real-parallel backend:
the parent spawns one child sequence per rank and each worker process
rebuilds exactly the sequence for its own rank, so a parallel run draws
bitwise the same per-rank streams as the sequential simulator.
"""

from __future__ import annotations

import hashlib

import numpy as np


def spawn_worker_seeds(
    seed: int, n_workers: int
) -> list[np.random.SeedSequence]:
    """Derive ``n_workers`` independent child seed sequences from ``seed``.

    The result is deterministic in ``(seed, n_workers)`` and each child
    can be passed anywhere a seed is accepted —
    ``np.random.default_rng``, :meth:`Compressor.clone`,
    :meth:`Compressor.reseed` — because ``default_rng`` consumes
    :class:`~numpy.random.SeedSequence` directly.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return np.random.SeedSequence(seed).spawn(n_workers)


def name_seed(name: str) -> np.random.SeedSequence:
    """A process-independent seed sequence derived from a string.

    Low-rank compressors (PowerSGD, GradZip) need every worker to build
    the *same* deterministic start factor for a tensor name.  Python's
    ``hash(str)`` is randomized per process (PYTHONHASHSEED), so it
    silently diverges across the real-parallel backend's worker
    processes; a SHA-256 digest of the name is stable everywhere and
    feeds :class:`~numpy.random.SeedSequence` as an entropy pool.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    entropy = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.SeedSequence(entropy.tolist())
