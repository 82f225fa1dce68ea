"""Property: crash + rejoin under restart recovery is bitwise lossless.

The ISSUE's acceptance property — for deterministic compressors, a run
interrupted by a crash and recovered from an every-iteration EF-aware
checkpoint must reproduce the uninterrupted run's model state *bitwise*,
residuals included.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import DistributedTrainer, Resilience, create

from tests.core.test_trainer import QuadraticTask, noise_batches

N_WORKERS = 2
DIM = 16
STEPS = 8


def _train(compressor, seed, faults=None):
    task = QuadraticTask(dim=DIM, lr=0.05, seed=seed)
    trainer = DistributedTrainer(
        task,
        create(compressor, seed=seed),
        n_workers=N_WORKERS,
        memory="residual",
        seed=seed,
        resilience=Resilience(
            faults=faults,
            recovery="restart" if faults else "degrade",
            checkpoint_every=1 if faults else 0,
        ),
    )
    losses = [trainer.step(noise_batches(N_WORKERS, DIM, seed=s))
              for s in range(STEPS)]
    return task, trainer, losses


@settings(max_examples=25, deadline=None)
@given(
    compressor=st.sampled_from(["topk", "signsgd", "none"]),
    crash_at=st.integers(min_value=1, max_value=STEPS - 2),
    gap=st.integers(min_value=1, max_value=3),
    rank=st.integers(min_value=0, max_value=N_WORKERS - 1),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_crash_rejoin_restart_is_bitwise_identical(
    compressor, crash_at, gap, rank, seed
):
    rejoin = min(crash_at + gap, STEPS)
    spec = f"crash@{crash_at}:rank={rank},rejoin={rejoin}"
    clean_task, clean_trainer, clean_losses = _train(compressor, seed)
    task, trainer, losses = _train(compressor, seed, faults=spec)
    assert losses == clean_losses
    np.testing.assert_array_equal(task.x, clean_task.x)
    for recovered, reference in zip(trainer.memories,
                                    clean_trainer.memories):
        rec, ref = recovered._residuals, reference._residuals
        assert rec.keys() == ref.keys()
        for name in ref:
            np.testing.assert_array_equal(rec[name], ref[name])
    # The recovery was not free: the outage is priced into the report.
    assert trainer.report.sim_recovery_seconds > 0
