"""Crash recovery on the real-parallel backend.

These are the survivability acceptance tests: real rank processes,
real SIGKILLs, a real watchdog.  The property test sweeps the kill
point over **every** iteration boundary of the run — restart recovery
must land on the same bits as the uninterrupted run no matter where
the crash falls — and every faulted run must leave ``/dev/shm`` exactly
as it found it.

Process tests are expensive (seconds each); everything cheap about the
machinery lives in ``test_shm.py`` (liveness words),
``test_worker_checkpoint.py`` (snapshot round trip) and
``test_real_faults.py`` (fault actions).
"""

import glob
import multiprocessing

import pytest

from repro.comm.parallel import (
    JOIN_GRACE,
    RANK_CONTEXT,
    ParallelCrashError,
    ParallelRunConfig,
    run_parallel,
)
from repro.core.config import Cell, Resilience

BENCH = "ncf-movielens"


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _config(faults=None, recovery="degrade", checkpoint_every=0,
            straggler_policy="wait", stall_timeout=30.0,
            **cell) -> ParallelRunConfig:
    return ParallelRunConfig(
        Cell(**{"benchmark": BENCH, "compressor": "topk", **cell},
             workers=2, epochs=1, backend="parallel",
             resilience=Resilience(
                 faults, recovery, checkpoint_every, straggler_policy
             )),
        arena_bytes=8 * 1024 * 1024, stall_timeout=stall_timeout,
    )


@pytest.fixture(scope="module")
def clean_run():
    """The uninterrupted reference run every recovery is judged against."""
    return run_parallel(_config())


class TestRestartRecovery:
    def test_kill_at_every_boundary_resumes_bitwise(self, clean_run):
        """Property: SIGKILL rank 1 at iteration k, for every k.

        The respawned cohort restores the latest common checkpoint and
        must reproduce the clean run's final model state bitwise and
        its loss trajectory exactly, with the outage priced into
        ``sim_recovery_seconds``, the teardown and the respawn timed,
        and zero leaked shm segments or ranks.
        """
        iterations = clean_run.report.iterations
        clean_digest = set(clean_run.digests.values())
        assert iterations >= 3
        failures = []
        for k in range(1, iterations):
            before = _shm_segments()
            result = run_parallel(_config(
                faults=f"crash@{k}:rank=1",
                recovery="restart",
                checkpoint_every=1,
            ))
            leaked = _shm_segments() - before
            if set(result.digests.values()) != clean_digest:
                failures.append(f"k={k}: model state diverged")
            if result.report.losses != clean_run.report.losses:
                failures.append(f"k={k}: loss trajectory diverged")
            if len(result.recoveries) != 1:
                failures.append(
                    f"k={k}: {len(result.recoveries)} recoveries, wanted 1"
                )
            elif result.recoveries[0]["dead_ranks"] != [1]:
                failures.append(
                    f"k={k}: wrong victims "
                    f"{result.recoveries[0]['dead_ranks']}"
                )
            else:
                # Timed on the parent's clock; no threshold, just present.
                recovery = result.recoveries[0]
                if not recovery["teardown_seconds"] > 0:
                    failures.append(f"k={k}: teardown was not timed")
                if not (recovery["respawn_seconds"] or 0) > 0:
                    failures.append(f"k={k}: respawn was not timed")
            if not result.report.sim_recovery_seconds > 0:
                failures.append(f"k={k}: outage was not priced")
            if leaked:
                failures.append(f"k={k}: leaked {sorted(leaked)}")
            if multiprocessing.active_children():
                failures.append(f"k={k}: left a rank running")
        assert not failures, "\n".join(failures)

    def test_stall_is_convicted_by_heartbeat_and_recovered(self, clean_run):
        """A wedged (alive but silent) rank is watchdog-convicted."""
        result = run_parallel(_config(
            faults="stall@2:rank=1",
            recovery="restart",
            checkpoint_every=1,
            stall_timeout=4.0,
        ))
        assert len(result.recoveries) == 1
        (recovery,) = result.recoveries
        assert recovery["dead_ranks"] == [1]
        assert "heartbeat silent" in recovery["reasons"][1]
        # The stalled rank sleeps forever: it is signalled at once, not
        # joined for the grace a survivor gets.
        assert recovery["teardown_seconds"] < JOIN_GRACE
        assert not multiprocessing.active_children()
        # The consumed stall clause must not re-fire: the respawned
        # cohort finishes the clean trajectory bitwise.
        assert set(result.digests.values()) == set(
            clean_run.digests.values()
        )


class TestDegradeRecovery:
    def test_survivors_form_a_smaller_cohort(self):
        result = run_parallel(_config(
            faults="crash@2:rank=1",
            recovery="degrade",
            checkpoint_every=1,
        ))
        assert len(result.recoveries) == 1
        (recovery,) = result.recoveries
        assert recovery["dead_ranks"] == [1]
        assert recovery["cohort"] == [0]
        assert result.report.sim_recovery_seconds > 0
        assert len(result.digests) == 1  # only the survivor reports

    def test_straggler_drop_policy_evicts(self):
        # slow=20 sleeps ~4.8s without heartbeating; the 1.5s straggler
        # deadline (drop policy) must evict it long before that.
        result = run_parallel(_config(
            faults="straggler@1:rank=1,slow=20",
            straggler_policy="drop",
            stall_timeout=1.5,
            recovery="degrade",
            checkpoint_every=1,
        ))
        assert len(result.recoveries) == 1
        assert result.recoveries[0]["cohort"] == [0]
        assert result.recoveries[0]["teardown_seconds"] < JOIN_GRACE
        assert not multiprocessing.active_children()


class TestFailStopTeardown:
    def test_deterministic_worker_error_stays_fail_stop(self):
        """Queue-reported Python errors must not trigger recovery."""
        before = _shm_segments()
        # The cell checks the names of topk's parameters, not their
        # values: a ratio the constructor refuses fails in each rank.
        with pytest.raises(ParallelCrashError, match="2 of 2"):
            run_parallel(_config(
                compressor_params={"ratio": 2.0},
                recovery="restart",
                checkpoint_every=1,
            ))
        assert _shm_segments() - before == set()

    def test_unrecoverable_kill_leaks_nothing(self):
        """Recovery off (checkpoint_every=0): the kill is fatal but clean."""
        before = _shm_segments()
        with pytest.raises(ParallelCrashError, match="rank 1"):
            run_parallel(_config(faults="crash@2:rank=1"))
        assert _shm_segments() - before == set()

    def test_failed_spawn_raises_its_error_and_leaks_nothing(
            self, monkeypatch):
        """A rank that cannot be spawned fails the run with the spawn's
        own error; the started rank is reaped and the arena unlinked."""
        process = RANK_CONTEXT.Process
        real_start = process.start
        started = []

        def start(worker):
            started.append(worker.name)
            if len(started) == 2:
                raise OSError("cannot spawn the second rank")
            real_start(worker)

        monkeypatch.setattr(process, "start", start)
        before = _shm_segments()
        children = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(OSError, match="cannot spawn the second rank"):
            run_parallel(_config())
        assert started == ["repro-rank0", "repro-rank1"]
        assert _shm_segments() - before == set()
        assert {child.pid for child in multiprocessing.active_children()
                } <= children

    @pytest.mark.parametrize("names, message", [
        (dict(benchmark="nope"), "unknown benchmark 'nope'"),
        (dict(compressor="nope"), "unknown compressor 'nope'"),
    ])
    def test_unknown_names_fail_before_any_spawn(
            self, names, message, monkeypatch):
        """The cell checks both names before a rank is spawned."""
        process = RANK_CONTEXT.Process
        started = []

        def start(worker):
            started.append(worker.name)
            raise OSError("spawned a rank")

        monkeypatch.setattr(process, "start", start)
        with pytest.raises(ValueError, match=message):
            run_parallel(_config(**names))
        assert started == []
