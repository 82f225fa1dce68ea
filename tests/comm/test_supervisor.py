"""The run supervisor's decisions, as tables over synthetic observations.

``run_parallel`` supervises a cohort from one loop whose choices are
pure functions: :func:`_convict` (which ranks one sweep convicts, and
why), :func:`_decide_recovery` (fail-stop, or which ranks died and
which cohort respawns) and :func:`_consume_clauses` (which fault
clauses the victims used up).  No process is started and nothing
sleeps: the clock is an argument.  The real-process runs of the same
decisions are in ``test_parallel_recovery.py``.
"""

import pytest

from repro.comm.parallel import (
    MAX_RECOVERIES,
    _consume_clauses,
    _convict,
    _decide_recovery,
    _RoundOutcome,
)
from repro.faults.plan import FaultPlan

SECOND = 1_000_000_000
START = 100 * SECOND  # the cohort's start on the parent's clock
NOW = START + 10 * SECOND
RUNNING = (False, None)  # not done, no exit code yet


def beat(seconds_ago: float) -> int:
    return NOW - int(seconds_ago * SECOND)


class TestConvict:
    @pytest.mark.parametrize("observed, verdicts", [
        pytest.param(
            {0: (*RUNNING, beat(0.1)), 1: (False, -9, beat(3.0))},
            {1: "exited with code -9 without reporting a result"},
            id="killed"),
        pytest.param(
            {0: (False, 1, beat(0.1))},
            {0: "exited with code 1 without reporting a result"},
            id="non-zero exit"),
        pytest.param(
            {0: (*RUNNING, beat(0.1)), 1: (*RUNNING, beat(5.0))},
            {1: "heartbeat silent for 5.0s (stall timeout 4.0s)"},
            id="silent heartbeat"),
        pytest.param(
            {0: (*RUNNING, 0)},
            {0: "heartbeat silent for 10.0s (stall timeout 4.0s)"},
            id="never beat: timed from the cohort's start"),
        pytest.param(
            {0: (False, -9, 0), 1: (*RUNNING, beat(4.5))},
            {0: "exited with code -9 without reporting a result",
             1: "heartbeat silent for 4.5s (stall timeout 4.0s)"},
            id="every victim of one sweep"),
        pytest.param(
            {0: (*RUNNING, beat(3.9)), 1: (False, 0, beat(8.0))},
            {},
            id="recent beat, clean exit"),
        pytest.param(
            {0: (True, None, beat(8.0)), 1: (True, 1, beat(8.0))},
            {},
            id="done ranks are skipped"),
    ])
    def test_one_sweep(self, observed, verdicts):
        assert _convict(observed, NOW, START, 4.0, {}) == verdicts

    def test_a_rank_that_never_beat_is_still_starting(self):
        observed = {0: (*RUNNING, 0)}
        assert _convict(observed, START + 3 * SECOND, START, 4.0, {}) == {}

    def test_only_the_first_sweep_convicts(self):
        # After the abort a survivor exits non-zero on its typed error:
        # collateral, not a verdict that would shrink the survivor set.
        observed = {0: (False, 1, beat(0.1)), 1: (False, -9, beat(5.0))}
        first = {1: "exited with code -9 without reporting a result"}
        assert _convict(observed, NOW, START, 4.0, first) == {}


def outcome(victims, reported=(), errors=None) -> _RoundOutcome:
    """A failed round: every victim's error, plus ``errors``."""
    return _RoundOutcome(
        results={},
        errors=errors or {
            rank: f"worker rank {rank} {reason}"
            for rank, reason in victims.items()
        },
        victims=victims,
        progress={},
        reported=frozenset(reported),
        startup_seconds=None,
        teardown_seconds=0.0,
    )


KILLED = {1: "exited with code -9 without reporting a result"}


class TestDecideRecovery:
    @pytest.mark.parametrize("round_, active, recovery, enabled, done, "
                             "decision", [
        pytest.param(outcome(KILLED), [0, 1], "degrade", True, 0,
                     ([1], [0]), id="degrade: the survivors"),
        pytest.param(outcome(KILLED), [0, 1], "restart", True, 0,
                     ([1], [0, 1]), id="restart: the full cohort"),
        pytest.param(outcome({2: "heartbeat silent for 5.0s"}), [0, 2],
                     "degrade", True, 1, ([2], [0]),
                     id="degrade again from a degraded cohort"),
        pytest.param(outcome(KILLED), [0, 1], "restart", True,
                     MAX_RECOVERIES - 1, ([1], [0, 1]),
                     id="the last recovery allowed"),
    ])
    def test_recovers(self, round_, active, recovery, enabled, done,
                      decision):
        assert _decide_recovery(round_, active, 2, recovery, enabled,
                                done) == decision

    @pytest.mark.parametrize("round_, enabled, done", [
        pytest.param(
            outcome({}, errors={0: "ValueError: bad", 1: "ValueError: bad"},
                    reported=(0, 1)),
            True, 0, id="reported errors"),
        pytest.param(
            outcome({0: "exited with code 1 without reporting a result",
                     1: "exited with code 1 without reporting a result"},
                    reported=(0, 1)),
            True, 0, id="reported errors, then exit 1"),
        pytest.param(outcome(KILLED), False, 0, id="recovery off"),
        pytest.param(
            outcome({0: "exited with code -9 without reporting a result",
                     1: "exited with code -9 without reporting a result"}),
            True, 0, id="no survivors"),
        pytest.param(outcome(KILLED), True, MAX_RECOVERIES,
                     id="MAX_RECOVERIES reached"),
    ])
    def test_fails_stop(self, round_, enabled, done):
        message = _decide_recovery(round_, [0, 1], 2, "restart", enabled,
                                   done)
        assert message == (
            f"{len(round_.errors)} of 2 workers failed:\n" + "\n".join(
                f"rank {rank}: {error}"
                for rank, error in sorted(round_.errors.items())
            )
        )

    def test_the_message_counts_the_whole_run(self):
        # A degraded cohort of one still names the run's world size.
        message = _decide_recovery(outcome(KILLED), [1], 4, "degrade",
                                   True, 1)
        assert message == (
            "1 of 4 workers failed:\nrank 1: worker rank 1 exited with "
            "code -9 without reporting a result"
        )


PLAN = FaultPlan.parse(
    "crash@3:rank=1;stall@5:rank=0;straggler@1:rank=*,slow=20;"
    "crash@2:rank=0"
)


class TestConsumeClauses:
    @pytest.mark.parametrize("dead, progress, already, consumed", [
        pytest.param([1], {0: 3, 1: 3}, set(), {0},
                     id="the victim's crash"),
        pytest.param([1], {0: 3, 1: 2}, set(), set(),
                     id="the victim had not reached the crash"),
        pytest.param([0], {0: 5, 1: 5}, set(), {1, 3},
                     id="every clause the victim started"),
        pytest.param([0], {0: 4, 1: 4}, set(), {3},
                     id="before the stall, after the crash"),
        pytest.param([0, 1], {0: 9, 1: 9}, set(), {0, 1, 3},
                     id="the untargeted straggler is never consumed"),
        pytest.param([1], {0: 9}, set(), set(),
                     id="no progress word: nothing started"),
        pytest.param([1], {1: 1}, {1}, {1},
                     id="earlier incarnations' clauses stay consumed"),
    ])
    def test_retires(self, dead, progress, already, consumed):
        _consume_clauses(PLAN, already, dead, progress)
        assert already == consumed
