"""The chaos campaign (`repro.faults.chaos`).

The kill schedule and the trial verdict are pure logic; one real
campaign (a clean run plus one SIGKILL trial, a few seconds) checks the
record ``repro chaos`` prints and writes.
"""

import re

import pytest

from repro.bench.result import read_result, write_result
from repro.comm.sanitizer import ArenaViolation, SanitizerReport
from repro.core.config import Cell
from repro.faults.chaos import kill_schedule, run_chaos, trial_failures


class TestKillSchedule:
    def test_deterministic_per_seed(self):
        one = kill_schedule(seed=7, trials=5, iterations=20, nproc=4)
        two = kill_schedule(seed=7, trials=5, iterations=20, nproc=4)
        assert one == two
        other = kill_schedule(seed=8, trials=5, iterations=20, nproc=4)
        assert one != other

    def test_counter_based_prefix_property(self):
        # Trial k's schedule must not depend on how many trials run:
        # a 3-trial campaign is a prefix of the 10-trial one.
        short = kill_schedule(seed=0, trials=3, iterations=20, nproc=4)
        long = kill_schedule(seed=0, trials=10, iterations=20, nproc=4)
        assert long[:3] == short

    def test_kills_land_strictly_mid_run(self):
        for kill, victim in kill_schedule(
            seed=3, trials=50, iterations=5, nproc=2
        ):
            assert 1 <= kill <= 3  # never iteration 0, never the last
            assert 0 <= victim <= 1

    def test_too_short_run_is_rejected(self):
        with pytest.raises(ValueError, match=">= 3 iterations"):
            kill_schedule(seed=0, trials=1, iterations=2, nproc=2)


class TestTrialVerdict:
    GOOD = dict(sanitizer=SanitizerReport(), recoveries=1,
                recovery_seconds=0.01, digest_match=True, loss_gap=0.0)

    def test_all_invariants_pass(self):
        assert trial_failures("restart", **self.GOOD) == []

    @pytest.mark.parametrize("broken, reason", [
        (dict(error="ParallelCrashError: boom"), "did not complete"),
        (dict(recoveries=0), "did not recover"),
        (dict(recovery_seconds=0.0), "outage not priced"),
        (dict(leaked=["/dev/shm/psm_dead"]), "leaked 1 shared-memory"),
        (dict(digest_match=False), "bitwise"),
        (dict(sanitizer=SanitizerReport(violations=[ArenaViolation(
            "read-unpublished", 1, 4, "no publication")])),
         r"sanitizer \[read-unpublished\] rank 1 seq 4"),
    ], ids=["incomplete", "unrecovered", "unpriced", "leak", "digest",
            "violation"])
    def test_each_invariant_fails_the_trial(self, broken, reason):
        (failure,) = trial_failures("restart", **{**self.GOOD, **broken})
        assert re.search(reason, failure)

    def test_degrade_trials_have_no_digest_verdict(self):
        # degrade: the loss-gap bound instead
        degraded = {**self.GOOD, "digest_match": False, "loss_gap": 0.1}
        assert trial_failures("degrade", **degraded) == []
        (failure,) = trial_failures("degrade", **{**degraded,
                                                  "loss_gap": 0.2})
        assert "degraded final loss drifted 0.2000" in failure


@pytest.fixture(scope="module")
def campaign():
    """One real campaign: a clean run and one SIGKILL trial."""
    return run_chaos(Cell("ncf-movielens", "topk", workers=2), trials=1)


class TestCampaign:
    def test_one_trial_passes(self, campaign):
        assert campaign.suite == "chaos"
        assert campaign.failures == []
        assert campaign.value("trials_passed") == 1
        assert "1/1 trials passed" in campaign.text
        assert campaign.params["schedule"] == [
            list(pair) for pair in kill_schedule(
                0, 1, int(campaign.value("clean/iterations")), 2)
        ]

    def test_the_outage_is_priced(self, campaign):
        assert campaign.value("trial0/recovery_seconds") > 0
        assert campaign.value("trial0/loss_gap") == 0.0

    def test_no_run_leaks_a_segment(self, campaign):
        assert campaign.value("clean/leaked_segments") == 0
        assert campaign.value("trial0/leaked_segments") == 0

    def test_the_sanitizer_replays_every_run_clean(self, campaign):
        for run in ("clean", "trial0"):
            events = campaign.value(f"{run}/sanitizer_events")
            assert events > 0
            assert events == sum(campaign.value(
                f"{run}/sanitizer_events/rank{rank}") for rank in (0, 1))
            assert campaign.value(f"{run}/sanitizer_violations") == 0
        assert campaign.value("sanitizer_events") == sum(
            campaign.value(f"{run}/sanitizer_events")
            for run in ("clean", "trial0"))
        assert campaign.value("sanitizer_violations") == 0

    def test_the_record_round_trips(self, campaign, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        write_result(path, campaign)
        assert read_result(path).to_dict() == campaign.to_dict()

    def test_the_record_carries_the_clean_cell(self, campaign, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        write_result(path, campaign)
        params = read_result(path).params
        assert Cell.from_dict(params["cell"]) == Cell(
            "ncf-movielens", "topk", workers=2, epochs=1, sanitize="arena",
            backend="parallel",
        )
        assert (params["trials"], params["recovery"]) == (1, "restart")


def test_a_campaign_needs_a_trial():
    with pytest.raises(ValueError, match=">= 1 trial"):
        run_chaos(Cell("ncf-movielens"), trials=0)
