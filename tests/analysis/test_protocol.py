"""The exhaustive check of the real 2-rank arena (``repro protocol-check``)."""

import glob
import threading
from dataclasses import replace

import pytest

import repro.analysis.protocol as protocol
from repro.analysis.protocol import check, run_protocol_check, scenarios
from repro.comm.parallel import ParallelWorkerCommunicator
from repro.comm.shm import SharedArena

CLEAN = [
    "clean-wraparound", "die-anywhere", "degraded-cohort",
    "split-phase-ring", "split-phase-room",
]
CONTROLS = {
    "broken-publish-first": {"stale-meta", "torn-read"},
    "no-progress-ring": {"deadlock"},
    "no-progress-room": {"deadlock"},
}


@pytest.fixture(scope="module")
def summary():
    return run_protocol_check(seqs=3)


class TestSuite:
    def test_suite_is_green(self, summary):
        assert summary["ok"], summary

    def test_suite_covers_every_scenario(self, summary):
        assert set(summary["scenarios"]) == {*CLEAN, *CONTROLS}

    @pytest.mark.parametrize("name", [*CLEAN, *CONTROLS])
    def test_every_scenario_reports_its_search(self, summary, name):
        scenario = summary["scenarios"][name]
        assert 0 < scenario["states"] < protocol.MAX_STATES
        assert scenario["executions"] >= 1
        assert scenario["terminals"] <= scenario["states"]

    @pytest.mark.parametrize("name", CLEAN)
    def test_clean_scenarios_have_no_violation(self, summary, name):
        # Sanitizer replays included: they report into the same list.
        scenario = summary["scenarios"][name]
        assert scenario["ok"] and scenario["violations"] == []
        assert scenario["terminals"] >= 1

    def test_die_anywhere_ends_in_many_ways(self, summary):
        # Done, or rank 0's typed abort, for each place rank 1 died.
        assert summary["scenarios"]["die-anywhere"]["terminals"] > 1


class TestControls:
    """The mutated real code must be caught, with a replayable witness."""

    @pytest.mark.parametrize("name", list(CONTROLS))
    def test_control_is_caught(self, summary, name):
        control = summary["scenarios"][name]
        assert control["ok"]  # ok == the bug WAS caught
        assert control["expectation"] == "must be caught"
        kinds = {v["kind"] for v in control["violations"]}
        assert kinds & CONTROLS[name]
        for violation in control["violations"]:
            assert violation["rank"] in (0, 1)
            assert 0 <= violation["seq"] < 3
            assert violation["schedule"]
            assert set(violation["schedule"]) <= {"r0", "r1"}

    def test_publish_first_is_also_a_sanitizer_violation(self, summary):
        violations = summary["scenarios"]["broken-publish-first"][
            "violations"
        ]
        assert "publish-before-write" in {v["kind"] for v in violations}

    @pytest.mark.parametrize("name", ["no-progress-ring", "no-progress-room"])
    def test_without_progress_the_window_deadlocks(self, summary, name):
        control = summary["scenarios"][name]
        assert {v["kind"] for v in control["violations"]} == {"deadlock"}
        assert control["terminals"] == 0

    def test_mutations_do_not_outlive_the_check(self):
        post = SharedArena.post
        progress = ParallelWorkerCommunicator.progress
        for name in CONTROLS:
            check(scenarios(1)[name])
        assert SharedArena.post is post
        assert ParallelWorkerCommunicator.progress is progress


class TestSplitPhase:
    """A window of posts, then the waits: the engine's two obligations."""

    @pytest.mark.parametrize("name", ["split-phase-ring", "split-phase-room"])
    @pytest.mark.parametrize("order", [(2, 0, 1), (0, 1, 2), (1, 2, 0)])
    def test_any_finish_order_completes_without_stale_reads(
        self, name, order
    ):
        result = check(replace(scenarios(3)[name], order=order))
        assert not result.violations, result.violations
        assert result.terminals > 0

    def test_a_wider_window_stays_enumerable(self):
        ring = scenarios(4)["split-phase-ring"]
        assert ring.seqs == 4 and ring.meta_slots == 2
        result = check(ring)
        assert not result.violations, result.violations
        assert result.states < protocol.MAX_STATES


class TestRealCode:
    def test_production_arenas_have_no_yield_point(self):
        owner = SharedArena.create(2, 4096, 4)
        view = SharedArena.attach(owner.spec, 0)
        try:
            assert owner._yield_point is None
            assert view._yield_point is None
        finally:
            view.close()
            owner.close()

    def test_check_leaves_no_segment_or_thread(self):
        segments = set(glob.glob("/dev/shm/psm_*"))
        threads = threading.active_count()
        check(scenarios(3)["die-anywhere"])
        assert set(glob.glob("/dev/shm/psm_*")) == segments
        assert threading.active_count() == threads

    def test_state_cap_ends_the_check_with_one_line(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_STATES", 10)
        with pytest.raises(ValueError, match="more than 10 states") as info:
            check(scenarios(3)["clean-wraparound"])
        assert "\n" not in str(info.value)
