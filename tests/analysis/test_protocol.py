"""The exhaustive 2-rank arena protocol model (``repro protocol-check``)."""

import pytest

from repro.analysis.protocol import (
    ModelConfig,
    ProtocolModel,
    check_model,
    run_protocol_check,
)


class TestCleanScenarios:
    def test_clean_wraparound_has_no_violations(self):
        # seqs=3 > meta_slots=2 forces meta-ring reuse; capacity=2
        # blocks with payload=1 force data-segment wraparound.
        result = check_model(ModelConfig(seqs=3))
        assert result.ok, [str(v) for v in result.violations]
        assert result.states > 0
        assert result.terminals > 0

    def test_die_anywhere_never_deadlocks(self):
        result = check_model(ModelConfig(seqs=3, crash_rank=1))
        assert result.ok, [str(v) for v in result.violations]
        # Many distinct terminals: one per crash point the DFS explored.
        assert result.terminals > 1

    def test_degraded_cohort_completes_alone(self):
        result = check_model(ModelConfig(seqs=3, active=(0,)))
        assert result.ok

    def test_state_space_is_fully_enumerated_and_small(self):
        result = ProtocolModel(ModelConfig(seqs=3)).explore()
        assert result.ok
        # The model must stay exhaustively checkable in CI.
        assert result.states < 100_000


class TestBrokenModel:
    def test_publish_before_write_is_caught(self):
        result = check_model(ModelConfig(seqs=3, broken=True))
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        assert kinds & {"stale-meta", "torn-read"}

    def test_violation_names_rank_seq_and_schedule(self):
        result = check_model(ModelConfig(seqs=3, broken=True))
        worst = result.violations[0]
        assert worst.rank in (0, 1)
        assert 0 <= worst.seq < 3
        assert worst.schedule  # a replayable interleaving prefix


class TestSplitPhase:
    """W posts, then the reads: the progress engine's two obligations."""

    RING = ModelConfig(window=3, meta_slots=2, capacity=3)
    ROOM = ModelConfig(window=3, meta_slots=3, capacity=4, payloads=(1, 2))

    @pytest.mark.parametrize("config", [RING, ROOM], ids=["ring", "room"])
    @pytest.mark.parametrize("order", [(2, 0, 1), (0, 1, 2), (1, 2, 0)])
    def test_any_finish_order_completes_without_stale_reads(
        self, config, order
    ):
        from dataclasses import replace

        result = check_model(replace(config, finish_order=order))
        assert result.ok, [str(v) for v in result.violations]
        assert result.terminals > 0

    @pytest.mark.parametrize("config", [RING, ROOM], ids=["ring", "room"])
    def test_without_progress_the_window_deadlocks(self, config):
        from dataclasses import replace

        result = check_model(replace(config, progress=False))
        assert {v.kind for v in result.violations} == {"deadlock"}
        assert result.terminals == 0
        # Blocked on itself: the schedule ends with both ranks stuck.
        assert result.violations[0].schedule

    def test_drained_only_reaches_the_lowest_unread(self):
        model = ProtocolModel(self.RING)
        assert model._engine_floor(0, frozenset()) == 0
        assert model._engine_floor(0, frozenset({(1, 1), (2, 1)})) == 0
        assert model._engine_floor(0, frozenset({(0, 1), (2, 1)})) == 1
        assert model._engine_floor(
            0, frozenset({(0, 1), (1, 1), (2, 1)})
        ) == 3

    def test_a_wider_window_stays_enumerable(self):
        result = check_model(ModelConfig(window=4, meta_slots=2, capacity=4))
        assert result.ok
        assert result.states < 100_000


class TestConfig:
    def test_active_defaults_to_all_ranks(self):
        assert ModelConfig().active_ranks == (0, 1)

    def test_explicit_active_subset(self):
        assert ModelConfig(active=(1,)).active_ranks == (1,)


class TestSuite:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_protocol_check(seqs=3)

    def test_suite_is_green(self, summary):
        assert summary["ok"], summary

    def test_suite_covers_every_scenario(self, summary):
        assert set(summary["scenarios"]) == {
            "clean-wraparound",
            "die-anywhere",
            "degraded-cohort",
            "split-phase-ring",
            "split-phase-room",
            "broken-publish-first",
            "no-progress-ring",
            "no-progress-room",
        }

    @pytest.mark.parametrize("name", [
        "broken-publish-first", "no-progress-ring", "no-progress-room",
    ])
    def test_negative_controls_are_caught(self, summary, name):
        control = summary["scenarios"][name]
        assert control["ok"]  # ok == the bug WAS caught
        assert control["violations"]
        assert control["expectation"] == "must be caught"
