"""The run-option records (`repro.core.config`) and the option ratchet."""

import argparse
import dataclasses
import inspect

import pytest

from repro.bench.runner import build_trainer, train_quality
from repro.cli import build_parser
from repro.comm.parallel import ParallelRunConfig
from repro.core import DecentralizedTrainer, DistributedTrainer, create
from repro.core.config import Resilience, WorkerMode, sanitizes
from repro.core.exchange import Exchange
from repro.faults import FaultPlan

from tests.core.test_trainer import QuadraticTask


class TestResilience:
    def test_defaults_inject_nothing(self):
        resilience = Resilience()
        assert resilience.plan(seed=0) is None
        assert resilience.checkpoint_every == 0

    def test_restart_under_faults_checkpoints_every_iteration(self):
        assert Resilience(
            faults="crash@2:rank=1", recovery="restart"
        ).checkpoint_every == 1
        # An explicit cadence wins; no plan or degrade needs none.
        assert Resilience(
            faults="crash@2:rank=1", recovery="restart", checkpoint_every=3
        ).checkpoint_every == 3
        assert Resilience(recovery="restart").checkpoint_every == 0
        assert Resilience(faults="crash@2:rank=1").checkpoint_every == 0

    def test_a_bad_spec_fails_when_built(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Resilience(faults="explode@1")

    def test_plan_is_seeded_by_the_run(self):
        plan = Resilience(faults="drop@1:rank=0,p=0.5").plan(seed=7)
        assert isinstance(plan, FaultPlan) and plan.seed == 7
        given = FaultPlan.parse("drop@1:rank=0", seed=3)
        assert Resilience(faults=given).plan(seed=7) is given

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Resilience().recovery = "restart"


class TestWorkerMode:
    def test_cohort_is_sorted_and_must_hold_the_rank(self):
        assert WorkerMode(1, active_ranks=[2, 1, 1]).active_ranks == (1, 2)
        with pytest.raises(ValueError, match="not in active_ranks"):
            WorkerMode(0, active_ranks=[1, 2])

    def test_cohort_is_checked_against_the_run(self):
        assert WorkerMode(1).cohort(3) == [0, 1, 2]
        assert WorkerMode(1, active_ranks=(1, 2)).cohort(3) == [1, 2]
        with pytest.raises(ValueError, match="out of range"):
            WorkerMode(3).cohort(3)
        with pytest.raises(ValueError, match="out of range"):
            WorkerMode(-1).cohort(3)
        with pytest.raises(ValueError, match="out of range"):
            WorkerMode(0, active_ranks=(0, 4)).cohort(3)

    def test_worker_checkpoints_need_a_directory(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            DistributedTrainer(
                QuadraticTask(), create("none"), n_workers=2,
                resilience=Resilience(checkpoint_every=1),
                worker=WorkerMode(0),
            )


class TestSanitizeLevels:
    @pytest.mark.parametrize("level, contract, arena", [
        ("off", False, False), ("contract", True, False),
        ("arena", False, True), ("all", True, True),
    ])
    def test_levels(self, level, contract, arena):
        assert sanitizes(level, "contract") is contract
        assert sanitizes(level, "arena") is arena

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="sanitize"):
            sanitizes("some", "arena")


class TestOptionRatchet:
    """Options may only shrink: a new knob belongs in a config record."""

    @pytest.mark.parametrize("function, limit", [
        (DistributedTrainer, 16),
        (DecentralizedTrainer, 9),
        (Exchange, 2),
        (build_trainer, 17),
        (train_quality, 4),
    ])
    def test_parameter_counts(self, function, limit):
        assert len(inspect.signature(function).parameters) <= limit

    #: Flags per subcommand (positionals and --help not counted).
    CLI_LIMITS = {
        "list": 0, "compress": 5, "train": 24, "bench": 19, "report": 3,
        "profile": 14, "chaos": 7, "lint": 8, "protocol-check": 2,
        "experiment": 3,
    }

    @staticmethod
    def _cli_flag_counts() -> dict[str, int]:
        (subcommands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {
            name: sum(
                1 for action in parser._actions
                if action.option_strings
                and not isinstance(action, argparse._HelpAction)
            )
            for name, parser in subcommands.choices.items()
        }

    def test_cli_flag_counts(self):
        counts = self._cli_flag_counts()
        assert set(counts) == set(self.CLI_LIMITS)
        grown = {
            name: count for name, count in counts.items()
            if count > self.CLI_LIMITS[name]
        }
        assert grown == {}
        assert sum(counts.values()) <= 85

    def test_parallel_run_config_fields(self):
        fields = {f.name for f in dataclasses.fields(ParallelRunConfig)}
        assert len(fields) <= 15
        assert "resilience" in fields
        assert not fields & {
            "faults", "recovery", "checkpoint_every", "straggler_policy",
        }
