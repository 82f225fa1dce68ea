"""The run-option records (`repro.core.config`) and the option ratchet."""

import argparse
import dataclasses
import inspect
import json
import subprocess
import sys

import pytest

from repro.bench.faults_bench import run_faults_bench
from repro.bench.fusion_bench import run_fusion_bench
from repro.bench.overlap_bench import run_overlap_bench
from repro.bench.runner import build_trainer, run_cell
from repro.bench.throughput import run_parallel_bench, run_throughput_bench
from repro.cli import build_parser
from repro.comm.parallel import ParallelRunConfig
from repro.core import DecentralizedTrainer, DistributedTrainer, create
from repro.core.registry import available_compressors
from repro.core.config import Cell, Resilience, WorkerMode, sanitizes
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
        (build_trainer, 10),
        (run_cell, 4),
        (run_fusion_bench, 3),
        (run_overlap_bench, 0),
        (run_faults_bench, 0),
        (run_throughput_bench, 0),
        (run_parallel_bench, 0),
    ])
    def test_parameter_counts(self, function, limit):
        assert len(inspect.signature(function).parameters) <= limit

    #: Distinct flag names per subcommand, its nested subcommands'
    #: included (positionals and --help not counted).
    CLI_LIMITS = {
        "list": 0, "compress": 5, "train": 21, "bench": 8, "report": 4,
        "profile": 12, "chaos": 7, "lint": 3, "protocol-check": 2,
        "experiment": 3,
    }

    @staticmethod
    def _flag_names(parser) -> set[tuple[str, ...]]:
        names = set()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    names |= TestOptionRatchet._flag_names(child)
            elif action.option_strings and not isinstance(
                action, argparse._HelpAction
            ):
                names.add(tuple(action.option_strings))
        return names

    @classmethod
    def _cli_flag_counts(cls) -> dict[str, int]:
        (subcommands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {name: len(cls._flag_names(parser))
                for name, parser in subcommands.choices.items()}

    def test_cli_flag_counts(self):
        counts = self._cli_flag_counts()
        assert set(counts) == set(self.CLI_LIMITS)
        grown = {
            name: count for name, count in counts.items()
            if count > self.CLI_LIMITS[name]
        }
        assert grown == {}
        assert sum(counts.values()) <= 65

    def test_nested_subcommand_flags_count(self):
        # A bench suite's or an experiment's flags are its subparser's;
        # a count that skipped them would read 0 and never grow.
        counts = self._cli_flag_counts()
        assert counts["bench"] == 8 and counts["experiment"] == 3

    def test_parallel_run_config_fields(self):
        # The cell and the five settings of the processes that run it.
        fields = {f.name for f in dataclasses.fields(ParallelRunConfig)}
        assert len(fields) <= 6
        assert "cell" in fields

    def test_cell_fields(self):
        assert len(dataclasses.fields(Cell)) == 15


class TestCell:
    """One value per experiment: built, checked and recorded once."""

    #: Every cell ``repro train``, ``profile`` and ``chaos`` refuse,
    #: with the start of the line they exit with.
    BAD = [
        (dict(backend="parallel", racks=7),
         "--racks requires --topology hier"),
        (dict(backend="parallel", aggregation="all"),
         "--aggregation requires --topology ps or hier"),
        (dict(racks=7), "--racks requires --topology hier"),
        (dict(topology="ps", racks=3), "--racks requires --topology hier"),
        (dict(aggregation="all"),
         "--aggregation requires --topology ps or hier"),
        (dict(sanitize="arena"),
         "--sanitize arena requires --backend parallel"),
        (dict(sanitize="all"), "--sanitize all requires --backend parallel"),
        (dict(backend="parallel", topology="ps"),
         "--backend parallel supports only the flat topology"),
        (dict(backend="parallel",
              resilience=Resilience("corrupt@5-20:rank=1,bits=8")),
         "fault kinds ['corrupt'] manipulate simulator-only wire state"),
        (dict(backend="parallel", resilience=Resilience("drop@1:p=0.5")),
         "fault kinds ['drop'] manipulate simulator-only wire state"),
        (dict(backend="parallel",
              resilience=Resilience(straggler_policy="backup")),
         "the parallel backend supports straggler policies 'wait' and "
         "'drop', got 'backup'"),
        (dict(backend="parallel",
              resilience=Resilience(straggler_policy="drop",
                                    recovery="restart")),
         "straggler eviction ('drop') permanently removes the rank and "
         "requires --recovery degrade"),
        (dict(backend="parallel",
              resilience=Resilience("crash@3:rank=1,rejoin=5", "degrade")),
         "crash rejoin= requires --recovery restart"),
        (dict(backend="parallel", workers=2,
              resilience=Resilience("crash@3:rank=9", "restart")),
         "fault crash@3 targets rank 9, but the run has 2 workers"),
        (dict(workers=2, resilience=Resilience("crash@3:rank=9")),
         "fault crash@3 targets rank 9, but the run has 2 workers"),
        (dict(resilience=Resilience("stall@3:rank=1")),
         "'stall' is a real-parallel-only fault kind"),
        (dict(benchmark="alexnet"), "unknown benchmark 'alexnet'; known:"),
        (dict(compressor="nope"), "unknown compressor 'nope'; available:"),
        (dict(compressor="topk", compressor_params={"nope": 1}),
         "unknown parameter 'nope' for compressor 'topk'; available: "
         "['ratio', 'index_encoding']"),
        (dict(compressor="qsgd", compressor_params={"seed": 3}),
         "unknown parameter 'seed' for compressor 'qsgd'; available: "
         "['levels']"),
        (dict(memory="nope"), "unknown memory 'nope'; expected one of"),
        (dict(topology="ring"), "topology must be one of"),
        (dict(backend="gpu"), "backend must be one of"),
        (dict(sanitize="some"), "sanitize must be one of"),
        (dict(topology="ps", aggregation="some"), "aggregation must be one of"),
        (dict(workers=0), "workers must be >= 1, got 0"),
        (dict(backend="parallel", workers=0), "workers must be >= 1, got 0"),
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(backend="parallel", epochs=0), "epochs must be >= 1, got 0"),
        (dict(fusion_mb=-1.0), "fusion_mb must be >= 0, got -1.0"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(topology="hier", racks=9), "racks must be in [1, 4], got 9"),
        (dict(topology="hier", racks=0), "racks must be in [1, 4], got 0"),
    ]

    @pytest.mark.parametrize("fields, message", BAD)
    def test_a_bad_cell_is_refused_with_one_line(self, fields, message):
        with pytest.raises(ValueError) as info:
            Cell(**{"benchmark": "ncf-movielens", **fields})
        assert str(info.value).startswith(message)
        assert "\n" not in str(info.value)

    def test_topology_fields_default_where_read_and_stay_none_elsewhere(self):
        flat = Cell("ncf-movielens")
        assert (flat.racks, flat.aggregation) == (None, None)
        assert (Cell("ncf-movielens", topology="ps").aggregation) == "auto"
        hier = Cell("ncf-movielens", topology="hier")
        assert (hier.racks, hier.aggregation) == (2, "auto")

    def test_a_frozen_hashable_value_owning_its_params(self):
        params = {"ratio": 0.01}
        cell = Cell("ncf-movielens", "topk", params)
        params["ratio"] = 0.5
        assert cell.compressor_params == {"ratio": 0.01}
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.workers = 2
        assert len({cell, Cell("ncf-movielens", "topk", {"ratio": 0.01})}) == 1

    @staticmethod
    def _matrix():
        """All compressors x flat/ps/hier x sim/parallel x
        fused/overlapped, where the backend runs the topology."""
        for index, name in enumerate(available_compressors()):
            for topology, backend in (("flat", "sim"), ("ps", "sim"),
                                      ("hier", "sim"), ("flat", "parallel")):
                for exchange in ({"fusion_mb": 64.0}, {"overlap": True}):
                    yield Cell(
                        "ncf-movielens", name,
                        {"ratio": 0.01} if name == "topk" else {},
                        memory=("none", "residual", "dgc", None)[index % 4],
                        workers=2 + index % 3, seed=index,
                        epochs=1 + index % 2, topology=topology,
                        backend=backend, resilience=Resilience(
                            "crash@2:rank=1", "restart"
                        ) if index % 2 else Resilience(),
                        **exchange,
                    )

    def test_to_dict_round_trips_through_json(self):
        cells = list(self._matrix())
        assert len(cells) == 25 * 4 * 2
        for cell in cells:
            data = json.loads(json.dumps(cell.to_dict()))
            assert Cell.from_dict(data) == cell

    def test_importing_the_runner_loads_no_more_modules(self):
        # perfbench times these two imports as set-up; building a cell
        # imports the suite and the registry only when it checks names.
        code = (
            "import sys; before = set(sys.modules); "
            "import repro.bench.runner, repro.comm.parallel; "
            "new = set(sys.modules) - before; "
            "print(sum(m.split('.')[0] == 'repro' for m in new), len(new))"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        repro_modules, modules = map(int, out.split())
        assert repro_modules <= 107
        assert modules <= 259
