"""Perf history, the rolling baseline, the bench contract as baseline,
and the regression gate."""

import dataclasses
import json
import shutil
from types import SimpleNamespace

import pytest

from repro.bench.history import (
    DEFAULT_HISTORY_PATH,
    DEFAULT_WINDOW,
    append_history,
    check_against_history,
    compare_entries,
    contract_values,
    diff_table,
    find_entry,
    history_entry,
    metric_band,
    metric_series,
    read_contract,
    read_history,
    rolling_baseline,
)
from repro.bench.result import Metric, RunResult, read_result
from repro.cli import main
from tests.bench.test_bench_contract import (
    CONTRACT_PATH, INVOCATIONS, REPO_ROOT,
)


def make_result(iteration_seconds=1.0, accuracy=0.9, sha="abc123def"):
    """A minimal RunResult with one metric of each gated direction."""
    metrics = {
        "iteration_seconds": Metric("iteration_seconds", iteration_seconds,
                                    "seconds", "lower", tolerance=0.05),
        "accuracy": Metric("accuracy", accuracy, "fraction", "higher",
                           tolerance=0.02),
        "workers": Metric("workers", 8, "workers", "info"),
    }
    return RunResult(
        suite="throughput", benchmark="resnet20-cifar10",
        params={"seed": 0}, metrics=metrics,
        meta={"git_sha": sha, "git_dirty": False}, text="",
    )


def record_n(path, n, **kwargs):
    history = []
    for i in range(n):
        entry = append_history(
            path, make_result(sha=f"commit{i:02d}aaaa", **kwargs)
        )
        history.append(entry)
    return history


class TestHistoryFile:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "hist" / "PERF_HISTORY.jsonl"
        record_n(path, 3)
        entries = read_history(path)
        assert len(entries) == 3
        assert entries[0]["commit"] == "commit00aaaa"
        assert entries[-1]["commit"] == "commit02aaaa"
        assert entries[0]["schema_version"] == 1
        assert entries[0]["metrics"]["iteration_seconds"]["value"] == 1.0

    def test_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "nope.jsonl") == []

    def test_corrupt_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "h.jsonl"
        entry = json.dumps(history_entry(make_result()))
        path.write_text(entry + "\n{truncat\n")
        with pytest.raises(ValueError, match=r"h\.jsonl:2: corrupt"):
            read_history(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_history(path)

    def test_entry_is_commit_keyed(self):
        entry = history_entry(make_result(sha="deadbeef"))
        assert entry["commit"] == "deadbeef"
        assert entry["suite"] == "throughput"
        assert entry["benchmark"] == "resnet20-cifar10"


class TestRollingBaseline:
    def test_median_of_window(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for value in [1.0, 1.1, 5.0, 1.2, 1.0, 1.1]:
            append_history(path, make_result(iteration_seconds=value))
        history = read_history(path)
        series = metric_series(history, make_result(), "iteration_seconds")
        assert series == [1.0, 1.1, 5.0, 1.2, 1.0, 1.1]
        # the window of 5 drops the oldest entry and medians over the
        # rest — the 5.0 outlier does not move the median
        assert DEFAULT_WINDOW == 5
        baseline = rolling_baseline(history, make_result(),
                                    "iteration_seconds")
        assert baseline == 1.1

    def test_no_data_is_none(self):
        assert rolling_baseline([], make_result(), "y") is None

    def test_other_suites_do_not_pollute(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, make_result(iteration_seconds=1.0))
        other = make_result(iteration_seconds=99.0)
        other.suite = "fusion"
        append_history(path, other)
        baseline = rolling_baseline(read_history(path), make_result(),
                                    "iteration_seconds")
        assert baseline == 1.0

    def test_other_params_do_not_pollute(self, tmp_path):
        # Same suite and benchmark, another invocation: a fusion run
        # with another compressor, or throughput --parallel.
        path = tmp_path / "h.jsonl"
        append_history(path, make_result(iteration_seconds=1.0))
        other = make_result(iteration_seconds=99.0)
        other.params = {"seed": 1}
        append_history(path, other)
        history = read_history(path)
        assert rolling_baseline(history, make_result(),
                                "iteration_seconds") == 1.0
        assert rolling_baseline(history, other, "iteration_seconds") == 99.0


class TestRegressionGate:
    def test_synthetic_ten_percent_slowdown_fails(self, tmp_path):
        """The acceptance criterion: a 10% slowdown vs recorded history
        must trip the gate (band is 5% for iteration_seconds)."""
        path = tmp_path / "h.jsonl"
        record_n(path, 5, iteration_seconds=1.0)
        history = read_history(path)
        slow = make_result(iteration_seconds=1.10)
        regressions = check_against_history(slow, history)
        assert [r.metric for r in regressions] == ["iteration_seconds"]
        assert regressions[0].baseline == 1.0
        assert "lower is better" in str(regressions[0])

    def test_within_tolerance_passes(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record_n(path, 5, iteration_seconds=1.0)
        ok = make_result(iteration_seconds=1.04)  # inside the 5% band
        assert check_against_history(ok, read_history(path)) == []

    def test_higher_direction_regresses_downward(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record_n(path, 5, accuracy=0.9)
        worse = make_result(accuracy=0.8)
        regressions = check_against_history(worse, read_history(path))
        assert [r.metric for r in regressions] == ["accuracy"]
        better = make_result(accuracy=0.99)
        assert check_against_history(better, read_history(path)) == []

    def test_info_metrics_never_gate(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record_n(path, 3)
        shifted = make_result()
        shifted.metrics["workers"] = Metric("workers", 999, "workers",
                                            "info")
        assert check_against_history(shifted, read_history(path)) == []

    def test_new_metric_has_no_baseline(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record_n(path, 3)
        result = make_result()
        result.metrics["brand_new"] = Metric("brand_new", 123.0, "seconds",
                                             "lower")
        assert check_against_history(result, read_history(path)) == []

    def test_floor_protects_near_zero_baselines(self):
        metric = Metric("loss_gap", 0.004, "fraction", "lower",
                        tolerance=0.1, floor=0.005)
        # relative band alone would be 1e-13; the floor dominates
        assert metric_band(metric, baseline=1e-12) >= 0.005


class TestCompare:
    def test_verdicts(self, tmp_path):
        a = history_entry(make_result(iteration_seconds=1.0, accuracy=0.9))
        b = history_entry(make_result(iteration_seconds=2.0, accuracy=0.91))
        rows = {row["metric"]: row for row in compare_entries(a, b)}
        assert rows["iteration_seconds"]["verdict"] == "worse"
        assert rows["iteration_seconds"]["delta"] == pytest.approx(1.0)
        assert rows["accuracy"]["verdict"] == "~"  # inside the 2% band
        assert rows["workers"]["verdict"] == "?"  # info metric
        faster = history_entry(make_result(iteration_seconds=0.5))
        rows = {row["metric"]: row
                for row in compare_entries(a, faster)}
        assert rows["iteration_seconds"]["verdict"] == "better"

    def test_one_sided_metric(self):
        a = history_entry(make_result())
        b = history_entry(make_result())
        del b["metrics"]["accuracy"]
        rows = {row["metric"]: row for row in compare_entries(a, b)}
        assert rows["accuracy"]["b"] is None
        assert rows["accuracy"]["verdict"] == "?"

    def test_diff_table_renders(self):
        a = history_entry(make_result(iteration_seconds=1.0))
        b = history_entry(make_result(iteration_seconds=2.0))
        text = diff_table(compare_entries(a, b))
        assert "iteration_seconds" in text
        assert "+100.0%" in text
        assert "worse" in text

    def test_find_entry_prefix(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record_n(path, 3)
        history = read_history(path)
        assert find_entry(history, "commit01")["commit"] == "commit01aaaa"
        # newest match wins
        assert find_entry(history, "commit")["commit"] == "commit02aaaa"
        with pytest.raises(KeyError, match="no history entry"):
            find_entry(history, "f00")
        with pytest.raises(ValueError, match="empty"):
            find_entry(history, "")


class TestBenchCheckCli:
    """The history gate end-to-end through `repro bench --check`.

    The contract freezes every gated throughput metric, so these runs
    are gated against a missing contract: the history is the baseline
    of every metric.
    """

    BENCH = ["bench", "throughput"]

    @pytest.fixture(autouse=True)
    def no_contract(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.bench.history.DEFAULT_CONTRACT_PATH",
                            str(tmp_path / "absent_contract.json"))

    def test_record_then_check_passes(self, tmp_path, capsys):
        history = str(tmp_path / "PERF_HISTORY.jsonl")
        out = str(tmp_path / "BENCH_throughput.json")
        args = self.BENCH + ["--out", out, "--history", history]
        assert main(args + ["--record", "--check"]) == 0
        assert main(args + ["--check"]) == 0
        text = capsys.readouterr().out
        assert "regression gate  : ok" in text
        assert "recorded" in text

    def test_injected_slowdown_fails_check(self, tmp_path, capsys):
        """Acceptance criterion at the CLI layer: rewrite one recorded
        metric 10% faster than reality and the next --check must fail."""
        history = tmp_path / "PERF_HISTORY.jsonl"
        args = self.BENCH + ["--out", "-", "--history", str(history)]
        assert main(args + ["--record"]) == 0
        entry = json.loads(history.read_text())
        # pretend history says iterations used to be 10% faster,
        # i.e. the current run is a synthetic 10% slowdown
        for payload in entry["metrics"].values():
            if payload["direction"] == "lower":
                payload["value"] *= 0.9
            elif payload["direction"] == "higher":
                payload["value"] *= 1.1
        history.write_text(json.dumps(entry) + "\n")
        capsys.readouterr()
        assert main(args + ["--check"]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_failed_check_not_recorded(self, tmp_path, capsys):
        history = tmp_path / "PERF_HISTORY.jsonl"
        args = self.BENCH + ["--out", "-", "--history", str(history)]
        assert main(args + ["--record"]) == 0
        entry = json.loads(history.read_text())
        for payload in entry["metrics"].values():
            if payload["direction"] == "lower":
                payload["value"] *= 0.5
        history.write_text(json.dumps(entry) + "\n")
        assert main(args + ["--record", "--check"]) == 1
        assert "not recorded" in capsys.readouterr().out
        # the poisoned baseline was not amended by the regressing run
        assert len(history.read_text().splitlines()) == 1

    def test_compare_cli(self, tmp_path, capsys):
        history = str(tmp_path / "h.jsonl")
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        args = self.BENCH + ["--history", history]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        capsys.readouterr()
        assert main(["bench", "compare", a, b]) == 0
        text = capsys.readouterr().out
        assert "metric" in text and "verdict" in text

    def test_compare_unknown_ref_is_one_bare_line(self, tmp_path):
        history = tmp_path / "h.jsonl"
        record_n(history, 1)
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "compare", "a", "b", "--history", str(history)])
        assert exit_info.value.code == "no history entry for commit ref 'a'"

    def test_compare_needs_two_refs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "compare", "just-one"])
        assert exit_info.value.code == 2
        assert "required: REF" in capsys.readouterr().err

    def test_corrupt_history_is_loud(self, tmp_path):
        history = tmp_path / "h.jsonl"
        history.write_text("{oops\n")
        args = self.BENCH + ["--out", "-", "--history", str(history),
                             "--check"]
        with pytest.raises(SystemExit, match="cannot read perf history"):
            main(args)


def parallel_bench_result(monkeypatch) -> RunResult:
    """``bench throughput --parallel``'s record, its processes faked."""
    from repro.bench.throughput import run_parallel_bench

    def fake_run_parallel(config):
        return SimpleNamespace(
            wall_seconds=2.0 if config.cell.fusion_mb == 0 else 1.0,
            digests={0: "ab" * 32, 1: "ab" * 32},
        )

    monkeypatch.setattr("repro.comm.parallel.run_parallel",
                        fake_run_parallel)
    return run_parallel_bench()


@pytest.fixture(scope="module")
def contract() -> dict:
    return read_contract(CONTRACT_PATH)


@pytest.fixture(scope="module")
def invocation_runs(tmp_path_factory) -> dict[str, RunResult]:
    """The contract's four invocations, as ``repro bench`` records them."""
    runs = {}
    for key, argv in sorted(INVOCATIONS.items()):
        out = tmp_path_factory.mktemp(key) / "result.json"
        main(["bench", *argv, "--out", str(out)])
        runs[key] = read_result(out)
    return runs


def _moved(result: RunResult, name: str, value: float) -> RunResult:
    metrics = dict(result.metrics)
    metrics[name] = dataclasses.replace(metrics[name], value=value)
    return dataclasses.replace(result, metrics=metrics)


def frozen_gated(contract: dict) -> list[tuple[str, str]]:
    return [
        (key, name)
        for key in sorted(contract)
        for name, spec in sorted(contract[key]["metrics"].items())
        if spec["direction"] != "info" and spec["value"] is not None
    ]


class TestContractBaseline:
    """A number the contract freezes is gated against the contract."""

    def test_every_invocation_is_recognised(self, contract,
                                            invocation_runs):
        for key, result in invocation_runs.items():
            frozen = contract_values(contract, result)
            expected = {
                name: spec["value"]
                for name, spec in contract[key]["metrics"].items()
                if spec["value"] is not None
            }
            assert frozen == expected

    def test_the_gate_covers_sixty_four_frozen_numbers(self, contract):
        assert len(frozen_gated(contract)) == 64

    def test_each_frozen_metric_fails_twice_its_band_the_wrong_way(
        self, contract, invocation_runs
    ):
        # A history that disagrees with every frozen number must not
        # matter: the contract is their baseline.
        history = []
        for key, result in invocation_runs.items():
            entry = history_entry(result)
            for name in contract_values(contract, result):
                entry["metrics"][name]["value"] = 1e9
            history.append(entry)
        caught = []
        for key, name in frozen_gated(contract):
            result = invocation_runs[key]
            metric = result.metrics[name]
            frozen = contract[key]["metrics"][name]["value"]
            assert check_against_history(
                _moved(result, name, frozen), history, contract
            ) == []
            # Twice the band, or one unit where the band is zero
            # (counts that must stay exactly at 0 or 5).
            step = 2 * metric_band(metric, frozen) or 1.0
            worse = frozen + step if metric.direction == "lower" \
                else frozen - step
            regressions = check_against_history(
                _moved(result, name, worse), history, contract
            )
            assert [(r.metric, r.source, r.baseline)
                    for r in regressions] == [(name, "contract", frozen)]
            caught.append(name)
        assert len(caught) == 64

    def test_other_compressor_fusion_run_falls_back_to_history(
        self, contract, tmp_path
    ):
        argv = list(INVOCATIONS["fusion"])
        argv[argv.index("topk")] = "eightbit"
        out = tmp_path / "fusion.json"
        main(["bench", *argv, "--out", str(out)])
        result = read_result(out)
        assert contract_values(contract, result) == {}
        entry = history_entry(result)
        entry["metrics"]["collective_ops_fused"]["value"] = 1
        regressions = check_against_history(result, [entry], contract)
        assert [(r.metric, r.source, r.baseline)
                for r in regressions] == [
            ("collective_ops_fused", "history", 1.0)]

    def test_parallel_throughput_falls_back_to_history(
        self, contract, monkeypatch
    ):
        result = parallel_bench_result(monkeypatch)
        # Same suite and benchmark as the frozen throughput run; only
        # the params tell them apart.
        assert (result.suite, result.benchmark) == (
            contract["throughput"]["suite"],
            contract["throughput"]["benchmark"],
        )
        assert contract_values(contract, result) == {}
        entry = history_entry(result)
        entry["metrics"]["parallel/fusion_wall_speedup"]["value"] = 10.0
        regressions = check_against_history(result, [entry], contract)
        assert [(r.metric, r.source) for r in regressions] == [
            ("parallel/fusion_wall_speedup", "history")]


class TestContractGateCli:
    """`repro bench --check` reads the committed contract by default."""

    @pytest.fixture(autouse=True)
    def at_repo_root(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)

    def test_committed_history_passes_the_throughput_check(self, tmp_path,
                                                           capsys):
        history = tmp_path / "PERF_HISTORY.jsonl"
        shutil.copy(DEFAULT_HISTORY_PATH, history)
        code = main(["bench", "throughput", "--out", "-", "--history",
                     str(history), "--record", "--check"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "26 gated metrics vs benchmarks/results/bench_contract.json" \
            in out
        assert "recorded" in out

    def test_committed_history_gates_the_parallel_leg(self, monkeypatch):
        # Its speedup is wall clock, which only the history can gate:
        # the committed history must hold a run with today's params.
        result = parallel_bench_result(monkeypatch)
        history = read_history(DEFAULT_HISTORY_PATH)
        assert rolling_baseline(
            history, result, "parallel/fusion_wall_speedup"
        ) is not None

    def test_a_moved_contract_value_fails_the_check(self, tmp_path,
                                                    monkeypatch, capsys):
        moved = read_contract(CONTRACT_PATH)
        spec = moved["throughput"]["metrics"]["hier/sim_wall_speedup"]
        spec["value"] *= 1.1
        path = tmp_path / "bench_contract.json"
        path.write_text(json.dumps(moved), encoding="utf-8")
        monkeypatch.setattr("repro.bench.history.DEFAULT_CONTRACT_PATH",
                            str(path))
        code = main(["bench", "throughput", "--out", "-", "--history",
                     str(tmp_path / "h.jsonl"), "--check"])
        out = capsys.readouterr().out
        assert code == 1
        assert ("PERF REGRESSION: throughput/resnet20-cifar10: "
                "hier/sim_wall_speedup = 2.25339 < contract baseline"
                in out)


class TestHistoryKeyCli:
    """A rolling baseline comes from runs of the same invocation: a
    recorded topk fusion run is not an eightbit run's baseline."""

    FUSION = ["bench", "fusion", "--workers", "4", "--iterations", "5",
              "--out", "-"]

    @pytest.fixture(autouse=True)
    def at_repo_root(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)

    def test_a_recorded_topk_run_does_not_gate_eightbit(self, tmp_path,
                                                         capsys):
        # Both byte counts used to be gated against the topk run's:
        # bytes_per_worker_fused = 99690 > history baseline 6600.
        history = str(tmp_path / "PERF_HISTORY.jsonl")
        assert main(self.FUSION + ["--compressor", "topk", "--history",
                                   history, "--record", "--check"]) == 0
        code = main(self.FUSION + ["--compressor", "eightbit",
                                   "--history", history, "--check"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PERF REGRESSION" not in out

    def test_a_recorded_eightbit_run_gates_the_next(self, tmp_path, capsys):
        history = tmp_path / "PERF_HISTORY.jsonl"
        argv = self.FUSION + ["--compressor", "eightbit", "--history",
                              str(history)]
        assert main(argv + ["--record"]) == 0
        entry = json.loads(history.read_text())
        entry["metrics"]["bytes_per_worker_fused"]["value"] /= 2
        history.write_text(json.dumps(entry) + "\n")
        capsys.readouterr()
        assert main(argv + ["--check"]) == 1
        assert ("bytes_per_worker_fused = 99690 > history baseline 49845"
                in capsys.readouterr().out)
