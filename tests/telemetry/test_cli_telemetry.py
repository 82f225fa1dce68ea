"""CLI telemetry surfaces: train --trace, report, profile, wire stats."""

import contextlib
import io
import json
import re

import pytest

from repro.cli import main
from repro.core.config import Cell
from repro.telemetry import TraceSummary
from repro.telemetry.exporters import read_events
from repro.telemetry.formatting import wire_stats_fields

TRAIN_ARGS = ["train", "--benchmark", "ncf-movielens",
              "--compressor", "topk", "--workers", "2", "--epochs", "1"]
PARALLEL_ARGS = ["train", "--benchmark", "ncf-movielens",
                 "--compressor", "topk", "--backend", "parallel",
                 "--workers", "2", "--epochs", "1"]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced training run shared by every CLI assertion."""
    root = tmp_path_factory.mktemp("trace")
    paths = {
        "jsonl": root / "run.jsonl",
        "chrome": root / "run.trace.json",
        "prom": root / "run.prom",
    }
    code = main(TRAIN_ARGS + [
        "--trace", str(paths["jsonl"]),
        "--chrome-trace", str(paths["chrome"]),
        "--metrics-out", str(paths["prom"]),
    ])
    assert code == 0
    return paths


class TestTrainTraceFlags:
    def test_artifacts_written(self, traced_run):
        assert traced_run["jsonl"].stat().st_size > 0
        assert traced_run["chrome"].stat().st_size > 0
        assert traced_run["prom"].stat().st_size > 0

    def test_chrome_artifact_is_valid_trace_event_json(self, traced_run):
        document = json.loads(traced_run["chrome"].read_text())
        events = document["traceEvents"]
        assert events
        assert all(e["ph"] == "X" and "ts" in e and "dur" in e
                   for e in events)

    def test_prometheus_artifact_shape(self, traced_run):
        text = traced_run["prom"].read_text()
        assert "# TYPE comm_bytes_per_worker_total counter" in text
        assert "# TYPE compress_kernel_seconds summary" in text

    def test_train_prints_wire_stats_block(self, traced_run, tmp_path,
                                           capsys):
        code = main(TRAIN_ARGS + ["--trace", str(tmp_path / "t.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        for name, _ in wire_stats_fields(1, 1, 1, 1):
            assert name in out

    def test_kernel_time_is_the_compress_kernel_sum(self, tmp_path, capsys):
        """The printed kernel time sums the compress calls alone, not the
        exchange around them (collectives, decode, Agg)."""
        trace = tmp_path / "t.jsonl"
        assert main(TRAIN_ARGS + ["--trace", str(trace)]) == 0
        kernel = sum(
            event["sum"] for event in read_events(trace)
            if event["type"] == "histogram"
            and event["name"] == "compress_kernel_seconds"
        )
        assert kernel > 0
        expected = dict(wire_stats_fields(0, 0, 0, kernel))["kernel time"]
        assert f"kernel time      : {expected}\n" in capsys.readouterr().out


class TestReportCommand:
    def test_report_prints_breakdown(self, traced_run, capsys):
        assert main(["report", str(traced_run["jsonl"])]) == 0
        out = capsys.readouterr().out
        assert "Per-phase breakdown" in out
        assert "collective (comm)" in out
        assert "sim share" in out
        assert "bytes on wire / worker" in out
        assert "topk" in out  # kernel latency table
        for section in ("Per-phase breakdown", "(unattributed)", "Totals",
                        "simulated seconds (leaf phases)",
                        "Compressor kernel latency", "p90 ms"):
            assert section in out, section

    def test_report_converts_to_chrome(self, traced_run, tmp_path, capsys):
        chrome = tmp_path / "converted.json"
        assert main(["report", str(traced_run["jsonl"]),
                     "--chrome", str(chrome)]) == 0
        document = json.loads(chrome.read_text())
        assert document["traceEvents"]

    def test_report_rejects_empty_trace(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no telemetry events"):
            main(["report", str(empty)])

    def test_report_rejects_missing_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["report", str(tmp_path / "nope.jsonl")])

    def test_report_rejects_truncated_trace(self, traced_run, tmp_path):
        truncated = tmp_path / "truncated.jsonl"
        text = traced_run["jsonl"].read_text()
        truncated.write_text(text[: len(text) // 2].rstrip("\n"))
        with pytest.raises(SystemExit, match="truncated or corrupt"):
            main(["report", str(truncated)])

    def test_report_rejects_non_telemetry_jsonl(self, tmp_path):
        wrong = tmp_path / "metrics.jsonl"
        wrong.write_text('{"loss": 0.5}\n{"loss": 0.4}\n')
        with pytest.raises(SystemExit, match="contains no telemetry"):
            main(["report", str(wrong)])
        numbers = tmp_path / "numbers.jsonl"
        numbers.write_text("42\n")
        with pytest.raises(SystemExit, match="not a telemetry event"):
            main(["report", str(numbers)])

    def test_report_compare(self, traced_run, capsys):
        trace = str(traced_run["jsonl"])
        assert main(["report", trace, trace]) == 0
        out = capsys.readouterr().out
        assert "wall A" in out and "wall B" in out
        assert "total (leaf)" in out
        assert "collective" in out
        # identical traces: every wall delta is +0.0%
        assert "+0.0%" in out

    def test_report_writes_folded_stacks_and_profile_json(
        self, traced_run, tmp_path, capsys
    ):
        folded = tmp_path / "stacks.folded"
        out = tmp_path / "profile.json"
        code = main(["report", str(traced_run["jsonl"]),
                     "--folded", str(folded), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Per-phase breakdown" in text
        assert "(unattributed)" in text
        assert "attribution error" in text
        assert "collective (comm)" in text
        for line in folded.read_text().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) >= 0
            assert stack
        payload = json.loads(out.read_text())
        assert payload["attribution_error"] < 0.01
        assert payload["meta"]["metadata_version"] == 1

    @pytest.mark.parametrize("argv, named", [
        # Each used to exit 0 and write nothing it was asked for (T is
        # the trace).
        (["T", "T", "--chrome", "c.json"], "--chrome"),
        (["T", "T", "--folded", "f.txt", "--out", "p.json"],
         "--folded, --out"),
        (["T", "--clock", "sim"], "--clock requires --chrome"),
        # Used to write a Chrome file of 0 spans: the run did not overlap.
        (["T", "--chrome", "c.json", "--clock", "sim"],
         "holds no simulated window"),
    ])
    def test_report_refuses_outputs_it_would_not_write(
        self, traced_run, tmp_path, monkeypatch, capsys, argv, named
    ):
        trace = str(traced_run["jsonl"])
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["report", *(trace if arg == "T" else arg for arg in argv)])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestProfileCommand:
    def test_profile_runs_benchmark(self, tmp_path, capsys):
        chrome = tmp_path / "profile.trace.json"
        out = tmp_path / "profile.json"
        code = main(["profile", "--benchmark", "ncf-movielens",
                     "--compressor", "topk", "--workers", "2",
                     "--epochs", "1", "--chrome", str(chrome),
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Compressor kernel latency" in text
        assert "topk" in text
        assert "Memory high-water marks" in text
        assert "tracemalloc_peak_bytes" in text
        assert json.loads(chrome.read_text())["traceEvents"]
        # The profile records the cell it ran.
        meta = json.loads(out.read_text())["meta"]
        assert Cell.from_dict(meta["cell"]) == Cell(
            "ncf-movielens", "topk", workers=2, epochs=1
        )

    def test_profile_requires_a_benchmark(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile"])
        assert exit_info.value.code == 2
        assert "--benchmark" in capsys.readouterr().err

    def test_profile_unknown_benchmark(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["profile", "--benchmark", "alexnet"])


class TestSharedWireStatsFormat:
    def test_compress_and_train_print_identical_field_names(self, capsys,
                                                            tmp_path):
        assert main(["compress", "--method", "topk", "--elements", "4096",
                     "--param", "ratio=0.1"]) == 0
        compress_out = capsys.readouterr().out
        assert main(TRAIN_ARGS + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        train_out = capsys.readouterr().out
        for name, _ in wire_stats_fields(1, 1, 1, 1):
            assert name in compress_out
            assert name in train_out

    def test_untraced_train_output_unchanged(self, capsys):
        assert main(TRAIN_ARGS) == 0
        out = capsys.readouterr().out
        assert "Best Hit Rate" in out
        assert "raw size" not in out  # wire stats only appear when tracing


@pytest.fixture(scope="module")
def both_backends(tmp_path_factory):
    """The TRAIN_ARGS cell traced on each backend: train's and report's
    stdout and the trace's events per backend."""
    root = tmp_path_factory.mktemp("backends")
    runs = {}
    for backend, argv in (("sim", TRAIN_ARGS), ("parallel", PARALLEL_ARGS)):
        trace = str(root / f"{backend}.jsonl")
        runs[backend] = (_stdout(argv + ["--trace", trace]),
                         _stdout(["report", trace]), read_events(trace))
    return runs


class TestOneRunPathForBothBackends:
    """The cell ends bitwise the same on both backends, so train and
    report must print the same run."""

    @staticmethod
    def _fields(out: str) -> dict[str, str]:
        return {name.strip(): value.strip()
                for name, value in (line.split(":", 1)
                                    for line in out.splitlines()
                                    if ":" in line)}

    def test_train_prints_the_same_run(self, both_backends):
        sim = self._fields(both_backends["sim"][0])
        parallel = self._fields(both_backends["parallel"][0])
        assert parallel["backend"] == "parallel (2 processes)"
        # Kernel time is measured wall time, so it differs run to run.
        for name in ("final loss", "best Best Hit Rate",
                     "bytes/worker/iter", "raw size", "wire size",
                     "compression", "framing overhead"):
            assert parallel[name] == sim[name], name

    @pytest.mark.parametrize("quantity, value", [
        ("iterations", "18"),
        ("bytes on wire / worker", "3,402"),
        ("collective ops", "180"),
    ])
    def test_report_reads_the_same_totals(self, both_backends, quantity,
                                          value):
        for backend, (_, report, _) in both_backends.items():
            match = re.search(rf"^{re.escape(quantity)}\s+(\S+)", report,
                              re.MULTILINE)
            assert match and match.group(1) == value, (backend, report)

    def test_simulated_time_counts_once_per_step(self, both_backends):
        """Every rank charges the collective on its own span; a parallel
        trace counts the lead rank's, as the simulator charges it once."""
        sim, parallel = (TraceSummary.from_events(both_backends[b][2])
                         for b in ("sim", "parallel"))
        assert {name: stats.sim_seconds
                for name, stats in parallel.phases.items()} == \
            {name: stats.sim_seconds for name, stats in sim.phases.items()}
        assert f"{sim.total_sim_seconds:.6f}" == "0.023405"
        assert parallel.total_sim_seconds == sim.total_sim_seconds
        for _, report, _ in both_backends.values():
            assert re.search(r"^simulated seconds \(leaf phases\)\s+"
                             r"0\.023405\s*$", report, re.MULTILINE), report

    def test_trace_metrics_fold_to_the_simulators(self, both_backends):
        """Every instrument the parallel trace carries — folded over its
        ranks — reads the simulator's value (a histogram its count), so
        a per-rank metric fold_ranks does not sum shows here."""
        def instruments(events):
            return {
                (e["name"], tuple(sorted(e["labels"].items()))):
                    (e["type"], e.get("count", e.get("value")))
                for e in events if e["type"] in ("counter", "gauge",
                                                 "histogram")
            }

        sim = instruments(both_backends["sim"][2])
        parallel = {key: value for key, value
                    in instruments(both_backends["parallel"][2]).items()
                    # The shared-memory arena exists on one backend only.
                    if not key[0].startswith("arena_")}
        assert parallel.keys() == sim.keys()
        # Measured wall time differs run to run.
        measured = ("train_measured_compression_seconds_total", ())
        for key, value in sim.items():
            if key != measured:
                assert parallel[key] == value, key

    def test_parallel_profile_has_the_kernel_table(self):
        out = _stdout(["profile", "--benchmark", "ncf-movielens",
                       "--compressor", "topk", "--backend", "parallel",
                       "--workers", "2", "--epochs", "1"])
        assert "Compressor kernel latency" in out
        assert "rank1/tracemalloc_peak_bytes" in out
        assert re.search(r"^iterations\s+18\s*$", out, re.MULTILINE)


def test_sim_total_matches_the_run_under_a_crash(tmp_path):
    """Rank 0 crashes at iteration 2, so the simulator charges the rest
    of the run on rank 1's spans; every one still counts."""
    trace = tmp_path / "crash.jsonl"
    _stdout(TRAIN_ARGS + ["--faults", "crash@2:rank=0",
                          "--trace", str(trace)])
    summary = TraceSummary.from_events(read_events(trace))
    run_total = sum(summary.counter(f"train_sim_{part}_seconds_total")
                    for part in ("compute", "compression", "comm"))
    assert run_total > 0
    assert summary.total_sim_seconds == pytest.approx(run_total, rel=1e-12)
