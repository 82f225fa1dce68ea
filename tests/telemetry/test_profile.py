"""The one trace reader: attribution, clocks, kernels, memory marks.

`TraceSummary` is what `repro report` and `repro profile` both print;
`repro.telemetry.profile` adds the folded stacks, the JSON writer and
the memory-watching tracer.
"""

import json

import pytest

from repro.bench.runner import build_trainer
from repro.bench.suite import get_benchmark
from repro.telemetry import (
    ProfilingTracer, TraceSummary, Tracer, folded_stacks, read_events,
    telemetry_events, write_folded, write_jsonl,
)
from repro.telemetry.profile import write_profile_json
from repro.telemetry.summary import UNATTRIBUTED


def synthetic_tracer():
    """Two iterations with known phase durations (hand-set clocks)."""
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("iteration") as iteration:
            with tracer.span("compute") as compute:
                pass
            with tracer.span("compress") as compress:
                pass
            with tracer.span("collective") as collective:
                collective.add_sim(0.5)
        compute.dur = 0.030
        compress.dur = 0.010
        collective.dur = 0.020
        iteration.dur = 0.070  # 0.010 outside any child span
    return tracer


def summarize(tracer) -> TraceSummary:
    """What `repro profile` builds from a finished run's tracer."""
    memory = getattr(tracer, "memory_high_water", None)
    return TraceSummary.from_events(telemetry_events(tracer), memory)


def merged_parallel_events(ranks=(0, 1), iterations=2):
    """A merged parallel trace: every rank's spans carry its ``rank``
    and every rank charges the collective's simulated time itself."""
    events = []
    for rank in ranks:
        for i in range(iterations):
            root = f"r{rank}:{i}"
            events.append({"type": "span", "id": f"{root}c",
                           "parent": root, "name": "collective",
                           "dur": 0.02, "sim": 0.5, "attrs": {"rank": rank}})
            events.append({"type": "span", "id": root, "parent": None,
                           "name": "iteration", "dur": 0.05, "sim": 0.0,
                           "attrs": {"iteration": i, "rank": rank}})
    return events


@pytest.fixture(scope="module")
def trained_tracer():
    """A real traced training run (the acceptance-criterion fixture)."""
    tracer = ProfilingTracer()
    trainer, run = build_trainer(
        get_benchmark("ncf-movielens"), "topk", n_workers=2, tracer=tracer,
    )
    trainer.train(run.loader, epochs=1, eval_fn=run.eval_fn)
    tracer.finalize()
    return tracer


class TestAttribution:
    def test_exclusive_time_per_phase(self):
        summary = summarize(synthetic_tracer())
        assert summary.iterations == 2
        assert summary.step_wall_seconds == pytest.approx(0.140)
        assert summary.phases["compute"].wall_seconds == pytest.approx(0.060)
        assert summary.phases["compress"].wall_seconds == pytest.approx(0.020)
        assert summary.phases["collective"].wall_seconds == \
            pytest.approx(0.040)
        assert summary.phases["collective"].sim_seconds == pytest.approx(1.0)
        # step time outside any child span is attributed explicitly
        assert summary.phases[UNATTRIBUTED].wall_seconds == \
            pytest.approx(0.020)
        assert "iteration" not in summary.phases

    def test_attribution_sums_to_step_total(self):
        summary = summarize(synthetic_tracer())
        assert summary.attributed_wall_seconds == \
            pytest.approx(summary.step_wall_seconds)
        assert summary.attribution_error == pytest.approx(0.0)

    def test_real_run_attribution_within_one_percent(self, trained_tracer):
        """Acceptance criterion: phase attribution sums to total step
        time within 1% on a real traced training run."""
        summary = summarize(trained_tracer)
        assert summary.iterations > 0
        assert summary.step_wall_seconds > 0
        assert summary.attribution_error < 0.01
        for phase in ("compute", "compress", "collective", "decompress",
                      "aggregate", "apply_update"):
            assert phase in summary.phases, phase

    def test_real_run_kernel_percentiles(self, trained_tracer):
        summary = summarize(trained_tracer)
        assert "topk" in summary.kernels
        snap = summary.kernels["topk"]
        assert snap["count"] > 0
        assert 0 < snap["p50"] <= snap["p90"] <= snap["p99"]

    def test_empty_run(self):
        summary = TraceSummary.from_events([])
        assert summary.iterations == 0
        assert summary.step_wall_seconds == 0.0
        assert summary.attribution_error == 0.0
        assert summary.format()  # renders without dividing by zero

    def test_sim_fallback_without_iteration_sim(self):
        # plain runs charge sim on leaf spans only; the step's total is
        # the serialized sum of the phases
        summary = summarize(synthetic_tracer())
        assert summary.total_sim_seconds == pytest.approx(1.0)
        assert summary.phases[UNATTRIBUTED].sim_seconds == 0.0


class TestSimulatedTimeCountsOnce:
    def test_parallel_trace_counts_the_lead_ranks_spans(self):
        summary = TraceSummary.from_events(merged_parallel_events())
        assert summary.iterations == 2
        collective = summary.phases["collective"]
        # Wall time accrues on every rank; the modeled step once.
        assert collective.spans == 4
        assert collective.wall_seconds == pytest.approx(0.08)
        assert collective.sim_seconds == pytest.approx(1.0)
        assert summary.total_sim_seconds == pytest.approx(1.0)

    def test_a_degraded_cohort_counts_its_lowest_rank(self):
        summary = TraceSummary.from_events(merged_parallel_events((1, 2)))
        assert summary.phases["collective"].sim_seconds == pytest.approx(1.0)

    def test_simulator_spans_all_count_whatever_their_rank(self):
        # The simulator charges a phase on the first surviving rank's
        # span, which need not be rank 0's.
        events = [
            {"type": "span", "id": 1, "parent": 0, "name": "compute",
             "dur": 0.01, "sim": 0.25, "attrs": {"rank": 1}},
            {"type": "span", "id": 0, "parent": None, "name": "iteration",
             "dur": 0.02, "sim": 0.0, "attrs": {"iteration": 0}},
        ]
        summary = TraceSummary.from_events(events)
        assert summary.phases["compute"].sim_seconds == 0.25


class TestJsonlRoundTrip:
    def test_profile_survives_jsonl(self, tmp_path, trained_tracer):
        live = summarize(trained_tracer)
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, trained_tracer, trained_tracer.metrics)
        loaded = TraceSummary.from_events(read_events(path))
        assert loaded.iterations == live.iterations
        assert loaded.step_wall_seconds == \
            pytest.approx(live.step_wall_seconds)
        for name, stats in live.phases.items():
            assert loaded.phases[name].wall_seconds == \
                pytest.approx(stats.wall_seconds)
            assert loaded.phases[name].sim_seconds == \
                pytest.approx(stats.sim_seconds)
        for key in ("count", "p50", "p90", "p99"):
            assert loaded.kernels["topk"][key] == live.kernels["topk"][key]

    def test_profile_json_stamped(self, tmp_path):
        path = tmp_path / "profile.json"
        write_profile_json(path, summarize(synthetic_tracer()))
        payload = json.loads(path.read_text())
        assert payload["iterations"] == 2
        assert payload["attribution_error"] == pytest.approx(0.0)
        assert payload["sim_seconds"] == pytest.approx(1.0)
        assert payload["meta"]["metadata_version"] == 1
        assert "phases" in payload and "compute" in payload["phases"]
        assert payload["phases"][UNATTRIBUTED]["wall_seconds"] == \
            pytest.approx(0.020)


class TestFoldedStacks:
    def test_format_and_weights(self):
        lines = folded_stacks(synthetic_tracer().spans)
        stacks = dict(line.rsplit(" ", 1) for line in lines)
        # flamegraph.pl collapsed format: semicolon stacks, int µs
        assert set(stacks) == {
            "iteration", "iteration;compute", "iteration;compress",
            "iteration;collective",
        }
        for weight in stacks.values():
            assert weight == str(int(weight))
        assert int(stacks["iteration;compute"]) == 60000
        assert int(stacks["iteration"]) == 20000  # exclusive, not total

    def test_write_folded(self, tmp_path):
        path = tmp_path / "stacks.folded"
        count = write_folded(path, synthetic_tracer().spans)
        lines = path.read_text().splitlines()
        assert len(lines) == count == 4

    def test_accepts_jsonl_events(self, tmp_path):
        tracer = synthetic_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer, tracer.metrics)
        assert folded_stacks(read_events(path)) == \
            folded_stacks(tracer.spans)


class TestProfilingTracer:
    def test_memory_high_water_marks(self, trained_tracer):
        memory = trained_tracer.memory_high_water
        assert memory["tracemalloc_peak_bytes"] > 0
        assert memory["ru_maxrss_bytes"] > memory["tracemalloc_peak_bytes"]
        summary = summarize(trained_tracer)
        assert summary.memory == memory
        assert "Memory high-water marks" in summary.format()
        assert summary.to_dict()["memory"] == memory

    def test_parallel_memory_rows_carry_the_rank(self):
        memory = {"rank0/tracemalloc_peak_bytes": 1024,
                  "rank1/tracemalloc_peak_bytes": 2048}
        text = TraceSummary.from_events([], memory).format()
        assert "rank0/tracemalloc_peak_bytes  1,024" in text
        assert "rank1/tracemalloc_peak_bytes  2,048" in text

    def test_finalize_idempotent(self):
        tracer = ProfilingTracer()
        first = tracer.finalize()
        second = tracer.finalize()
        assert set(first) == set(second)
        assert first["tracemalloc_peak_bytes"] >= 0
