"""JSONL, Chrome trace_event and Prometheus exporters."""

import json

import pytest

from repro.telemetry import (
    MetricsRegistry, TraceSummary, Tracer, chrome_trace, prometheus_text,
    read_events, write_chrome_trace, write_jsonl,
)
from repro.telemetry.summary import UNATTRIBUTED


def _traced_run():
    """A tiny two-iteration trace with metrics, for every exporter test."""
    tracer = Tracer()
    metrics = tracer.metrics
    for iteration in range(2):
        with tracer.span("iteration", iteration=iteration):
            with tracer.span("compute", rank=0):
                pass
            with tracer.span("collective", op="allreduce") as span:
                span.add_sim(0.5)
                span.set(bytes_per_worker=1024)
            metrics.counter("comm_bytes_per_worker_total").inc(1024)
    metrics.histogram(
        "compress_kernel_seconds", labels={"compressor": "topk"}
    ).observe(0.002)
    metrics.gauge("lr").set(0.1)
    return tracer, metrics


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer, metrics = _traced_run()
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(path, tracer, metrics)
        events = read_events(path)
        assert len(events) == written
        # every line is standalone JSON
        for line in path.read_text().splitlines():
            if line.strip():
                json.loads(line)
        spans = [e for e in events if e["type"] == "span"]
        assert len(spans) == len(tracer.spans)
        counters = {e["name"]: e["value"] for e in events
                    if e["type"] == "counter"}
        assert counters["comm_bytes_per_worker_total"] == 2048.0
        hists = [e for e in events if e["type"] == "histogram"]
        assert hists and hists[0]["count"] == 1

    def test_summary_round_trips_through_jsonl(self, tmp_path):
        tracer, metrics = _traced_run()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer, metrics)
        summary = TraceSummary.from_events(read_events(path))
        assert summary.iterations == 2
        assert summary.phases["collective"].sim_seconds == 1.0
        assert summary.counter("comm_bytes_per_worker_total") == 2048.0


class TestIterationCount:
    """`repro report` and `repro profile` count each iteration once."""

    @staticmethod
    def _iteration(**attrs):
        return {"type": "span", "name": "iteration", "dur": 0.1,
                "attrs": attrs}

    def test_a_merged_parallel_trace_counts_one_rank(self):
        events = [self._iteration(iteration=i, rank=rank)
                  for rank in (0, 1) for i in range(3)]
        summary = TraceSummary.from_events(events)
        assert summary.iterations == 3
        # Span and wall sums stay summed over the ranks.
        assert summary.phases[UNATTRIBUTED].spans == 6
        assert summary.step_wall_seconds == pytest.approx(0.6)

    def test_a_degraded_cohort_counts_its_lowest_rank(self):
        events = [self._iteration(iteration=i, rank=1) for i in range(4)]
        events += [self._iteration(iteration=i, rank=2) for i in range(4)]
        assert TraceSummary.from_events(events).iterations == 4

    def test_simulator_spans_carry_no_rank_and_all_count(self):
        events = [self._iteration(iteration=0), self._iteration(iteration=0)]
        assert TraceSummary.from_events(events).iterations == 2


class TestChromeTrace:
    def test_valid_trace_event_json(self, tmp_path):
        tracer, _ = _traced_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer.spans)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["cat"] == "repro"
            assert "pid" in event and "tid" in event

    def test_microsecond_conversion_and_rank_track(self):
        tracer = Tracer()
        with tracer.span("compute", rank=3) as span:
            pass
        span.ts, span.dur = 1.5, 0.25  # seconds
        document = chrome_trace(tracer.spans)
        event = document["traceEvents"][0]
        assert event["ts"] == 1.5e6
        assert event["dur"] == 0.25e6
        assert event["tid"] == 3

    def test_accepts_jsonl_events_too(self, tmp_path):
        tracer, metrics = _traced_run()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer, metrics)
        document = chrome_trace(read_events(path))
        # metric snapshot events are filtered out, spans survive
        assert len(document["traceEvents"]) == len(tracer.spans)


class TestEmptyRun:
    """Exporters must emit valid (if vacuous) output for an empty run."""

    def test_jsonl_empty_run(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        written = write_jsonl(path, Tracer(), MetricsRegistry())
        events = read_events(path)
        assert len(events) == written
        # nothing but the run-metadata header survives an empty run
        assert all(event["type"] == "meta" for event in events)

    def test_chrome_trace_empty_run(self, tmp_path):
        path = tmp_path / "empty.json"
        write_chrome_trace(path, Tracer().spans)
        document = json.loads(path.read_text())
        assert document["traceEvents"] == []
        assert document["displayTimeUnit"]

    def test_prometheus_empty_registry(self):
        assert prometheus_text(MetricsRegistry()).strip() == ""

    def test_summary_of_no_events(self):
        summary = TraceSummary.from_events([])
        assert summary.iterations == 0
        assert summary.format()  # renders without dividing by zero


class TestChromeEdgeCases:
    def test_zero_duration_span_stays_valid(self):
        tracer = Tracer()
        with tracer.span("compute"):
            pass
        span = tracer.spans[0]
        span.dur = 0.0
        document = chrome_trace(tracer.spans)
        event = document["traceEvents"][0]
        # complete events with dur 0 are legal trace_event JSON; the
        # value must stay a number, not None/NaN
        assert event["ph"] == "X"
        assert event["dur"] == 0.0
        json.dumps(document)  # serializable end to end


class TestPrometheus:
    def test_exposition_shape(self):
        _, metrics = _traced_run()
        text = prometheus_text(metrics)
        assert "# TYPE comm_bytes_per_worker_total counter" in text
        assert "comm_bytes_per_worker_total 2048" in text
        assert "# TYPE lr gauge" in text
        # histograms render as summaries with quantile labels
        assert "# TYPE compress_kernel_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert 'compressor="topk"' in text
        assert "compress_kernel_seconds_count" in text
        assert "compress_kernel_seconds_sum" in text

    def test_label_values_escaped(self):
        metrics = MetricsRegistry()
        metrics.counter("x", labels={"tensor": 'we"ird\\name'}).inc(1)
        text = prometheus_text(metrics)
        assert 'tensor="we\\"ird\\\\name"' in text

    def test_newline_in_label_value_escaped(self):
        metrics = MetricsRegistry()
        metrics.counter("x", labels={"tensor": "two\nlines"}).inc(1)
        text = prometheus_text(metrics)
        assert 'tensor="two\\nlines"' in text
        # a raw newline inside a label would split the exposition line
        for line in text.splitlines():
            assert line.startswith("#") or line.count('"') % 2 == 0
