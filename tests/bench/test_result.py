"""The one `repro bench` record: Metric, RunResult and its JSON."""

import json

import pytest

from repro.bench.overlap_bench import run_overlap_bench
from repro.bench.result import (
    SCHEMA_VERSION, Metric, RunResult, read_result, write_result,
)


class TestMetric:
    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            Metric("x", 1.0, "seconds", "sideways")

    def test_rejects_negative_band(self):
        with pytest.raises(ValueError, match="tolerance"):
            Metric("x", 1.0, "seconds", "lower", tolerance=-0.1)

    def test_round_trips(self):
        metric = Metric("t", 2.5, "seconds", "lower", tolerance=0.05,
                        floor=1e-6)
        assert Metric.from_dict("t", metric.to_dict()) == metric


class TestRunResultSchema:
    @pytest.fixture(scope="class")
    def result(self):
        return run_overlap_bench()

    def test_metadata_stamp(self, result):
        assert result.meta["metadata_version"] == 1
        assert "numpy_version" in result.meta
        assert "git_sha" in result.meta
        assert "platform" in result.meta

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "run.json"
        write_result(path, result)
        loaded = read_result(path)
        assert loaded.suite == result.suite
        assert loaded.benchmark == result.benchmark
        assert loaded.schema_version == SCHEMA_VERSION == 2
        assert set(loaded.metrics) == set(result.metrics)
        for name, metric in result.metrics.items():
            assert loaded.metrics[name] == metric
        assert loaded.text == result.text
        assert loaded.failures == result.failures
        # JSON has no tuples, so params compare via their JSON image
        assert loaded.params == json.loads(json.dumps(result.params))

    def test_text_replaces_raw(self, result):
        payload = result.to_dict()
        assert "raw" not in payload
        assert payload["text"].startswith("overlap benchmark")

    def test_rejects_other_schema_versions(self, result):
        payload = result.to_dict()
        for version in (SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
            payload["schema_version"] = version
            with pytest.raises(ValueError, match="schema_version"):
                RunResult.from_dict(payload)

    def test_rejects_non_result_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="suite"):
            read_result(path)
        path.write_text("not json at all")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_result(path)

    def test_unknown_metric_lookup(self, result):
        with pytest.raises(KeyError, match="no metric"):
            result.metric("nope")
