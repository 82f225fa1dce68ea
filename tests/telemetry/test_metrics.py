"""Counters, gauges, histograms and the registry."""

import pytest

from repro.telemetry import (
    Counter, Gauge, Histogram, MetricsRegistry, NULL_REGISTRY,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("bytes_total")
        counter.inc(10)
        counter.inc(5)
        assert counter.value == 15.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)

    def test_set_is_write_through(self):
        counter = Counter("x")
        counter.inc(3)
        counter.set(100.0)
        assert counter.value == 100.0

    def test_reset(self):
        counter = Counter("x")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0.0


class TestGauge:
    def test_set_replaces(self):
        gauge = Gauge("norm")
        gauge.set(3.5)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 10.0
        assert hist.mean == 2.5
        assert hist.min == 1.0
        assert hist.max == 4.0

    def test_percentiles_interpolate(self):
        hist = Histogram("latency")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(90) == pytest.approx(90.1)

    def test_percentile_insensitive_to_insertion_order(self):
        forward, backward = Histogram("a"), Histogram("b")
        for value in range(10):
            forward.observe(float(value))
            backward.observe(float(9 - value))
        assert forward.percentile(75) == backward.percentile(75)

    def test_empty_histogram_is_all_zero(self):
        hist = Histogram("latency")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError, match="percentile"):
            Histogram("x").percentile(101)


class TestRegistry:
    def test_get_or_create_is_keyed_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("bytes", labels={"op": "allreduce"})
        b = registry.counter("bytes", labels={"op": "allreduce"})
        c = registry.counter("bytes", labels={"op": "allgather"})
        assert a is b
        assert a is not c
        assert len(registry) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", labels={"a": "1", "b": "2"})
        b = registry.counter("x", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_value_reads_scalar_or_default(self):
        registry = MetricsRegistry()
        registry.counter("bytes").inc(12)
        registry.histogram("lat").observe(1.0)
        assert registry.value("bytes") == 12.0
        assert registry.value("missing", default=-1.0) == -1.0
        assert registry.value("lat", default=-1.0) == -1.0  # not a scalar

    def test_instruments_filter_by_name(self):
        registry = MetricsRegistry()
        registry.counter("bytes", labels={"op": "a"})
        registry.counter("bytes", labels={"op": "b"})
        registry.gauge("other")
        assert len(registry.instruments("bytes")) == 2
        assert len(registry.instruments()) == 3

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        registry.counter("bytes").inc(5)
        registry.histogram("lat").observe(1.0)
        registry.reset()
        assert len(registry) == 2
        assert registry.value("bytes") == 0.0
        assert registry.histogram("lat").count == 0


class TestSnapshot:
    """Cross-process snapshot/replay (`snapshot_registry`/`load_snapshot`)."""

    def _populated(self):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("bytes", {"op": "send"}, unit="B").inc(100)
        registry.gauge("ratio").set(0.25)
        for value in (1.0, 2.0, 7.0):
            registry.histogram("lat", unit="s").observe(value)
        return registry

    def test_round_trip_is_lossless(self):
        import pickle

        from repro.telemetry.metrics import (
            MetricsRegistry,
            load_snapshot,
            snapshot_registry,
        )

        source = self._populated()
        # The snapshot must survive the worker result queue (pickling).
        snapshot = pickle.loads(pickle.dumps(snapshot_registry(source)))
        target = MetricsRegistry()
        load_snapshot(target, snapshot)
        assert target.value("bytes", {"op": "send"}) == 100.0
        assert target.value("ratio") == 0.25
        histogram = target.histogram("lat", unit="s")
        assert histogram.count == 3
        assert histogram.percentile(100.0) == 7.0

    def test_extra_labels_keep_ranks_distinguishable(self):
        from repro.telemetry.metrics import (
            MetricsRegistry,
            load_snapshot,
            snapshot_registry,
        )

        merged = MetricsRegistry()
        for rank in range(2):
            worker = MetricsRegistry()
            worker.counter("steps").inc(5 + rank)
            load_snapshot(
                merged, snapshot_registry(worker),
                extra_labels={"rank": str(rank)},
            )
        assert merged.value("steps", {"rank": "0"}) == 5.0
        assert merged.value("steps", {"rank": "1"}) == 6.0

    def test_counters_accumulate_across_loads(self):
        from repro.telemetry.metrics import (
            MetricsRegistry,
            load_snapshot,
            snapshot_registry,
        )

        worker = MetricsRegistry()
        worker.counter("steps").inc(3)
        worker.histogram("lat").observe(1.0)
        merged = MetricsRegistry()
        for _ in range(2):
            load_snapshot(merged, snapshot_registry(worker))
        assert merged.value("steps") == 6.0
        assert merged.histogram("lat").count == 2

    def test_unknown_kind_is_rejected(self):
        from repro.telemetry.metrics import MetricsRegistry, load_snapshot

        with pytest.raises(ValueError, match="unknown kind"):
            load_snapshot(
                MetricsRegistry(),
                [{"name": "x", "kind": "summary", "value": 1.0}],
            )


class TestFoldRanks:
    """A parallel run's rank-labelled registry read as the run's totals."""

    def _merged(self):
        merged = MetricsRegistry()
        for rank in (1, 0):
            labels = {"rank": str(rank)}
            merged.counter("comm_ops_total", labels).inc(180)
            merged.counter("compress_raw_bytes_total", labels).inc(100)
            merged.histogram("compress_kernel_seconds",
                             {"compressor": "topk", **labels}).observe(rank)
        merged.counter("recoveries_total").inc(1)
        return merged

    def test_per_rank_work_sums_and_the_rest_is_read_once(self):
        from repro.telemetry.metrics import fold_ranks

        folded = fold_ranks(self._merged())
        assert folded.value("comm_ops_total") == 180.0
        assert folded.value("compress_raw_bytes_total") == 200.0
        assert folded.value("recoveries_total") == 1.0
        (kernels,) = folded.instruments("compress_kernel_seconds")
        assert dict(kernels.labels) == {"compressor": "topk"}
        assert kernels.count == 2

    def test_the_lowest_rank_speaks_for_the_cohort(self):
        from repro.telemetry.metrics import fold_ranks

        merged = MetricsRegistry()
        merged.counter("train_iterations_total", {"rank": "3"}).inc(9)
        merged.counter("train_iterations_total", {"rank": "1"}).inc(7)
        assert fold_ranks(merged).value("train_iterations_total") == 7.0

    def test_a_registry_without_ranks_is_returned_as_is(self):
        from repro.telemetry.metrics import fold_ranks

        registry = MetricsRegistry()
        registry.counter("comm_ops_total").inc(3)
        assert fold_ranks(registry) is registry


class TestNullRegistry:
    def test_all_instruments_shared_and_inert(self):
        a = NULL_REGISTRY.counter("x")
        b = NULL_REGISTRY.histogram("y")
        assert a is b
        a.inc(10)
        b.observe(1.0)
        assert a.value == 0.0
        assert b.count == 0
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.value("x", default=4.0) == 4.0
