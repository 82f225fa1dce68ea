"""Paper-scale overlap benchmark (`repro bench overlap`)."""

import json

import pytest

from repro.bench.overlap_bench import (
    NETWORK_PROFILES,
    TARGET_SPEEDUP,
    OverlapBenchCell,
    overlap_failures,
    parse_network_profile,
    run_overlap_bench,
    simulate_overlap_cell,
)
from repro.bench.result import write_result
from repro.bench.suite import get_benchmark
from repro.comm.network import Transport


@pytest.fixture(scope="module")
def default_result():
    return run_overlap_bench()


class TestNetworkProfiles:
    def test_known_labels_resolve(self):
        for label, (gbps, transport) in NETWORK_PROFILES.items():
            network = parse_network_profile(label)
            assert network.transport is transport
            assert network.bandwidth_gbps == gbps
        # Higher nominal bandwidth moves bytes faster.
        assert parse_network_profile("1gbps-tcp").transfer_time(
            10**8
        ) > parse_network_profile("10gbps-tcp").transfer_time(10**8)

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown network profile"):
            parse_network_profile("56k-modem")

    def test_rdma_profiles_use_rdma_transport(self):
        assert (parse_network_profile("25gbps-rdma").transport
                is Transport.RDMA)


class TestSimulateCell:
    def test_sequential_is_additive_sum(self):
        cell = simulate_overlap_cell(
            get_benchmark("resnet20-cifar10"), "topk", "10gbps-tcp"
        )
        assert cell.sequential_seconds == (
            cell.compute_seconds + cell.kernel_seconds + cell.comm_seconds
        )

    def test_overlapped_never_beats_critical_path_bounds(self):
        cell = simulate_overlap_cell(
            get_benchmark("resnet20-cifar10"), "none", "1gbps-tcp"
        )
        # Makespan sits between the slowest single resource and the sum.
        assert cell.overlapped_seconds >= cell.compute_seconds
        assert cell.overlapped_seconds >= cell.comm_seconds
        assert cell.overlapped_seconds <= cell.sequential_seconds

    def test_hidden_and_exposed_partition_comm(self):
        cell = simulate_overlap_cell(
            get_benchmark("resnet20-cifar10"), "none", "1gbps-tcp"
        )
        assert (cell.hidden_comm_seconds + cell.exposed_comm_seconds
                == pytest.approx(cell.comm_seconds))

    def test_single_bucket_plan_cannot_overlap_compression(self):
        # One giant bucket is only ready when backward finishes; the
        # collective starts after compute ends, so nothing hides.
        cell = simulate_overlap_cell(
            get_benchmark("resnet20-cifar10"), "none", "1gbps-tcp",
            fusion_mb=1024.0,
        )
        assert cell.n_buckets == 1
        assert cell.hidden_comm_seconds == 0.0

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            simulate_overlap_cell(
                get_benchmark("resnet20-cifar10"), "none", "1gbps-tcp",
                n_workers=0,
            )


def _fractions(result):
    return {
        name: metric.value for name, metric in result.metrics.items()
        if name.endswith("/overlap_fraction")
    }


class TestAcceptance:
    def test_default_grid_passes_check(self, default_result):
        assert default_result.failures == []

    def test_best_speedup_meets_target(self, default_result):
        assert default_result.value("best_speedup") >= TARGET_SPEEDUP

    def test_bandwidth_bound_cell_carries_the_target(self, default_result):
        assert (default_result.value("none/1gbps-tcp/speedup")
                >= TARGET_SPEEDUP)

    def test_every_cell_hides_some_comm(self, default_result):
        fractions = _fractions(default_result)
        assert len(fractions) == 4
        for name, fraction in fractions.items():
            assert fraction > 0.0, name

    def test_check_reports_failures_on_bad_grid(self):
        bad = [OverlapBenchCell(
            compressor="none", network="1gbps-tcp", n_buckets=1,
            compute_seconds=1.0, kernel_seconds=0.0, comm_seconds=1.0,
            sequential_seconds=2.0, overlapped_seconds=2.0,
            hidden_comm_seconds=0.0, exposed_comm_seconds=1.0,
        )]
        failures = overlap_failures(bad)
        assert any("overlap_fraction" in f for f in failures)
        assert any("below" in f for f in failures)
        assert overlap_failures([]) == ["no cells were benchmarked"]


class TestSerialization:
    def test_metrics_carry_each_cells_derived_values(self, default_result):
        cell = simulate_overlap_cell(
            get_benchmark("resnet20-cifar10"), "topk", "10gbps-tcp"
        )
        assert default_result.value("topk/10gbps-tcp/speedup") == \
            cell.speedup
        assert default_result.value("topk/10gbps-tcp/overlap_fraction") \
            == cell.overlap_fraction
        assert default_result.value("topk/10gbps-tcp/n_buckets") == \
            cell.n_buckets

    def test_write_result_round_trips(self, default_result, tmp_path):
        path = tmp_path / "BENCH_overlap.json"
        write_result(path, default_result)
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == default_result.benchmark
        assert (payload["metrics"]["best_speedup"]["value"]
                == default_result.value("best_speedup"))
        assert len([
            name for name in payload["metrics"]
            if name.endswith("/overlap_fraction")
        ]) == len(_fractions(default_result))

    def test_format_lists_every_cell(self, default_result):
        text = default_result.text
        for name in _fractions(default_result):
            compressor, network, _ = name.split("/")
            assert compressor in text
            assert network in text
        assert "best speedup" in text
