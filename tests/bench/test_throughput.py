"""Paper-scale throughput simulation: footprints and headline shapes."""

from types import SimpleNamespace

import pytest

from repro.bench.suite import get_benchmark
from repro.bench.throughput import (
    IterationCost,
    WireFootprint,
    measure_wire_footprint,
    relative_throughput,
    relative_volume,
    run_parallel_bench,
    run_throughput_bench,
    simulate_iteration,
)
from repro.comm.network import ethernet
from repro.core import create


class TestWireFootprint:
    def test_affine_model(self):
        footprint = WireFootprint(fixed_bytes=100, bytes_per_element=0.5)
        assert footprint.bytes_for(1000) == pytest.approx(600)

    def test_baseline_measures_four_bytes_per_element(self):
        footprint = measure_wire_footprint(create("none"))
        assert footprint.bytes_per_element == pytest.approx(4.0, rel=0.01)

    def test_signsgd_measures_one_bit_per_element(self):
        footprint = measure_wire_footprint(create("signsgd"))
        assert footprint.bytes_per_element == pytest.approx(1 / 8, rel=0.05)

    def test_topk_footprint_tracks_ratio(self):
        footprint = measure_wire_footprint(create("topk", ratio=0.01))
        # ~8 bytes per selected element over 1% of elements.
        assert footprint.bytes_per_element == pytest.approx(0.08, rel=0.3)

    def test_powersgd_uses_sqrt_model(self):
        footprint = measure_wire_footprint(create("powersgd"))
        assert footprint.bytes_per_element == 0.0
        assert footprint.bytes_per_sqrt_element > 0


class TestSimulateIteration:
    def test_cost_components_positive(self):
        spec = get_benchmark("vgg16-cifar10")
        cost = simulate_iteration(spec, "topk")
        assert cost.compute_seconds > 0
        assert cost.comm_seconds > 0
        assert cost.kernel_seconds > 0
        assert cost.total_seconds == pytest.approx(
            cost.compute_seconds + cost.comm_seconds + cost.kernel_seconds
        )

    def test_baseline_has_no_kernel_cost(self):
        spec = get_benchmark("vgg16-cifar10")
        assert simulate_iteration(spec, "none").kernel_seconds == 0.0

    def test_relative_throughput_of_baseline_is_one(self):
        spec = get_benchmark("resnet20-cifar10")
        assert relative_throughput(spec, "none") == pytest.approx(1.0)

    def test_rejects_bad_worker_count(self):
        spec = get_benchmark("resnet20-cifar10")
        with pytest.raises(ValueError, match="n_workers"):
            simulate_iteration(spec, "topk", n_workers=0)


class TestHeadlineShapes:
    """The paper's qualitative findings, asserted."""

    def test_compute_bound_models_never_beat_baseline(self):
        # Fig. 6a/6b/6f: ResNet-20, DenseNet, U-Net at 10 Gbps.
        for key in ("resnet20-cifar10", "densenet40-cifar10", "unet-dagm"):
            spec = get_benchmark(key)
            for name in ("topk", "qsgd", "efsignsgd", "randomk", "eightbit"):
                assert relative_throughput(spec, name) < 1.0, (key, name)

    def test_communication_bound_models_show_speedups(self):
        # Fig. 6d/6e: NCF and LSTM show 1.5-4.5x+ for good compressors.
        for key in ("ncf-movielens", "lstm-ptb"):
            spec = get_benchmark(key)
            assert relative_throughput(spec, "topk") > 1.5, key
            assert relative_throughput(spec, "efsignsgd") > 1.5, key

    def test_fig1_ordering_randk_beats_baseline_beats_8bit(self):
        spec = get_benchmark("vgg16-cifar10")
        network = ethernet(25.0)
        randk = relative_throughput(
            spec, "randomk", network=network,
            compressor_params={"ratio": 0.01},
        )
        eightbit = relative_throughput(spec, "eightbit", network=network)
        assert randk > 1.0 > eightbit

    def test_fig10_slow_network_amplifies_compression_wins(self):
        # Fig. 10: at 1 Gbps the network bottleneck dominates and the
        # high-ratio compressors post multi-x speedups over the ResNet-50
        # baseline (the paper's x-axis stretches to ~5), far above their
        # 10 Gbps standing; low-ratio quantizers stay near or below 1.
        spec = get_benchmark("resnet50-imagenet")
        fast = ethernet(10.0)
        slow = ethernet(1.0)
        for name in ("topk", "randomk", "signsgd", "dgc", "adaptive"):
            at_fast = relative_throughput(spec, name, network=fast)
            at_slow = relative_throughput(spec, name, network=slow)
            assert at_slow > 2.0, name
            assert at_slow > 2 * at_fast, name
        for name in ("qsgd", "eightbit"):
            assert relative_throughput(spec, name, network=slow) <= 1.1, name

    def test_sec5a_bandwidth_gain_is_mild_for_compressed(self):
        # 25 vs 10 Gbps: compressed methods gain little (paper: ~1.3%).
        spec = get_benchmark("resnet20-cifar10")
        t10 = simulate_iteration(spec, "topk", network=ethernet(10.0))
        t25 = simulate_iteration(spec, "topk", network=ethernet(25.0))
        gain = t10.total_seconds / t25.total_seconds
        assert gain < 1.15

    def test_rdma_beats_tcp_for_every_method(self):
        from repro.comm.backends import OPENMPI_RDMA, OPENMPI_TCP
        from repro.comm.network import Transport

        spec = get_benchmark("resnet9-cifar10")
        for name in ("none", "topk", "qsgd", "powersgd"):
            tcp = simulate_iteration(
                spec, name, network=ethernet(10.0, Transport.TCP),
                backend=OPENMPI_TCP,
            )
            rdma = simulate_iteration(
                spec, name, network=ethernet(10.0, Transport.RDMA),
                backend=OPENMPI_RDMA,
            )
            assert rdma.total_seconds < tcp.total_seconds, name


class TestRelativeVolume:
    def test_baseline_volume_is_one(self):
        spec = get_benchmark("lstm-ptb")
        assert relative_volume(spec, "none") == pytest.approx(1.0)

    def test_sparsifier_volume_tracks_ratio(self):
        spec = get_benchmark("lstm-ptb")
        volume = relative_volume(spec, "topk")
        assert 0.01 < volume < 0.05  # 1% ratio, 8B/element vs 4B

    def test_quantizer_volume_near_bit_fraction(self):
        spec = get_benchmark("lstm-ptb")
        assert relative_volume(spec, "signsgd") == pytest.approx(
            1 / 32, rel=0.2
        )
        assert relative_volume(spec, "eightbit") == pytest.approx(
            0.25, rel=0.1
        )


class TestThroughputBench:
    def test_deterministic_metrics(self):
        a = run_throughput_bench()
        b = run_throughput_bench()
        # closed-form model: identical runs produce identical values
        for name in a.metrics:
            assert a.value(name) == b.value(name)
        assert a.value("topk/bytes_per_worker") < \
            a.value("none/bytes_per_worker")
        assert not a.failures


class TestParallelBench:
    """The measured leg, on a stubbed ``run_parallel``."""

    @staticmethod
    def _stub(monkeypatch, digests):
        """``digests`` of the two timed legs; returns the cells run."""
        # The untimed warm-up (the fused cell, one epoch) comes first.
        legs = iter([digests[-1], *digests])
        cells = []

        def fake_run_parallel(config):
            cells.append(config.cell)
            digest = next(legs)
            return SimpleNamespace(
                wall_seconds=(
                    9.0 if config.cell.epochs == 1
                    else 2.0 if config.cell.fusion_mb == 0 else 1.0
                ),
                digests={0: digest, 1: digest},
            )

        monkeypatch.setattr("repro.comm.parallel.run_parallel",
                            fake_run_parallel)
        return cells

    def test_equal_digests_pass(self, monkeypatch):
        cells = self._stub(monkeypatch, ["750dd1dd" * 8] * 2)
        result = run_parallel_bench()
        assert result.suite == "throughput"
        assert result.failures == []
        # The warm-up, which starts the rank server, is not timed.
        assert [(c.fusion_mb, c.epochs) for c in cells] == [
            (64.0, 1), (0.0, 4), (64.0, 4)]
        assert result.value("parallel/fusion_wall_speedup") == 2.0
        assert "750dd1dd" in result.text

    def test_digest_mismatch_is_a_failure(self, monkeypatch):
        self._stub(monkeypatch, ["aaaa" * 16, "bbbb" * 16])
        result = run_parallel_bench()
        assert len(result.failures) == 1
        assert "different models" in result.failures[0]
        assert "bitwise" in result.failures[0]

    def test_mismatch_fails_the_cli_check(self, monkeypatch, tmp_path,
                                          capsys):
        from repro.cli import main

        self._stub(monkeypatch, ["aaaa" * 16, "bbbb" * 16])
        code = main(["bench", "throughput", "--parallel",
                     "--out", "-", "--history",
                     str(tmp_path / "h.jsonl"), "--check"])
        assert code == 1
        assert "THROUGHPUT CHECK FAILED" in capsys.readouterr().out
