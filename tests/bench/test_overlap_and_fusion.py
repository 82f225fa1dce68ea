"""The §V-D overlap model and Horovod-style fusion in the simulator."""

import pytest

from repro.bench.perf import KernelCostModel
from repro.bench.suite import get_benchmark
from repro.bench.throughput import simulate_iteration
from repro.comm.network import ethernet


class TestOverlapSplit:
    def test_randomk_cost_is_mostly_overlappable(self):
        # tf.random.shuffle is data-independent host work (§V-D ii/iii).
        model = KernelCostModel()
        critical, overlappable = model.latency_breakdown("randomk", 1 << 22)
        assert overlappable > 5 * critical

    def test_eightbit_cost_is_mostly_critical(self):
        # find_bins depends on the data: it sits on the critical path.
        model = KernelCostModel()
        critical, overlappable = model.latency_breakdown("eightbit", 1 << 22)
        assert critical > overlappable

    def test_isolated_latency_is_the_sum(self):
        model = KernelCostModel()
        critical, overlappable = model.latency_breakdown("randomk", 1 << 20)
        assert model.latency_seconds("randomk", 1 << 20) == pytest.approx(
            critical + overlappable
        )

    def test_overlap_hides_shuffle_in_training_but_not_in_isolation(self):
        # In the training-loop simulation, Random-k's kernel charge is
        # below its isolated Fig. 8 latency; 8-bit's is not reduced.
        spec = get_benchmark("vgg16-cifar10")
        kernels = KernelCostModel()
        isolated_randomk = sum(
            kernels.latency_seconds("randomk", s)
            for s in spec.paper_tensor_sizes()
        )
        in_training = simulate_iteration(spec, "randomk").kernel_seconds
        assert in_training < isolated_randomk

        isolated_eightbit = sum(
            kernels.latency_seconds("eightbit", s)
            for s in spec.paper_tensor_sizes()
        )
        in_training_8bit = simulate_iteration(spec, "eightbit").kernel_seconds
        assert in_training_8bit >= 0.8 * isolated_eightbit


class TestFusion:
    def test_baseline_comm_insensitive_to_tensor_count(self):
        # Fused Allreduce: many-tensor DenseNet pays barely more than the
        # few-tensor LSTM per byte (both fit one fusion buffer).
        dense = get_benchmark("densenet40-cifar10")  # 158 tensors, 1.4 MB
        cost = simulate_iteration(dense, "none")
        # One fused buffer: comm should be a few ms, not 158 * per-op.
        per_op_floor = 158 * 80e-6
        assert cost.comm_seconds < per_op_floor

    def test_compressed_comm_pays_per_tensor(self):
        dense = get_benchmark("densenet40-cifar10")
        compressed = simulate_iteration(dense, "signsgd")
        # 158 allgathers dominated by per-op overhead + latency steps.
        assert compressed.comm_seconds > 158 * 80e-6

    def test_large_models_split_into_multiple_fusion_buffers(self):
        vgg19 = get_benchmark("vgg19-imagenet")  # 574 MB of gradients
        small_net = ethernet(10.0)
        cost = simulate_iteration(vgg19, "none", network=small_net)
        # 574 MB / 64 MB = 9 buffers; the payload term dominates either
        # way, but per-op overheads must reflect the buffer count.
        from repro.comm.cost import ring_allreduce_time
        from repro.comm.backends import OPENMPI_TCP

        single_buffer = ring_allreduce_time(
            574e6, 8, small_net, OPENMPI_TCP
        )
        assert cost.comm_seconds > single_buffer


class TestIterationAccounting:
    def test_bytes_match_footprint_sum(self):
        spec = get_benchmark("lstm-ptb")
        baseline = simulate_iteration(spec, "none")
        assert baseline.bytes_per_worker == pytest.approx(
            spec.paper.params * 4, rel=0.01
        )

    def test_epoch_sim_seconds_monotone_in_trainer(self):
        from repro.bench.runner import run_cell
        from repro.core.config import Cell

        report = run_cell(
            Cell("ncf-movielens", "topk", workers=2, epochs=3)
        ).report
        seconds = report.epoch_sim_seconds
        assert len(seconds) == 3
        assert seconds[0] < seconds[1] < seconds[2]
