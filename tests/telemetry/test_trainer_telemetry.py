"""Trainer instrumentation: the traced path must not change training.

The golden numbers below were captured from the seed trainer (before
telemetry existed) for a fixed scenario; both the default no-op path and
a fully traced run must still reproduce them exactly.
"""

import numpy as np
import pytest

from repro.comm.collectives import CommRecord
from repro.comm.gossip import ring_topology
from repro.core import DecentralizedTrainer, DistributedTrainer, create
from repro.core.trainer import TrainingReport
from repro.telemetry import LEAF_PHASES, MetricsRegistry, Tracer

from tests.core.test_trainer import QuadraticTask, noise_batches

# Seed-captured golden values: QuadraticTask(dim=32, lr=0.05, seed=0),
# topk(ratio=0.25), 2 workers, FlatPerf, 5 steps of noise_batches(seed=step).
# The bytes and simulated comm are those of topk's one-byte positions (a
# 32-element tensor): 8 values and 8 positions, 40 bytes a step.
GOLDEN_LOSSES = [
    21.149208068847656, 18.29949378967285, 15.998201370239258,
    12.543895721435547, 10.668901443481445,
]
GOLDEN = {
    "iterations": 5,
    "samples_processed": 320,
    "sim_comm_seconds": 0.0006502689075630252,
    "sim_compute_seconds": 0.05,
    "sim_compression_seconds": 0.005,
    "bytes_per_worker": 200.0,
}
GOLDEN_PARAM_NORM = 1.6976065635681152


class FlatPerf:
    def compute_seconds(self, n_samples):
        return 0.010

    def compression_seconds(self, name, n_elements):
        return 0.001


def run_golden(tracer=None):
    task = QuadraticTask(dim=32, lr=0.05, seed=0)
    trainer = DistributedTrainer(
        task, create("topk", ratio=0.25), n_workers=2,
        perf_model=FlatPerf(), seed=0, tracer=tracer,
    )
    losses = [trainer.step(noise_batches(2, 32, seed=s)) for s in range(5)]
    return task, trainer, losses


def assert_golden(task, trainer, losses):
    assert losses == GOLDEN_LOSSES
    report = trainer.report
    for name, expected in GOLDEN.items():
        assert getattr(report, name) == expected, name
    assert float(np.linalg.norm(task.x)) == GOLDEN_PARAM_NORM


class TestGoldenGuard:
    def test_default_noop_tracer_reproduces_seed_behavior(self):
        assert_golden(*run_golden())

    def test_traced_run_reproduces_seed_behavior(self):
        assert_golden(*run_golden(tracer=Tracer()))

    def test_traced_and_untraced_reports_are_equal(self):
        _, untraced, _ = run_golden()
        _, traced, _ = run_golden(tracer=Tracer())
        assert isinstance(untraced.report, TrainingReport)
        for name in TrainingReport._FIELDS:
            if name == "measured_compression_seconds":
                continue  # wall clock: nondeterministic by nature
            assert getattr(untraced.report, name) == \
                getattr(traced.report, name), name


class TestSpanTaxonomy:
    def test_all_leaf_phases_appear_under_iteration(self):
        tracer = Tracer()
        run_golden(tracer=tracer)
        names = {span.name for span in tracer.spans}
        assert names == set(LEAF_PHASES) | {"iteration"}
        iteration_ids = {s.id for s in tracer.spans if s.name == "iteration"}
        for span in tracer.spans:
            if span.name == "iteration":
                assert span.parent_id is None
            elif span.name in ("compute", "apply_update"):
                assert span.parent_id in iteration_ids

    def test_per_rank_spans_carry_rank_and_tensor(self):
        tracer = Tracer()
        run_golden(tracer=tracer)
        compress = [s for s in tracer.spans if s.name == "compress"]
        assert {s.attrs["rank"] for s in compress} == {0, 1}
        assert all(s.attrs["tensor"] == "x" for s in compress)
        assert all(s.attrs["nbytes_in"] > 0 for s in compress)
        assert all(0 < s.attrs["nbytes_out"] <= s.attrs["nbytes_in"]
                   for s in compress)
        assert all(0 < s.attrs["ratio"] <= 1 for s in compress)

    def test_sim_clock_partitions_match_report(self):
        tracer = Tracer()
        _, trainer, _ = run_golden(tracer=tracer)
        report = trainer.report

        def sim(name):
            return sum(s.sim for s in tracer.spans if s.name == name)

        assert sim("compute") == pytest.approx(report.sim_compute_seconds)
        assert sim("compress") == pytest.approx(
            report.sim_compression_seconds
        )
        assert sim("collective") == pytest.approx(report.sim_comm_seconds)
        total = sum(s.sim for s in tracer.spans if s.name in LEAF_PHASES)
        assert total == pytest.approx(report.sim_total_seconds)

    def test_collective_spans_account_all_wire_bytes(self):
        tracer = Tracer()
        _, trainer, _ = run_golden(tracer=tracer)
        collective = [s for s in tracer.spans if s.name == "collective"]
        assert sum(s.attrs["bytes_per_worker"] for s in collective) == \
            trainer.report.bytes_per_worker


class TestMetricsSideChannel:
    def test_compression_and_gradient_metrics_recorded(self):
        tracer = Tracer()
        _, trainer, _ = run_golden(tracer=tracer)
        metrics = trainer.metrics
        raw = metrics.value("compress_raw_bytes_total")
        wire = metrics.value("compress_wire_bytes_total")
        assert raw > wire > 0
        assert metrics.value("wire_framing_overhead_bytes_total") > 0
        kernel = metrics.histogram(
            "compress_kernel_seconds", labels={"compressor": "topk"}
        )
        assert kernel.count == 10  # 5 iterations x 2 ranks x 1 tensor
        grad = metrics.histogram("grad_l2", labels={"tensor": "x"})
        assert grad.count == 10

    def test_ef_residual_norms_only_when_traced(self):
        _, untraced, _ = run_golden()
        assert untraced.metrics.instruments("ef_residual_norm") == []
        tracer = Tracer()
        _, traced, _ = run_golden(tracer=tracer)
        residuals = traced.metrics.instruments("ef_residual_norm")
        assert residuals and all(i.count == 10 for i in residuals)

    def test_report_fields_are_registry_backed(self):
        _, trainer, _ = run_golden()
        metrics = trainer.metrics
        assert metrics.value("train_iterations_total") == 5.0
        assert metrics.value("train_bytes_per_worker_total") == 200.0
        assert metrics.value("train_sim_comm_seconds_total") == \
            GOLDEN["sim_comm_seconds"]


class TestCommRecordAdapter:
    def test_record_is_registry_backed(self):
        registry = MetricsRegistry()
        record = CommRecord(registry)
        record.charge(bytes_per_worker=100, seconds=0.5, op="allreduce")
        record.charge(bytes_per_worker=50, seconds=0.25, op="allgather")
        assert record.bytes_sent_per_worker == 150.0
        assert record.simulated_seconds == 0.75
        assert record.num_ops == 2
        assert record.mean_bytes_per_op == 75.0
        assert registry.value("comm_bytes_per_worker_total") == 150.0
        assert registry.value(
            "comm_op_bytes_per_worker_total", labels={"op": "allreduce"}
        ) == 100.0

    def test_bind_migrates_totals_to_new_registry(self):
        record = CommRecord()
        record.charge(bytes_per_worker=64, seconds=0.1, op="broadcast")
        target = MetricsRegistry()
        record.bind(target)
        assert record.bytes_sent_per_worker == 64.0
        assert record.num_ops == 1
        assert target.value(
            "comm_op_bytes_per_worker_total", labels={"op": "broadcast"}
        ) == 64.0

    def test_reset_clears_everything_trainer_reads(self):
        record = CommRecord()
        record.charge(bytes_per_worker=64, seconds=0.1, op="allreduce")
        record.reset()
        assert record.bytes_sent_per_worker == 0.0
        assert record.simulated_seconds == 0.0
        assert record.num_ops == 0
        assert record.mean_bytes_per_op == 0.0


class SharedQuadraticTask(QuadraticTask):
    """Replicated quadratic task for gossip training; the task is its own
    model, whose one parameter is ``x``."""

    @property
    def model(self):
        return self

    def state_dict(self):
        return {"x": self.x.copy()}

    def load_state_dict(self, state):
        self.x = np.array(state["x"], dtype=np.float32)


def gossip_trainers(tracer=None, consensus_period=0):
    tasks = [SharedQuadraticTask(dim=16, lr=0.05, seed=0) for _ in range(4)]
    return DecentralizedTrainer(
        tasks, create("topk", ratio=0.5), ring_topology(4),
        consensus_period=consensus_period, seed=0, tracer=tracer,
    )


class TestDecentralizedTelemetry:
    @pytest.mark.parametrize("consensus_period", [0, 2])
    def test_traced_gossip_matches_untraced(self, consensus_period):
        batches = [noise_batches(4, 16, seed=s) for s in range(3)]
        untraced = gossip_trainers(consensus_period=consensus_period)
        plain = [untraced.step(b) for b in batches]
        tracer = Tracer()
        traced_trainer = gossip_trainers(tracer, consensus_period)
        traced = [traced_trainer.step(b) for b in batches]
        assert plain == traced
        assert traced_trainer.consensus_distances == \
            untraced.consensus_distances
        names = {span.name for span in tracer.spans}
        assert {"iteration", "compute", "compress", "collective",
                "decompress", "aggregate", "apply_update"} <= names
        assert ("parameter_consensus" in names) == bool(consensus_period)
        collective = [s for s in tracer.spans if s.name == "collective"]
        assert all(s.attrs["op"] == "gossip_exchange" for s in collective)
        assert sum(s.sim for s in collective) == pytest.approx(
            traced_trainer.report.sim_comm_seconds
        )
