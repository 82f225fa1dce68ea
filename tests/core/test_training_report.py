"""TrainingReport arithmetic."""

import pytest

from repro.core.trainer import TrainingReport


class TestTrainingReport:
    def test_sim_total_sums_components(self):
        report = TrainingReport(
            sim_comm_seconds=1.0,
            sim_compute_seconds=2.0,
            sim_compression_seconds=0.5,
        )
        assert report.sim_total_seconds == pytest.approx(3.5)

    def test_bytes_per_iteration_zero_before_any_step(self):
        assert TrainingReport().bytes_per_worker_per_iteration == 0.0

    def test_bytes_per_iteration_averages(self):
        report = TrainingReport(iterations=4, bytes_per_worker=400.0)
        assert report.bytes_per_worker_per_iteration == pytest.approx(100.0)

    def test_best_quality_requires_evaluations(self):
        with pytest.raises(ValueError, match="quality"):
            TrainingReport().best_quality

    def test_best_quality_is_max(self):
        report = TrainingReport(epoch_quality=[0.1, 0.7, 0.4])
        assert report.best_quality == pytest.approx(0.7)
