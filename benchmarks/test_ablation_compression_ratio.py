"""Ablation: degree of compression vs model quality (NCF).

The paper's Fig. 6d observation: "for compressors with tunable degree of
compression, quality lowers as compression is more aggressive" on the
recommendation task — while CIFAR experiments score ballpark quality
across ratios.  This bench sweeps Top-k's ratio and QSGD's level count
on the NCF benchmark and records the quality/volume frontier.
"""

from repro.bench.report import format_table
from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.bench.throughput import relative_volume
from repro.core.config import Cell
from benchmarks.conftest import full_grid

TOPK_RATIOS = (0.001, 0.01, 0.1)
QSGD_LEVELS = (2, 16, 256)


def test_ablation_compression_ratio(benchmark, record):
    spec = get_benchmark("ncf-movielens")
    epochs = None if full_grid() else 3
    rows = []

    def sweep():
        collected = []
        for ratio in TOPK_RATIOS:
            report = run_cell(Cell(
                spec.key, "topk", {"ratio": ratio}, workers=2, epochs=epochs,
            )).report
            collected.append({
                "config": f"topk({ratio})",
                "quality": report.best_quality,
                "relative_volume": relative_volume(
                    spec, "topk", compressor_params={"ratio": ratio}
                ),
            })
        for levels in QSGD_LEVELS:
            report = run_cell(Cell(
                spec.key, "qsgd", {"levels": levels}, workers=2,
                epochs=epochs,
            )).report
            collected.append({
                "config": f"qsgd({levels})",
                "quality": report.best_quality,
                "relative_volume": relative_volume(
                    spec, "qsgd", compressor_params={"levels": levels}
                ),
            })
        return collected

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(
        "ablation_compression_ratio",
        format_table(
            ["Config", "Hit-rate@10", "Rel. volume"],
            [[r["config"], r["quality"], r["relative_volume"]] for r in rows],
        ),
    )

    # Volume must be monotone in the compression knob.
    topk = [r for r in rows if r["config"].startswith("topk")]
    assert topk[0]["relative_volume"] < topk[1]["relative_volume"]
    assert topk[1]["relative_volume"] < topk[2]["relative_volume"]
    # The paper's quality trend: heaviest compression loses quality
    # relative to the lightest setting.
    assert topk[0]["quality"] <= topk[2]["quality"] + 0.05
