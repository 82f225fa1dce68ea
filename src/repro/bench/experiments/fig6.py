"""Fig. 6: model quality vs relative training throughput (10 Gbps, TCP).

One panel per benchmark: every compressor's best model quality (lite
training) against its throughput normalized to the no-compression
baseline (paper-scale simulation).  The paper's headline shapes:
compute-bound models (ResNet, DenseNet, U-Net) put every compressor left
of 1.0; communication-bound ones (VGG, NCF, LSTM) show multi-x speedups;
no method wins everywhere.
"""

from __future__ import annotations

from repro.bench.experiments._common import QUICK_COMPRESSORS
from repro.bench.report import format_table
from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.bench.throughput import relative_throughput
from repro.comm.network import NetworkModel, ethernet
from repro.core.config import Cell

#: The six panels of Fig. 6.
PANELS: dict[str, str] = {
    "a": "resnet20-cifar10",
    "b": "densenet40-cifar10",
    "c": "resnet50-imagenet",
    "d": "ncf-movielens",
    "e": "lstm-ptb",
    "f": "unet-dagm",
}


def run_panel(
    benchmark_key: str,
    compressors: list[str] | None = None,
    n_workers: int = 4,
    seed: int = 0,
    epochs: int | None = None,
    network: NetworkModel | None = None,
) -> list[dict]:
    """One Fig. 6 panel: (compressor, relative throughput, quality)."""
    spec = get_benchmark(benchmark_key)
    network = network if network is not None else ethernet(10.0)
    compressors = compressors if compressors is not None else QUICK_COMPRESSORS
    rows = []
    for name in compressors:
        report = run_cell(Cell(
            spec.key, name, workers=n_workers, seed=seed, epochs=epochs
        )).report
        rows.append(
            {
                "benchmark": benchmark_key,
                "compressor": name,
                "relative_throughput": relative_throughput(
                    spec, name, n_workers=8, network=network
                ),
                "quality": spec.display_quality(report.best_quality),
                "metric": spec.paper.metric,
            }
        )
    return rows


def run(
    panels: list[str] | None = None,
    compressors: list[str] | None = None,
    **kwargs,
) -> list[dict]:
    """Run several panels (default: all six)."""
    panels = panels if panels is not None else list(PANELS)
    rows = []
    for panel in panels:
        rows.extend(run_panel(PANELS[panel], compressors=compressors, **kwargs))
    return rows


def format(rows: list[dict]) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(
        ["Benchmark", "Compressor", "Rel. throughput", "Quality", "Metric"],
        [
            [r["benchmark"], r["compressor"], r["relative_throughput"],
             r["quality"], r["metric"]]
            for r in rows
        ],
    )


if __name__ == "__main__":
    print(format(run(panels=["a", "d"])))
