"""Fig. 7: model quality vs transmitted data volume per iteration.

Three panels — ResNet-50/ImageNet, LSTM/PTB, NCF/MovieLens — plotting
each compressor's best quality against its average per-iteration data
volume relative to the baseline.  Panel (c) additionally contrasts TopK
with and without error feedback, the case where EF *hurts* the
recommendation task (§V-B).
"""

from __future__ import annotations

from repro.bench.experiments._common import QUICK_COMPRESSORS
from repro.bench.report import format_table
from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.bench.throughput import relative_volume
from repro.core.config import Cell

#: The three panels of Fig. 7.
PANELS: dict[str, str] = {
    "a": "resnet50-imagenet",
    "b": "lstm-ptb",
    "c": "ncf-movielens",
}


def run_panel(
    benchmark_key: str,
    compressors: list[str] | None = None,
    n_workers: int = 4,
    seed: int = 0,
    epochs: int | None = None,
    include_topk_ef_split: bool | None = None,
) -> list[dict]:
    """One Fig. 7 panel: (compressor, relative volume, quality)."""
    spec = get_benchmark(benchmark_key)
    compressors = compressors if compressors is not None else QUICK_COMPRESSORS
    if include_topk_ef_split is None:
        include_topk_ef_split = benchmark_key == "ncf-movielens"
    rows = []
    for name in compressors:
        report = run_cell(Cell(
            spec.key, name, workers=n_workers, seed=seed, epochs=epochs
        )).report
        rows.append(
            {
                "benchmark": benchmark_key,
                "compressor": name,
                "relative_volume": relative_volume(spec, name),
                "quality": spec.display_quality(report.best_quality),
                "metric": spec.paper.metric,
            }
        )
    if include_topk_ef_split:
        # The paper's TopK vs TopK-EF callout: same volume, different quality.
        for label, memory in (("topk-no-ef", "none"), ("topk-ef", "residual")):
            report = run_cell(Cell(
                spec.key, "topk", memory=memory, workers=n_workers,
                seed=seed, epochs=epochs,
            )).report
            rows.append(
                {
                    "benchmark": benchmark_key,
                    "compressor": label,
                    "relative_volume": relative_volume(spec, "topk"),
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
    """Run several panels (default: all three)."""
    panels = panels if panels is not None else list(PANELS)
    rows = []
    for panel in panels:
        rows.extend(run_panel(PANELS[panel], compressors=compressors, **kwargs))
    return rows


def format(rows: list[dict]) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(
        ["Benchmark", "Compressor", "Rel. volume/iter", "Quality", "Metric"],
        [
            [r["benchmark"], r["compressor"], r["relative_volume"],
             r["quality"], r["metric"]]
            for r in rows
        ],
    )


if __name__ == "__main__":
    print(format(run(panels=["c"])))
