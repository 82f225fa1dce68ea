"""§V-B's error-feedback findings, as an ablation.

The paper establishes empirically that (i) EF improves accuracy for the
sparsifiers, but (ii) EF *harms* several quantizers (SignSGD, SIGNUM,
QSGD, TernGrad), and (iii) exclusively on the recommendation task, EF
with TopK / 8-bit / Natural worsens quality.  This experiment trains the
relevant (benchmark, compressor) cells with EF forced on and off and
reports the quality deltas.
"""

from __future__ import annotations

from repro.bench.report import format_table
from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.core.config import Cell

#: Cells the paper's §V-B discussion covers: (benchmark, compressor).
DEFAULT_CELLS: list[tuple[str, str]] = [
    ("resnet20-cifar10", "topk"),
    ("resnet20-cifar10", "randomk"),
    ("resnet20-cifar10", "signsgd"),
    ("resnet20-cifar10", "qsgd"),
    ("resnet20-cifar10", "terngrad"),
    ("ncf-movielens", "topk"),
    ("ncf-movielens", "eightbit"),
    ("ncf-movielens", "natural"),
]


def run(
    cells: list[tuple[str, str]] | None = None,
    n_workers: int = 4,
    seed: int = 0,
    epochs: int | None = None,
) -> list[dict]:
    """Quality with EF off vs on for each cell."""
    cells = cells if cells is not None else DEFAULT_CELLS
    rows = []
    for benchmark_key, compressor in cells:
        spec = get_benchmark(benchmark_key)
        off, on = (
            run_cell(Cell(
                benchmark_key, compressor, memory=memory, workers=n_workers,
                seed=seed, epochs=epochs,
            )).report
            for memory in ("none", "residual")
        )
        rows.append(
            {
                "benchmark": benchmark_key,
                "compressor": compressor,
                "quality_ef_off": spec.display_quality(off.best_quality),
                "quality_ef_on": spec.display_quality(on.best_quality),
                "metric": spec.paper.metric,
            }
        )
    return rows


def format(rows: list[dict]) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(
        ["Benchmark", "Compressor", "EF off", "EF on", "Metric"],
        [
            [r["benchmark"], r["compressor"], r["quality_ef_off"],
             r["quality_ef_on"], r["metric"]]
            for r in rows
        ],
    )


if __name__ == "__main__":
    print(format(run()))
