"""Table II: the benchmark suite summary.

Prints the paper's published row (task, model, dataset, parameters,
gradient vectors, epochs, metric, baseline quality) beside this
reproduction's lite-scale counterpart: actual parameter count, gradient
vector count and the measured baseline quality from a lite training run.
"""

from __future__ import annotations

from repro.bench.report import format_table
from repro.bench.runner import run_cell
from repro.bench.suite import BENCHMARKS, BenchmarkSpec
from repro.core.config import Cell


def run(
    keys: list[str] | None = None,
    train_baselines: bool = True,
    n_workers: int = 4,
    seed: int = 0,
) -> list[dict]:
    """One row per benchmark; optionally trains the lite baselines."""
    keys = keys if keys is not None else list(BENCHMARKS)
    rows = []
    for key in keys:
        spec: BenchmarkSpec = BENCHMARKS[key]
        run_bundle = spec.build(n_workers=n_workers, seed=seed)
        lite_params = run_bundle.model.num_parameters()
        lite_vectors = run_bundle.model.num_gradient_vectors()
        measured = None
        if train_baselines:
            report = run_cell(Cell(key, workers=n_workers, seed=seed)).report
            measured = spec.display_quality(report.best_quality)
        rows.append(
            {
                "benchmark": key,
                "task": spec.task,
                "model": spec.model_name,
                "dataset": spec.dataset_name,
                "paper_params": spec.paper.params,
                "paper_vectors": spec.paper.gradient_vectors,
                "paper_epochs": spec.paper.epochs,
                "metric": spec.paper.metric,
                "paper_baseline": spec.paper.baseline_quality,
                "lite_params": lite_params,
                "lite_vectors": lite_vectors,
                "lite_epochs": spec.lite_epochs,
                "lite_baseline": measured,
            }
        )
    return rows


def format(rows: list[dict]) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(
        ["Benchmark", "Task", "Model", "Paper params", "Paper vecs",
         "Metric", "Paper baseline", "Lite params", "Lite vecs",
         "Lite baseline"],
        [
            [r["benchmark"], r["task"], r["model"], r["paper_params"],
             r["paper_vectors"], r["metric"], r["paper_baseline"],
             r["lite_params"], r["lite_vectors"],
             "-" if r["lite_baseline"] is None else r["lite_baseline"]]
            for r in rows
        ],
    )


if __name__ == "__main__":
    print(format(run()))
