"""Table II: the benchmark-suite summary.

Regenerates the paper row (published params / gradient vectors / metric /
baseline quality) next to the lite-scale reproduction (actual parameter
counts and measured baseline quality from lite training).  The benchmark
kernel is one baseline training epoch of the cheapest benchmark.
"""

from repro.bench.experiments import table2
from repro.bench.runner import run_cell
from repro.core.config import Cell
from benchmarks.conftest import full_grid


def test_table2_benchmarks(benchmark, record):
    # Metadata + lite baselines; training all 9 baselines takes ~20 s, so
    # the quick path trains the three cheapest and reports metadata for
    # the rest.
    keys = None if full_grid() else ["ncf-movielens", "lstm-ptb",
                                     "vgg16-cifar10"]
    trained = table2.run(keys=keys, train_baselines=True)
    metadata = table2.run(train_baselines=False)
    merged = {r["benchmark"]: r for r in metadata}
    for row in trained:
        merged[row["benchmark"]] = row
    record("table2_benchmarks", table2.format(list(merged.values())))

    def kernel():
        return run_cell(Cell("ncf-movielens", workers=2, epochs=1)).report

    report = benchmark.pedantic(kernel, rounds=2, iterations=1)
    assert report.iterations > 0
    assert len(merged) == 9
    for row in trained:
        assert row["lite_baseline"] is not None
