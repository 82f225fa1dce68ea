"""Image classification under gradient compression (the paper's Fig. 6a
scenario at lite scale).

Trains the ResNet-20-style benchmark with a spread of compressors and
prints quality, data volume and paper-scale relative throughput — the
three axes the paper's evaluation revolves around.

Run:  python examples/image_classification.py
"""

from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.bench.throughput import relative_throughput, relative_volume
from repro.core.config import Cell

COMPRESSORS = ["none", "topk", "randomk", "qsgd", "efsignsgd", "powersgd"]


def main():
    spec = get_benchmark("resnet20-cifar10")
    print(f"benchmark: {spec.model_name} on synthetic {spec.dataset_name}")
    print(f"paper-scale profile: {spec.paper.params:,} parameters over "
          f"{spec.paper.gradient_vectors} gradient tensors\n")
    header = (f"{'method':<12} {'top-1 acc':>9} {'rel.volume':>10} "
              f"{'rel.throughput @10Gbps':>22}")
    print(header)
    print("-" * len(header))
    for name in COMPRESSORS:
        report = run_cell(Cell(spec.key, name, workers=4)).report
        print(
            f"{name:<12} {report.best_quality:>9.3f} "
            f"{relative_volume(spec, name):>10.4f} "
            f"{relative_throughput(spec, name):>22.2f}"
        )
    print(
        "\nNote the paper's Fig. 6a shape: on a compute-bound model at "
        "10 Gbps,\nevery compressor lands below the baseline's throughput "
        "(rightmost column < 1)."
    )


if __name__ == "__main__":
    main()
