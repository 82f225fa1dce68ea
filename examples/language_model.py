"""Language modeling (LSTM) under compression — the paper's Fig. 6e / 7b
scenario at lite scale.

The LSTM benchmark has few, large gradient tensors (7 in Table II), which
makes it communication-bound: quantizers and sparsifiers both buy real
speedups, and quality tracks transmitted volume.

Run:  python examples/language_model.py
"""

from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.bench.throughput import relative_throughput, relative_volume
from repro.core.config import Cell


def main():
    spec = get_benchmark("lstm-ptb")
    print("LSTM language model on a synthetic Markov corpus "
          "(lower perplexity is better)\n")
    header = (f"{'method':<12} {'perplexity':>10} {'rel.volume':>10} "
              f"{'rel.throughput':>14}")
    print(header)
    print("-" * len(header))
    for name in ["none", "signsgd", "qsgd", "natural", "topk", "dgc"]:
        report = run_cell(Cell(spec.key, name, workers=4)).report
        print(
            f"{name:<12} {spec.display_quality(report.best_quality):>10.2f} "
            f"{relative_volume(spec, name):>10.4f} "
            f"{relative_throughput(spec, name):>14.2f}"
        )
    print(
        "\nShape check vs the paper: sign-family methods and sparsifiers "
        "beat the\nbaseline's throughput by 2-5x on this communication-"
        "bound model (Fig. 6e)."
    )


if __name__ == "__main__":
    main()
