"""Recommendation (NCF) under compression — the paper's most interesting
benchmark (Fig. 6d / Fig. 7c).

Two findings are reproduced at lite scale:

1. The quality/throughput trade-off is real here: aggressive compression
   costs hit-rate while buying multi-x throughput.
2. Error feedback, which helps sparsifiers everywhere else, can *hurt*
   Top-k on the recommendation task (§V-B).

Run:  python examples/recommendation.py
"""

from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.bench.throughput import relative_throughput
from repro.core.config import Cell


def main():
    spec = get_benchmark("ncf-movielens")
    print("NCF on synthetic MovieLens-style implicit feedback\n")

    print("Compressor sweep (hit-rate@10 vs relative throughput):")
    for name in ["none", "topk", "qsgd", "efsignsgd", "adaptive", "dgc"]:
        report = run_cell(Cell(spec.key, name, workers=4)).report
        print(
            f"  {name:<10} hit-rate={report.best_quality:.3f} "
            f"rel-throughput={relative_throughput(spec, name):.2f}"
        )

    print("\nTop-k with and without error feedback (the Fig. 7c split):")
    for label, memory in (("topk, EF off", "none"), ("topk, EF on ",
                                                     "residual")):
        report = run_cell(Cell(spec.key, "topk", memory=memory)).report
        print(f"  {label}: hit-rate={report.best_quality:.3f}")


if __name__ == "__main__":
    main()
