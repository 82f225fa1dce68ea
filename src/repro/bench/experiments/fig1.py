"""Fig. 1: the motivating experiment.

VGG16 on CIFAR-10, 8 workers, 25 Gbps links; baseline vs Randk(0.01) vs
8-bit quantization.  Panel (a) plots top-1 accuracy against *epochs* —
where the three look equivalent — and panel (b) against *wall time*,
where Randk wins and 8-bit loses to the baseline.

Quality-per-epoch comes from lite training; the wall-time axis scales
each epoch by the paper-scale simulated iteration time (compute + comm +
kernel overhead), which is what flips the ordering in panel (b).
"""

from __future__ import annotations

from repro.bench.report import format_table
from repro.bench.runner import run_cell
from repro.bench.suite import get_benchmark
from repro.bench.throughput import simulate_iteration
from repro.comm.network import ethernet
from repro.core.config import Cell

#: The three methods of Fig. 1, with their paper configurations.
METHODS: dict[str, dict] = {
    "none": {},
    "randomk": {"ratio": 0.01},
    "eightbit": {},
}


def run(
    n_workers: int = 4,
    epochs: int = 4,
    seed: int = 0,
    bandwidth_gbps: float = 25.0,
) -> list[dict]:
    """Per-method epoch series with simulated wall-time stamps."""
    spec = get_benchmark("vgg16-cifar10")
    network = ethernet(bandwidth_gbps)
    rows = []
    for name, params in METHODS.items():
        report = run_cell(Cell(
            spec.key, name, params, workers=n_workers, seed=seed,
            epochs=epochs,
        )).report
        cost = simulate_iteration(
            spec, name, n_workers=8, network=network,
            compressor_params=params or None,
        )
        iters_per_epoch = report.iterations / epochs
        seconds_per_epoch = cost.total_seconds * iters_per_epoch
        rows.append(
            {
                "compressor": name,
                "epoch_accuracy": list(report.epoch_quality),
                "seconds_per_epoch": seconds_per_epoch,
                "wall_time_axis": [
                    seconds_per_epoch * (e + 1)
                    for e in range(len(report.epoch_quality))
                ],
                "final_accuracy": report.epoch_quality[-1],
                "best_accuracy": report.best_quality,
            }
        )
    return rows


def format(rows: list[dict]) -> str:
    """Render the experiment rows as an aligned text table."""
    lines = ["Fig 1(a): accuracy vs epochs / (b): accuracy vs wall-time", ""]
    table_rows = []
    for r in rows:
        for epoch, (acc, t) in enumerate(
            zip(r["epoch_accuracy"], r["wall_time_axis"]), start=1
        ):
            table_rows.append([r["compressor"], epoch, acc, t])
    lines.append(
        format_table(["Compressor", "Epoch", "Top-1 acc", "Sim wall-time (s)"],
                     table_rows)
    )
    ordering = sorted(rows, key=lambda r: r["wall_time_axis"][-1])
    lines.append("")
    lines.append(
        "Wall-time ranking (fastest first): "
        + " < ".join(r["compressor"] for r in ordering)
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(format(run()))
