"""Ablation: sparse-index encoding (the DeepReduce direction, §VI).

For Top-k at ratio 0.01, indices are half the wire bytes under the
paper's int32 accounting.  Delta-varint or bitmap index encoding shrinks
that; this bench quantifies the saving across sparsity regimes.
"""

import numpy as np

from repro.bench.report import format_table
from repro.core import create
from repro.tensorlib.indices import MODES

RATIOS = (0.001, 0.01, 0.1)


def test_ablation_index_encoding(benchmark, record):
    rng = np.random.default_rng(0)
    tensor = (1e-2 * rng.standard_normal(1 << 18)).astype(np.float32)

    def sweep():
        rows = []
        for ratio in RATIOS:
            plain = create("topk", ratio=ratio, seed=0).compress(tensor, "t")
            auto = create(
                "topk", ratio=ratio, index_encoding="auto", seed=0
            ).compress(tensor, "t")
            rows.append({
                "ratio": ratio,
                "int32_bytes": plain.nbytes,
                "auto_bytes": auto.nbytes,
                # The index part opens with the chosen mode's tag.
                "mode": MODES[auto.payload[1][0]],
                "saving": 1 - auto.nbytes / plain.nbytes,
            })
        return rows

    rows = benchmark(sweep)
    record(
        "ablation_index_encoding",
        format_table(
            ["Top-k ratio", "int32 wire B", "auto wire B", "Chosen mode",
             "Saving"],
            [[r["ratio"], r["int32_bytes"], r["auto_bytes"], r["mode"],
              r["saving"]] for r in rows],
        ),
    )
    for row in rows:
        assert row["auto_bytes"] <= row["int32_bytes"], row
    # At 1% sparsity the auto encoding must save a meaningful fraction.
    mid = next(r for r in rows if r["ratio"] == 0.01)
    assert mid["saving"] > 0.15
