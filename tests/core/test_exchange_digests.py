"""The trainer's exchange is frozen: parameters, losses, clocks, telemetry.

``golden/exchange_digests.json`` holds, for every cell of a small grid of
compressors × exchange modes, what four training steps of a 4-rank
synthetic task leave behind: a SHA-256 of the parameters, the losses,
every simulated :class:`~repro.core.trainer.TrainingReport` field, the
deterministic metric values and the multiset of (span name, attribute
keys) the tracer recorded.  A rewrite of the exchange (how units are
formed, compressed, issued, finished and recorded) must reproduce every
cell exactly; only measured wall-clock time is left out.

Regenerate (only when the exchange is *meant* to change)::

    PYTHONPATH=src python tests/core/test_exchange_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

from repro.comm import Communicator
from repro.comm.parameter_server import ParameterServerCommunicator
from repro.core import DistributedTrainer, create
from repro.core.trainer import TrainingReport
from repro.telemetry import Tracer

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "exchange_digests.json",
)

N_WORKERS = 4
STEPS = 4

#: A stochastic compressor (qsgd), residual memory (topk, efsignsgd), the
#: DGC memory (dgc), a compressor with no fused kernel (powersgd) and the
#: allreduce strategy (none).
COMPRESSORS = ("none", "topk", "qsgd", "efsignsgd", "dgc", "powersgd")
PARAMS = {"topk": {"ratio": 0.25}, "dgc": {"ratio": 0.25}}

#: A budget that splits the task below into several multi-tensor buckets.
SMALL_FUSION_MB = 0.0008

#: (overlap, bucket_order) of the three schedules.
SCHEDULES = {
    "blocking": (False, "ready"),
    "overlap-ready": (True, "ready"),
    "overlap-declaration": (True, "declaration"),
}


def _shapes() -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {"conv0.w": (4, 3, 3, 3)}
    for layer in range(1, 12):
        shapes[f"layer{layer}.w"] = (layer + 2, 5)
        shapes[f"layer{layer}.b"] = (layer + 2,)
    shapes["head.w"] = (10, 16)
    shapes["head.b"] = (10,)
    shapes["scale"] = (1,)
    return shapes


class ManyTensorTask:
    """A quadratic bowl over 26 tensors, one of them 4-d.

    Gradients are a function of the parameters and the (rank, step) batch
    only, so every run of a cell sees the same gradient stream.
    """

    SHAPES = _shapes()

    def __init__(self):
        rng = np.random.default_rng(11)
        self.params = {
            name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in self.SHAPES.items()
        }
        self.targets = {
            name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in self.SHAPES.items()
        }

    def forward_backward(self, inputs, targets):
        rng = np.random.default_rng(list(inputs))
        grads = {}
        loss = 0.0
        for name, param in self.params.items():
            delta = param - self.targets[name]
            noise = 0.1 * rng.standard_normal(param.shape)
            grads[name] = (2 * delta + noise).astype(np.float32)
            loss += float(np.sum(delta ** 2))
        return loss, grads

    def apply_update(self, grads):
        for name, grad in grads.items():
            self.params[name] -= np.float32(0.05) * grad


class LinearPerf:
    """Compute and kernels cost a launch plus their size: every simulated
    field of the report is non-zero and bucket pricing differs from
    per-tensor pricing."""

    def compute_seconds(self, n_samples):
        return 2e-3 + 1e-5 * n_samples

    def compression_seconds(self, name, n_elements):
        return 2e-5 + 1e-8 * n_elements


def _batches(step: int) -> list:
    return [((rank, step), None) for rank in range(N_WORKERS)]


def _cells() -> dict[str, dict]:
    cells = {}
    for name in COMPRESSORS:
        for fusion_mb in (0.0, SMALL_FUSION_MB):
            for schedule, (overlap, order) in SCHEDULES.items():
                cells[f"{name}/fusion{fusion_mb:g}/{schedule}"] = dict(
                    compressor=name, fusion_mb=fusion_mb, overlap=overlap,
                    bucket_order=order,
                )
            cells[f"{name}/fusion{fusion_mb:g}/ps-auto"] = dict(
                compressor=name, fusion_mb=fusion_mb, ps=True,
            )
    cells["topk/fusion0/crash-degrade"] = dict(
        compressor="topk", faults="crash@1:rank=3,rejoin=3",
        recovery="degrade",
    )
    cells[f"efsignsgd/fusion{SMALL_FUSION_MB:g}/crash-restart"] = dict(
        compressor="efsignsgd", fusion_mb=SMALL_FUSION_MB,
        faults="crash@2:rank=1,rejoin=3", recovery="restart",
    )
    return cells


def _params_digest(params: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        array = np.ascontiguousarray(params[name])
        digest.update(f"{name}|{array.dtype}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _label(instrument) -> str:
    labels = ",".join(f"{k}={v}" for k, v in sorted(instrument.labels))
    return f"{instrument.name}{{{labels}}}"


def _metrics(registry) -> dict:
    """Every deterministic value in the registry.

    Histograms of wall-clock seconds are kept by sample count only.
    """
    values = {}
    for instrument in registry.instruments():
        if "measured" in instrument.name:
            continue  # wall clock
        key = _label(instrument)
        if instrument.kind != "histogram":
            values[key] = instrument.value
        elif instrument.unit == "seconds":
            values[key] = [instrument.count]
        else:
            values[key] = [instrument.count, instrument.sum]
    return dict(sorted(values.items()))


def run_cell(compressor, fusion_mb=0.0, overlap=False, bucket_order="ready",
             ps=False, **options) -> dict:
    """Train one cell; return its digest."""
    tracer = Tracer()
    task = ManyTensorTask()
    trainer = DistributedTrainer(
        task,
        create(compressor, **PARAMS.get(compressor, {})),
        n_workers=N_WORKERS,
        communicator=(
            ParameterServerCommunicator(N_WORKERS) if ps
            else Communicator(N_WORKERS)
        ),
        perf_model=LinearPerf(),
        seed=0,
        tracer=tracer,
        fusion_mb=fusion_mb,
        overlap=overlap,
        bucket_order=bucket_order,
        aggregation="auto",
        **options,
    )
    losses = [trainer.step(_batches(step)) for step in range(STEPS)]
    report = trainer.report
    spans = Counter(
        (span.name, ",".join(sorted(span.attrs))) for span in tracer.spans
    )
    span_sim: dict[str, float] = {}
    for span in tracer.spans:
        span_sim[span.name] = span_sim.get(span.name, 0.0) + span.sim
    return {
        "params": _params_digest(task.params),
        "losses": losses,
        "report": {
            name: getattr(report, name)
            for name in TrainingReport._FIELDS
            if name != "measured_compression_seconds"
        },
        "metrics": _metrics(trainer.metrics),
        "spans": sorted(
            [name, keys, count] for (name, keys), count in spans.items()
        ),
        "span_sim": dict(sorted(span_sim.items())),
    }


def all_digests() -> dict:
    return {key: run_cell(**cell) for key, cell in _cells().items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def actual() -> dict:
    # JSON round-trip so tuples and floats compare the way the file
    # stores them (floats round-trip exactly through repr).
    return json.loads(json.dumps(all_digests()))


def test_grid_is_the_frozen_grid(golden):
    assert sorted(golden) == sorted(_cells())


@pytest.mark.parametrize("field", [
    "params", "losses", "report", "metrics", "spans", "span_sim",
])
def test_every_cell_reproduces_its_digest(golden, actual, field):
    moved = [
        key for key in sorted(golden)
        if actual[key][field] != golden[key][field]
    ]
    assert moved == []


def main(argv) -> int:
    if argv == ["--write"]:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(all_digests(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
