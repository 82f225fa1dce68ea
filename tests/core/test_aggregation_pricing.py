"""Compressed-domain aggregation never prices above the relay it replaces.

On the parameter server a worker either pulls the one aggregate or, in
the relay, every worker's upload.  For every compressor that declares an
aggregation, on perfbench's ``sweep_small_fused`` layout (about 400
tensors of 16-2048 elements in 0.125 MB buckets) at 2, 4 and 8 ranks,
simulated comm under ``--aggregation auto`` and ``all`` must be at most
what ``off`` prices; and where ``auto`` runs an exact-linear scheme,
every update it applies must be bitwise the relay's.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from perfbench.workloads import (
    SMALL_FUSION_MB,
    SyntheticTask,
    make_gradients,
    small_shapes,
)
from repro.comm import ParameterServerCommunicator
from repro.core import DistributedTrainer, create
from repro.core.api import CompressedTensor
from repro.core.registry import aggregation_kind, available_compressors

AGGREGATING = [
    name for name in available_compressors()
    if aggregation_kind(name) != "none"
]
STEPS = 2


class _RecordingTask(SyntheticTask):
    """Hashes every update it is handed."""

    def __init__(self, per_rank):
        super().__init__(per_rank)
        self.updates = hashlib.sha256()

    def apply_update(self, gradients):
        for name in sorted(gradients):
            self.updates.update(np.ascontiguousarray(gradients[name]))


def _run(name: str, n: int, aggregation: str) -> tuple[float, str]:
    """Simulated comm seconds and the digest of the applied updates."""
    per_rank = make_gradients(small_shapes(), n, seed=0)
    task = _RecordingTask(per_rank)
    trainer = DistributedTrainer(
        task, create(name, seed=0), n_workers=n,
        communicator=ParameterServerCommunicator(n), seed=0,
        fusion_mb=SMALL_FUSION_MB, aggregation=aggregation,
    )
    batches = [(np.array([rank]), None) for rank in range(n)]
    for batch in itertools.repeat(batches, STEPS):
        trainer.step(batch)
    return trainer.report.sim_comm_seconds, task.updates.hexdigest()


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("name", AGGREGATING)
def test_aggregation_never_prices_above_the_relay(name, n):
    off, relayed = _run(name, n, "off")
    for aggregation in ("auto", "all"):
        seconds, updates = _run(name, n, aggregation)
        assert seconds <= off, (aggregation, seconds, off)
        if aggregation_kind(name) == "exact-linear":
            assert updates == relayed, aggregation


def _topk_items(n: int, disjoint: bool, size: int = 64):
    """``(compressor, n workers' payloads)``: bitmap-indexed top-k of
    gradients whose supports coincide, or are disjoint, so that the
    union grows with every worker."""
    comp = create("topk", seed=0, ratio=0.25, index_encoding="bitmap")
    items = []
    for rank in range(n):
        grad = np.zeros(size, dtype=np.float32)
        grad[rank if disjoint else 0::n] = np.arange(
            1, size // n + 1, dtype=np.float32
        )
        items.append(comp.compress(grad, "w"))
    return comp, items


class TestServerChoice:
    def test_ships_the_aggregate_when_it_is_smaller(self):
        comm = ParameterServerCommunicator(4)
        comp, items = _topk_items(4, disjoint=False)
        result = comm.allreduce_compressed(items, comp)
        assert isinstance(result, CompressedTensor)
        assert result.nbytes < sum(item.nbytes for item in items)
        assert comm.record.registry.value(
            "comm_op_count_total", {"op": "ps_aggregated"}
        ) == 1

    def test_relays_an_exact_linear_aggregate_larger_than_the_relay(self):
        comm = ParameterServerCommunicator(2)
        comp, items = _topk_items(2, disjoint=True)
        relay = sum(item.nbytes for item in items)
        assert comp.aggregate_compressed(items).nbytes > relay
        result = comm.allreduce_compressed(items, comp)
        assert [[id(part) for part in payload] for payload in result] == [
            [id(part) for part in item.payload] for item in items
        ]
        registry = comm.record.registry
        assert registry.value(
            "comm_op_count_total", {"op": "ps_allgather"}
        ) == 1
        assert registry.value(
            "comm_root_bytes_total", {"direction": "egress"}
        ) == 2 * relay

    def test_codebook_aggregates_even_when_larger(self):
        # A codebook sum decodes differently from the relay, so the
        # server has no bitwise-equal alternative to price against:
        # eightbit's one-worker sum re-quantizes onto a 9-bit lattice.
        comp = create("eightbit", seed=0)
        item = comp.compress(np.linspace(-1, 1, 64, dtype=np.float32), "w")
        assert comp.aggregate_compressed([item]).nbytes > item.nbytes
        comm = ParameterServerCommunicator(1)
        result = comm.allreduce_compressed([item], comp)
        assert isinstance(result, CompressedTensor)
