"""Local SGD and gossip training are frozen: parameters, losses, clocks.

``golden/mode_digests.json`` holds, for every built-in compressor under
three modes — :class:`~repro.core.LocalSGDTrainer` on 2 nodes syncing
every 2 steps, and :class:`~repro.core.DecentralizedTrainer` on a 3-node
ring with parameter consensus off and every 2 steps — what four steps of
a small MLP leave behind: a SHA-256 of each node's parameters, the
losses, the report's bytes and simulated communication seconds, the
communicator's op count and (gossip) the consensus distances.  A rewrite
of either trainer's exchange must reproduce every cell exactly.

Regenerate (only when a trainer is *meant* to change)::

    PYTHONPATH=src python tests/core/test_mode_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.comm import ring_topology
from repro.core import (
    DecentralizedTrainer,
    LocalSGDTrainer,
    available_compressors,
    create,
)
from repro.ndl import SGD, ModelTask
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "mode_digests.json",
)

STEPS = 4

#: Low enough that the MLP's weight matrices take the factor path.
LOW_RANK = ("atomo", "gradiveq", "gradzip", "powersgd")

MODES = {
    "localsgd": dict(nodes=2),
    "gossip-c0": dict(nodes=3, consensus_period=0),
    "gossip-c2": dict(nodes=3, consensus_period=2),
}


def _tasks(n_nodes: int) -> list[ModelTask]:
    """Identical MLP replicas, one task per node."""
    tasks = []
    reference = None
    for _ in range(n_nodes):
        model = MLP(16, [24], 3, seed=0)
        if reference is None:
            reference = model.state_dict()
        else:
            model.load_state_dict(reference)
        tasks.append(ModelTask(model, SGD(model.named_parameters(), lr=0.1),
                               softmax_cross_entropy))
    return tasks


def _batches(n_nodes: int, step: int) -> list:
    rng = np.random.default_rng(step)
    return [
        (rng.standard_normal((8, 16)).astype(np.float32),
         rng.integers(0, 3, 8))
        for _ in range(n_nodes)
    ]


def _params_digest(state: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(f"{name}|{array.dtype}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _cells() -> dict[str, dict]:
    return {
        f"{name}/{mode}": dict(compressor=name, mode=mode)
        for name in available_compressors()
        for mode in MODES
    }


def run_cell(compressor: str, mode: str) -> dict:
    """Train one cell; return its digest."""
    spec = MODES[mode]
    tasks = _tasks(spec["nodes"])
    method = create(compressor, **(
        {"min_compress_size": 16} if compressor in LOW_RANK else {}
    ))
    if mode == "localsgd":
        trainer = LocalSGDTrainer(tasks, method, sync_period=2, seed=0)
    else:
        trainer = DecentralizedTrainer(
            tasks, method, ring_topology(spec["nodes"]),
            consensus_period=spec["consensus_period"], seed=0,
        )
    losses = [
        trainer.step(_batches(spec["nodes"], step)) for step in range(STEPS)
    ]
    digest = {
        "params": [_params_digest(task.model.state_dict()) for task in tasks],
        "losses": losses,
        "bytes_per_worker": trainer.report.bytes_per_worker,
        "sim_comm_seconds": trainer.report.sim_comm_seconds,
        "num_ops": trainer.comm.record.num_ops,
    }
    if mode != "localsgd":
        digest["consensus_distances"] = trainer.consensus_distances
    return digest


def all_digests() -> dict:
    return {key: run_cell(**cell) for key, cell in _cells().items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def actual() -> dict:
    # JSON round-trip so floats compare the way the file stores them.
    return json.loads(json.dumps(all_digests()))


def test_grid_is_the_frozen_grid(golden):
    assert sorted(golden) == sorted(_cells())
    assert len(golden) == 75


@pytest.mark.parametrize("field", [
    "params", "losses", "bytes_per_worker", "sim_comm_seconds", "num_ops",
    "consensus_distances",
])
def test_every_cell_reproduces_its_digest(golden, actual, field):
    moved = [
        key for key in sorted(golden)
        if actual[key].get(field) != golden[key].get(field)
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
