"""`repro bench`'s record is frozen: metric specs, values and failures.

``benchmarks/results/bench_contract.json`` holds, for the four
invocations CI smoke-tests, the suite, benchmark and params keys, every
metric's unit, direction, tolerance, floor and value, and the run's
acceptance failures.  Measured wall clock keeps its spec but not its
value (``null``).  ``repro bench --check`` gates every frozen value
against the contract and only the rest against the perf history, so a
run may add ``info`` metrics but may not drop, re-specify or move a
frozen one.

Regenerate (only when a recorded number is *meant* to change)::

    PYTHONPATH=src python tests/bench/test_bench_contract.py --write
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import pytest

from repro.bench.history import DEFAULT_CONTRACT_PATH
from repro.cli import main as repro_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
CONTRACT_PATH = os.path.join(REPO_ROOT, DEFAULT_CONTRACT_PATH)

#: The ``repro bench`` arguments of each frozen invocation.
INVOCATIONS = {
    "fusion": ["fusion", "--compressor", "topk", "--workers", "4",
               "--iterations", "5"],
    "overlap": ["overlap"],
    "throughput": ["throughput"],
    "faults": ["faults"],
}

#: Measured wall clock: the spec is frozen, the value is not.
WALL_CLOCK = frozenset({
    "wall_seconds_unfused", "wall_seconds_fused", "wall_speedup",
})

SPEC_FIELDS = ("unit", "direction", "tolerance", "floor")


def run_invocation(argv: list[str]) -> dict:
    """One invocation's contract, read back from its result JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "result.json")
        repro_main(["bench", *argv, "--out", out])
        with open(out, encoding="utf-8") as handle:
            payload = json.load(handle)
    metrics = {}
    for name, metric in payload["metrics"].items():
        entry = {field: metric[field] for field in SPEC_FIELDS}
        entry["value"] = None if name in WALL_CLOCK else metric["value"]
        metrics[name] = entry
    return {
        "suite": payload["suite"],
        "benchmark": payload["benchmark"],
        "params": payload["params"],
        "failures": payload["failures"],
        "metrics": metrics,
    }


def all_contracts() -> dict:
    return {key: run_invocation(argv) for key, argv in INVOCATIONS.items()}


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_covers_every_invocation(contract):
    assert sorted(contract) == sorted(INVOCATIONS)


@pytest.mark.parametrize("key", sorted(INVOCATIONS))
def test_invocation_keeps_its_contract(contract, key, capsys):
    frozen = contract[key]
    actual = run_invocation(INVOCATIONS[key])
    capsys.readouterr()
    assert (actual["suite"], actual["benchmark"], actual["params"]) == (
        frozen["suite"], frozen["benchmark"], frozen["params"]
    )
    assert actual["failures"] == frozen["failures"]
    missing = sorted(set(frozen["metrics"]) - set(actual["metrics"]))
    assert missing == []
    moved = [
        name for name in sorted(frozen["metrics"])
        if actual["metrics"][name] != frozen["metrics"][name]
    ]
    assert moved == []
    added_gated = [
        name for name, metric in sorted(actual["metrics"].items())
        if name not in frozen["metrics"] and metric["direction"] != "info"
    ]
    assert added_gated == []


def main(argv) -> int:
    if argv == ["--write"]:
        contracts = all_contracts()
        with open(CONTRACT_PATH, "w", encoding="utf-8") as handle:
            json.dump(contracts, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {CONTRACT_PATH}")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
