"""Rank lanes: a unit's per-rank φ → Q → ψ on concurrent threads.

Lanes are forced here (``lane_count`` and ``LANE_MIN_NUMEL`` patched), so
every unit of a multi-rank simulator step runs on two lanes whatever the
host.  A step on lanes must compute bitwise what the serial loop does;
what must stay serial (traced steps, proxies that have not opted in, a
process computing one rank) must never enter a lane.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.comm import Communicator
from repro.comm.parallel import ParallelWorkerCommunicator
from repro.comm.parameter_server import ParameterServerCommunicator
from repro.comm.shm import SharedArena
from repro.core import DistributedTrainer, WorkerMode, available_compressors
from repro.core import create, exchange
from repro.telemetry import Tracer

from tests.core.test_exchange_digests import ManyTensorTask

N_WORKERS = 4
STEPS = 3

#: Unfused flat, fused over a parameter server with compressed-domain
#: aggregation, and overlapped.
MODES = {
    "flat": dict(fusion_mb=0.0),
    "ps-auto": dict(fusion_mb=0.0008, aggregation="auto", ps=True),
    "overlap": dict(overlap=True),
}


class LaneTask(ManyTensorTask):
    """The digest task plus one matrix the low-rank kernels factor."""

    SHAPES = {**ManyTensorTask.SHAPES, "big.w": (96, 64)}

    def __init__(self):
        super().__init__()
        self.aggregates: list[dict[str, np.ndarray]] = []

    def apply_update(self, grads):
        self.aggregates.append({n: g.copy() for n, g in grads.items()})
        super().apply_update(grads)


def _batches(step: int, n: int = N_WORKERS) -> list:
    return [((rank, step), None) for rank in range(n)]


def _force(monkeypatch, lanes: int) -> list:
    """Run every unit on ``lanes`` lanes; returns the list each entry into
    a lane appends to."""
    entered = []
    in_lanes = exchange._in_lanes

    def counted(calls, n):
        entered.append(len(calls))
        return in_lanes(calls, n)

    monkeypatch.setattr(exchange, "lane_count", lambda: lanes)
    monkeypatch.setattr(exchange, "LANE_MIN_NUMEL", 1)
    monkeypatch.setattr(exchange, "_in_lanes", counted)
    return entered


def _no_lanes(monkeypatch) -> None:
    """Lanes forced on, and entering one fails the test."""

    def refuse(calls, n):
        raise AssertionError("a unit entered a lane")

    monkeypatch.setattr(exchange, "lane_count", lambda: 2)
    monkeypatch.setattr(exchange, "LANE_MIN_NUMEL", 1)
    monkeypatch.setattr(exchange, "_in_lanes", refuse)


def _trainer(name: str, mode: dict, n: int = N_WORKERS, **kwargs):
    mode = dict(mode)
    comm = (ParameterServerCommunicator(n) if mode.pop("ps", False)
            else Communicator(n))
    return DistributedTrainer(
        LaneTask(), create(name), n_workers=n, seed=3, communicator=comm,
        **mode, **kwargs,
    )


def _arrays(tree) -> list[bytes]:
    """Every array of a nested state, as dtype, shape and bytes in order."""
    if isinstance(tree, dict):
        return [b for key in sorted(tree, key=str) for b in _arrays(tree[key])]
    if isinstance(tree, (list, tuple)):
        return [b for item in tree for b in _arrays(item)]
    if isinstance(tree, np.ndarray):
        return [str(tree.dtype).encode(), str(tree.shape).encode(),
                tree.tobytes()]
    return [repr(tree).encode()]


def _run(name: str, mode: dict) -> dict:
    trainer = _trainer(name, mode)
    for step in range(STEPS):
        trainer.step(_batches(step))
    report = trainer.report
    return {
        "aggregates": _arrays(trainer.task.aggregates),
        "params": _arrays(trainer.task.params),
        "losses": list(report.losses),
        "bytes": (report.bytes_per_worker, report.sim_comm_seconds),
        "residuals": _arrays([m.state_dict() for m in trainer.memories]),
        "rng": [repr(c._rng.bit_generator.state) for c in trainer.compressors],
    }


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", available_compressors())
def test_lanes_compute_bitwise_what_the_serial_loop_does(
    name, mode, monkeypatch
):
    monkeypatch.setattr(exchange, "lane_count", lambda: 1)
    serial = _run(name, MODES[mode])
    entered = _force(monkeypatch, 2)
    lanes = _run(name, MODES[mode])
    assert entered and set(entered) == {N_WORKERS}
    for field in serial:
        assert lanes[field] == serial[field], field


def test_the_caller_takes_every_other_rank(monkeypatch):
    _force(monkeypatch, 2)
    trainer = _trainer("topk", MODES["flat"])
    threads: dict[int, set] = {}
    compress_rank = trainer._compress_rank

    def recording(rank, *args, **kwargs):
        threads.setdefault(rank, set()).add(threading.get_ident())
        return compress_rank(rank, *args, **kwargs)

    trainer._compress_rank = recording
    trainer.step(_batches(0))
    caller = {threading.get_ident()}
    assert threads[0] == threads[2] == caller
    assert len(threads[1]) == 1 and threads[1] == threads[3] != caller


def test_the_serial_loops_error_propagates_once_every_lane_stopped(
    monkeypatch
):
    """Ranks 1 and 2 both raise, rank 2 first: the serial loop would have
    raised rank 1's error, so that is the one raised, and only after the
    worker lane returned."""
    _force(monkeypatch, 2)
    trainer = _trainer("topk", MODES["flat"])
    compress_rank = trainer._compress_rank
    running: set[int] = set()
    ran: list[int] = []

    def failing(rank, *args, **kwargs):
        running.add(rank)
        ran.append(rank)
        try:
            if rank == 1:
                time.sleep(0.05)
                raise RuntimeError("rank 1 failed")
            if rank == 2:
                raise RuntimeError("rank 2 failed")
            return compress_rank(rank, *args, **kwargs)
        finally:
            running.discard(rank)

    trainer._compress_rank = failing
    with pytest.raises(RuntimeError, match="rank 1 failed"):
        trainer.step(_batches(0))
    assert running == set()
    assert 3 not in ran  # a lane stops at its first error
    # The worker lane survived the error and serves the next trainer.
    fresh = _trainer("topk", MODES["flat"])
    fresh.step(_batches(0))


def test_a_worker_lane_keeps_the_callers_floating_point_policy():
    """Call 1 runs on the worker lane, under the caller's np.errstate."""
    calls = [lambda: None, lambda: np.float32(3e38) * np.float32(10)]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        exchange._in_lanes(calls, 2)


class RecordingMemory:
    """A proxy in the manner of a timing wrapper: it forwards every other
    attribute, ``concurrent_ranks`` included, to the wrapped memory."""

    def __init__(self, inner, rank: int, log: list):
        self.inner, self.rank, self.log = inner, rank, log

    def __getattr__(self, attr):
        if attr == "inner" or attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def _call(self, method, *args):
        self.log.append(("enter", self.rank, threading.get_ident()))
        time.sleep(0.001)  # long enough for a concurrent lane to show
        try:
            return getattr(self.inner, method)(*args)
        finally:
            self.log.append(("exit", self.rank, threading.get_ident()))

    def compensate_fused(self, gradients, bucket, out):
        return self._call("compensate_fused", gradients, bucket, out)

    def update_fused(self, compensated, bucket, transmitted):
        return self._call("update_fused", compensated, bucket, transmitted)


def test_a_proxy_that_has_not_opted_in_sees_nested_calls(monkeypatch):
    _no_lanes(monkeypatch)
    trainer = _trainer("topk", MODES["flat"])
    log: list = []
    trainer.memories = [
        RecordingMemory(memory, rank, log)
        for rank, memory in enumerate(trainer.memories)
    ]
    assert trainer.memories[0].concurrent_ranks is True  # forwarded
    for step in range(2):
        trainer.step(_batches(step))
    assert log
    caller = threading.get_ident()
    for enter, leave in zip(log[::2], log[1::2]):
        assert enter[0] == "enter" and leave[0] == "exit"
        assert enter[1] == leave[1] and enter[2] == leave[2] == caller


def test_a_traced_step_runs_serially(monkeypatch):
    _no_lanes(monkeypatch)
    trainer = _trainer("topk", MODES["flat"], tracer=Tracer())
    trainer.step(_batches(0))


def test_a_one_rank_trainer_starts_no_lane(monkeypatch):
    _no_lanes(monkeypatch)
    trainer = _trainer("topk", MODES["flat"], n=1)
    trainer.step(_batches(0, n=1))


def test_worker_mode_starts_no_lane(monkeypatch):
    """Each worker process computes one rank: here two on threads."""
    _no_lanes(monkeypatch)
    owner = SharedArena.create(n_ranks=2, data_bytes=1 << 20, meta_slots=64)
    arenas = [SharedArena.attach(owner.spec, rank=r) for r in range(2)]
    failures: list[BaseException] = []

    def rank_main(rank: int) -> None:
        comm = ParallelWorkerCommunicator(arenas[rank], rank, timeout=10.0)
        try:
            trainer = DistributedTrainer(
                LaneTask(), create("topk"), n_workers=2, seed=3,
                communicator=comm, worker=WorkerMode(rank),
            )
            for step in range(2):
                trainer.step(_batches(step, n=2))
        except BaseException as error:
            failures.append(error)
            comm.arena.abort()

    threads = [threading.Thread(target=rank_main, args=(r,)) for r in (0, 1)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        for arena in arenas:
            arena.close()
        owner.close()
    assert not failures, failures


def test_importing_starts_no_thread():
    code = (
        "import threading, repro.core, repro.bench.runner; "
        "print(len(threading.enumerate()))"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1"]


@pytest.mark.parametrize("env, cores, lanes", [
    ({}, 2, 1),  # unpinned BLAS takes every core
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
      "MKL_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
    ({"OMP_NUM_THREADS": "2"}, 4, 2),
    ({"OMP_NUM_THREADS": "2"}, 3, 1),
    ({"OMP_NUM_THREADS": "0", "MKL_NUM_THREADS": "x"}, 4, 1),
])
def test_lanes_are_the_cores_blas_leaves_free(env, cores, lanes, monkeypatch):
    from repro.comm.parallel import THREAD_VARS

    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(exchange.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    assert exchange.lane_count() == lanes
