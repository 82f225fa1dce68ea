"""The proxies mirror what they wrap and the recorder's arithmetic holds."""

import inspect
import json

import numpy as np
import pytest

from perfbench import metrics as M
from perfbench.proxies import TimedCommunicator, wrap_compressor
from perfbench.spans import SpanRecorder, chrome_trace
from repro.comm.collectives import Communicator
from repro.core import create
from repro.core.api import Compressor


@pytest.mark.parametrize("name", M.COMPRESSORS)
def test_timed_compressor_mirrors_dispatch_metadata(name):
    inner = create(name, seed=3)
    timed = wrap_compressor(inner, SpanRecorder(name))
    for attr in ("name", "family", "stochastic", "communication",
                 "default_memory", "fused_kernel", "aggregation"):
        assert getattr(timed, attr) == getattr(inner, attr), attr
    # The trainer's fast paths test the *class*: the wrapper must answer
    # the way the wrapped compressor does.
    assert (type(timed).aggregate is Compressor.aggregate) == (
        type(inner).aggregate is Compressor.aggregate)


@pytest.mark.parametrize("name", M.COMPRESSORS)
def test_timing_survives_clone_and_changes_no_bit(name):
    rec = SpanRecorder(name)
    tensor = np.random.default_rng(0).standard_normal((64, 8)).astype(np.float32)
    plain = create(name, seed=3).clone(seed=9)
    timed = wrap_compressor(create(name, seed=3), rec).clone(seed=9)
    assert type(timed) is type(wrap_compressor(plain, rec))
    a = plain.compress(tensor, "t")
    b = timed.compress(tensor, "t")
    assert [p.tobytes() for p in a.payload] == [p.tobytes() for p in b.payload]
    assert plain.decompress(a).tobytes() == timed.decompress(b).tobytes()
    assert timed.aggregate([tensor, tensor]).tobytes() == plain.aggregate(
        [tensor, tensor]).tobytes()
    totals = rec.totals
    assert totals[("compressors", "compress")].calls == 1
    assert totals[("compressors", "compress")].nbytes == tensor.nbytes
    assert totals[("compressors", "decompress")].calls == 2


def test_timed_communicator_overrides_every_public_collective():
    public = [
        name for name, member in inspect.getmembers(Communicator)
        if inspect.isfunction(member) and not name.startswith("_")
    ]
    assert public, "Communicator lost its methods?"
    for name in public:
        assert getattr(TimedCommunicator, name) is not getattr(
            Communicator, name), f"{name} would run the base class"


def test_self_times_partition_the_step():
    rec = SpanRecorder("cell", keep_steps=1)

    def leaf():
        return sum(range(2000))

    def middle():
        rec.call(("compressors", "compress"), leaf, nbytes=10)
        rec.call(("compressors", "compress"), leaf, nbytes=10)
        return leaf()

    def step():
        rec.call(("memory", "update"), middle)
        rec.call(("comm", "allgather"), leaf)

    for _ in range(3):
        rec.call(("trainer", "step"), step)
    assert rec.steps == 3
    assert rec.calls("compressors") == 6
    assert rec.nbytes("compressors", "compress") == 60
    total = rec.seconds("trainer", "step")
    assert sum(rec.layer_self_seconds().values()) == pytest.approx(total, rel=1e-9)
    assert rec.seconds("memory") > rec.seconds("compressors")
    # Raw spans: the first step only; parents and the shared step id.
    assert len(rec.spans) == 5
    by_id = {span[0]: span for span in rec.spans}
    root = [span for span in rec.spans if span[1] == -1]
    assert len(root) == 1 and root[0][2:4] == ("trainer", "step")
    assert all(span[6] == 0 for span in rec.spans)
    for span in rec.spans:
        if span[1] != -1:
            parent = by_id[span[1]]
            assert parent[4] <= span[4] and span[5] <= parent[5]


def test_chrome_trace_is_loadable():
    rec = SpanRecorder("cell")
    rec.call(("trainer", "step"), lambda: rec.call(("ndl", "apply_update"), int))
    document = json.loads(json.dumps(chrome_trace([rec])))
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"trainer.step", "ndl.apply_update"}
    assert all(e["dur"] >= 0 and "ts" in e for e in spans)
    child = next(e for e in spans if e["name"] == "ndl.apply_update")
    root = next(e for e in spans if e["name"] == "trainer.step")
    assert child["args"]["parent"] == root["args"]["id"]
    assert child["args"]["cell"] == "cell" and child["args"]["step"] == 0


def test_steps_to_target():
    from perfbench.workloads import steps_to_target

    losses = [4, 4, 2, 2, 1, 1, 0, 0]
    assert steps_to_target(losses, window=2, target=1.0) == 6
    assert steps_to_target(losses, window=2, target=0.0) == 8
    assert steps_to_target(losses, window=2, target=-1.0) is None
    assert steps_to_target(losses[:1], window=2, target=9.0) is None
