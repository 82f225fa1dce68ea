"""Real-parallel backend (`repro.comm.parallel`).

Three tiers, cheapest first:

* in-process two-rank collectives — two attached communicators driven
  by threads over one arena, exercising dense/wire paths and rank-order
  reduction without spawn costs;
* single-rank nonblocking handles — drain-exactly-once semantics;
* real spawn tests — the ISSUE acceptance check (sequential vs parallel
  bitwise model-state agreement for topk and signsgd on the fig6a
  workload) plus the typed crash paths.  These pay process spawn +
  import costs (seconds each), so they are deliberately few.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.comm.parallel import (
    ParallelCrashError,
    ParallelRunConfig,
    ParallelWorkerCommunicator,
    model_digest,
    rank_thread_env,
    run_parallel,
)
from repro.comm.shm import (
    STATUS_FAILED,
    ArenaProtocolError,
    SharedArena,
)
from repro.comm.timeline import SimTimeline
from repro.faults.plan import WorkerCrashError

FIG6A = "resnet20-cifar10"


@pytest.fixture
def two_rank_comms():
    owner = SharedArena.create(n_ranks=2, data_bytes=1 << 20, meta_slots=64)
    arenas = [SharedArena.attach(owner.spec, rank=r) for r in range(2)]
    comms = [
        ParallelWorkerCommunicator(arena, rank, timeout=10.0)
        for rank, arena in enumerate(arenas)
    ]
    yield comms
    for arena in arenas:
        arena.close()
    owner.close()


def _both(comms, fn):
    """Run ``fn(comm)`` on both ranks concurrently; return rank-indexed."""
    results: dict[int, object] = {}
    failures: dict[int, BaseException] = {}

    def target(comm):
        try:
            results[comm.rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures[comm.rank] = exc
            comm.arena.abort()

    threads = [threading.Thread(target=target, args=(c,)) for c in comms]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    if failures:
        raise failures[min(failures)]
    return [results[rank] for rank in range(len(comms))]


class TestInProcessCollectives:
    def test_allreduce_dense_bitwise(self, two_rank_comms):
        rng = np.random.default_rng(0)
        contributions = [
            rng.standard_normal(37).astype(np.float32) for _ in range(2)
        ]
        expected = np.sum(np.stack(contributions), axis=0)
        totals = _both(
            two_rank_comms,
            lambda c: c.allreduce([contributions[c.rank]]),
        )
        for total in totals:
            assert total.tobytes() == expected.tobytes()

    def test_allreduce_parts_wire_path(self, two_rank_comms):
        rng = np.random.default_rng(1)
        payloads = [
            [rng.standard_normal(8).astype(np.float32),
             rng.integers(0, 9, 5).astype(np.int64)]
            for _ in range(2)
        ]
        expected = [
            np.sum(np.stack([payloads[r][i] for r in range(2)]), axis=0)
            for i in range(2)
        ]
        summed = _both(
            two_rank_comms,
            lambda c: c.allreduce_parts([payloads[c.rank]]),
        )
        for parts in summed:
            for got, want in zip(parts, expected):
                assert got.tobytes() == want.tobytes()

    def test_allgather_rank_order(self, two_rank_comms):
        payloads = [
            [np.full(3 + rank, rank, dtype=np.float32)] for rank in range(2)
        ]
        gathered = _both(
            two_rank_comms, lambda c: c.allgather([payloads[c.rank]])
        )
        for per_rank in gathered:
            assert len(per_rank) == 2
            for rank, parts in enumerate(per_rank):
                np.testing.assert_array_equal(parts[0], payloads[rank][0])

    def test_exchange_objects(self, two_rank_comms):
        gathered = _both(
            two_rank_comms,
            lambda c: c.exchange_objects({"rank": c.rank, "loss": c.rank / 4}),
        )
        assert gathered[0] == gathered[1] == [
            {"rank": 0, "loss": 0.0}, {"rank": 1, "loss": 0.25},
        ]

    def test_part_count_mismatch_is_protocol_error(self, two_rank_comms):
        ones = np.ones(4, dtype=np.float32)
        payloads = [[ones, ones], [ones, ones, ones]]
        with pytest.raises((ArenaProtocolError, WorkerCrashError)):
            _both(
                two_rank_comms,
                lambda c: c.allreduce_parts([payloads[c.rank]]),
            )

    def test_requires_single_contribution(self, two_rank_comms):
        comm = two_rank_comms[0]
        with pytest.raises(ValueError, match="exactly its own"):
            comm.allreduce([np.ones(2, np.float32), np.ones(2, np.float32)])

    def test_broadcast_ships_root_payload(self, two_rank_comms):
        payload = [
            np.arange(5, dtype=np.float32),
            np.array([3, 1], dtype=np.int32),
        ]
        results = _both(
            two_rank_comms,
            # MPI buffer semantics: the non-root rank's argument is
            # ignored; both must receive the root's exact parts.
            lambda c: c.broadcast(
                [p.copy() for p in payload] if c.rank == 1 else [], root=1
            ),
        )
        for per_rank in results:
            assert len(per_rank) == 2
            for dest in per_rank:
                np.testing.assert_array_equal(dest[0], payload[0])
                np.testing.assert_array_equal(dest[1], payload[1])
                assert dest[1].dtype == np.int32

    def test_broadcast_charges_and_validates_root(self, two_rank_comms):
        with pytest.raises(ValueError, match="root"):
            two_rank_comms[0].broadcast([np.ones(2, np.float32)], root=7)
        before = [c.record.simulated_seconds for c in two_rank_comms]
        _both(
            two_rank_comms,
            lambda c: c.broadcast([np.ones(8, np.float32)], root=0),
        )
        for comm, prior in zip(two_rank_comms, before):
            assert comm.record.simulated_seconds > prior

    def test_sparse_allreduce_matches_sequential(self, two_rank_comms):
        """Same sum, bit for bit, and the same block-sparse charge as the
        sequential communicator (a few non-zero blocks, a ragged tail)."""
        from repro.comm.collectives import Communicator

        rng = np.random.default_rng(3)
        tensors = []
        for rank in range(2):
            tensor = np.zeros(1000, dtype=np.float32)
            start = 256 * rank + 17
            tensor[start:start + 40] = rng.standard_normal(40)
            tensors.append(tensor.reshape(10, 100))
        sequential = Communicator(2)
        expected = sequential.sparse_allreduce(tensors, block_size=64)
        totals = _both(
            two_rank_comms,
            lambda c: c.sparse_allreduce([tensors[c.rank]], block_size=64),
        )
        for comm, total in zip(two_rank_comms, totals):
            assert total.tobytes() == expected.tobytes()
            assert total.shape == expected.shape
            assert (
                comm.record.simulated_seconds
                == sequential.record.simulated_seconds
            )
            assert (
                comm.record.bytes_sent_per_worker
                == sequential.record.bytes_sent_per_worker
            )
            assert comm.record.registry.value(
                "comm_op_count_total", {"op": "sparse_allreduce"}
            ) == 1.0
        with pytest.raises(ValueError, match="block_size"):
            two_rank_comms[0].sparse_allreduce([tensors[0]], block_size=0)


@pytest.fixture
def tight_comms():
    """Two ranks on a 4-slot metadata ring and a 4 KiB data segment."""
    owner = SharedArena.create(n_ranks=2, data_bytes=4096, meta_slots=4)
    arenas = [SharedArena.attach(owner.spec, rank=r) for r in range(2)]
    yield [
        ParallelWorkerCommunicator(arena, rank, timeout=10.0)
        for rank, arena in enumerate(arenas)
    ]
    for arena in arenas:
        arena.close()
    owner.close()


class TestWideWindows:
    """More collectives in flight than the arena holds at once.

    The reclamation floor is a minimum over every active rank, the
    poster included, so a rank that only *waited* for room would wait
    on its own unread handles (60 s, then a timeout blaming its peers).
    A post that has to wait runs the progress engine instead.
    """

    @staticmethod
    def _window(comm, payloads, finish_order):
        start = time.perf_counter()
        handles = [comm.iallgather([[p]]) for p in payloads[comm.rank]]
        results = {i: handles[i].wait() for i in finish_order}
        return time.perf_counter() - start, [results[i] for i in sorted(results)]

    @pytest.mark.parametrize("order", ["issue", "reversed"])
    def test_twice_the_metadata_ring_in_flight(self, tight_comms, order):
        n = 2 * tight_comms[0].arena.spec.meta_slots
        payloads = [
            [np.full(3, 10 * rank + i, dtype=np.float32) for i in range(n)]
            for rank in range(2)
        ]
        finish = range(n) if order == "issue" else reversed(range(n))
        finish = list(finish)
        outcomes = _both(
            tight_comms, lambda c: self._window(c, payloads, finish)
        )
        for elapsed, gathered in outcomes:
            assert elapsed < 1.0
            for i, per_rank in enumerate(gathered):
                for rank in range(2):
                    np.testing.assert_array_equal(
                        per_rank[rank][0], payloads[rank][i]
                    )
        for comm in tight_comms:
            assert int(comm.arena._drained[comm.rank]) == n
            assert not comm._live

    def test_window_larger_than_the_data_segment(self, tight_comms):
        capacity = tight_comms[0].arena.spec.data_bytes
        payloads = [
            [np.full(400, 7 * rank + i, dtype=np.float32) for i in range(4)]
            for rank in range(2)
        ]
        assert sum(p.nbytes for p in payloads[0]) > capacity
        outcomes = _both(
            tight_comms, lambda c: self._window(c, payloads, range(4))
        )
        for elapsed, gathered in outcomes:
            assert elapsed < 1.0
            for i, per_rank in enumerate(gathered):
                for rank in range(2):
                    np.testing.assert_array_equal(
                        per_rank[rank][0], payloads[rank][i]
                    )

    def test_last_issued_finished_first_while_the_peer_is_short_of_room(
        self, tight_comms
    ):
        """Rank 0's payloads all fit, rank 1's do not: rank 1 can only
        post its third once rank 0 has drained the first, and rank 0 is
        by then blocked waiting on the *last* — so a blocking wait has
        to keep the engine running too."""
        payloads = [
            [np.full(20, i, dtype=np.float32) for i in range(6)],
            [np.full(400, -i, dtype=np.float32) for i in range(6)],
        ]
        outcomes = _both(
            tight_comms,
            lambda c: self._window(c, payloads, list(reversed(range(6)))),
        )
        for elapsed, gathered in outcomes:
            assert elapsed < 1.0
            for i, per_rank in enumerate(gathered):
                for rank in range(2):
                    np.testing.assert_array_equal(
                        per_rank[rank][0], payloads[rank][i]
                    )

    def test_reverse_finish_replays_clean_under_the_sanitizer(self):
        """Handles finished last-issued-first on a ring they overflow:
        the happens-before replay (reads vs publications, allocator
        reuse vs the drained floor, reads vs this rank's own drains)
        finds nothing."""
        from repro.comm.sanitizer import collect_report

        owner = SharedArena.create(
            n_ranks=2, data_bytes=4096, meta_slots=4, event_slots=1024
        )
        arenas = [SharedArena.attach(owner.spec, rank=r) for r in range(2)]
        try:
            comms = [
                ParallelWorkerCommunicator(arena, rank, timeout=10.0)
                for rank, arena in enumerate(arenas)
            ]
            payloads = [
                [np.full(120, 9 * rank + i, dtype=np.float32)
                 for i in range(10)]
                for rank in range(2)
            ]
            _both(comms, lambda c: self._window(
                c, payloads, list(reversed(range(10)))
            ))
            report = collect_report(owner)
        finally:
            for arena in arenas:
                arena.close()
            owner.close()
        assert report.ok, [str(v) for v in report.violations]
        assert not report.dropped
        assert set(report.per_rank_events) == {0, 1}

    def test_drained_never_passes_a_handle_still_to_be_read(
        self, two_rank_comms
    ):
        """Rank 0 finishes its second collective (a broadcast it is the
        root of, so nobody to wait for) while its first is unread:
        ``drained`` must stay put, or rank 1 could reclaim the bytes of
        the first before rank 0 has read them."""
        zero, one = two_rank_comms
        payload = [np.arange(6, dtype=np.float32)]
        first = zero.iallgather([[np.zeros(2, np.float32)]])
        zero.broadcast(payload, root=0)
        assert not first.test()
        assert int(zero.arena._drained[0]) == 0
        # Rank 1 catches up; nothing below blocks.
        one.iallgather([[np.ones(2, np.float32)]]).wait()
        np.testing.assert_array_equal(
            one.broadcast([], root=0)[1][0], payload[0]
        )
        assert int(one.arena._drained[1]) == 2
        gathered = first.wait()
        np.testing.assert_array_equal(gathered[1][0], 1.0)
        assert int(zero.arena._drained[0]) == 2


class DeadLayerTask:
    """Two ranks, three tensors; on ``dead_rank`` the middle one's gradient
    is all zero — a ReLU layer that died on one rank's mini-batch."""

    SHAPES = {"first.w": (9, 5), "dead.w": (33,), "last.b": (8,)}

    def __init__(self, dead_rank: int):
        rng = np.random.default_rng(7)
        self.dead_rank = dead_rank
        self.params = {
            name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in self.SHAPES.items()
        }

    def forward_backward(self, inputs, targets):
        rank, step = inputs
        rng = np.random.default_rng([rank, step])
        grads = {
            name: (param + 0.1 * rng.standard_normal(param.shape)).astype(
                np.float32
            )
            for name, param in self.params.items()
        }
        if rank == self.dead_rank:
            grads["dead.w"] = np.zeros_like(grads["dead.w"])
        return float(sum(np.vdot(g, g) for g in grads.values())), grads

    def apply_update(self, grads):
        for name, grad in grads.items():
            self.params[name] -= np.float32(0.05) * grad


def _dead_layer_run(compressor: str, comm=None, rank=None, dead_rank=1,
                    fusion_mb=64.0):
    from repro.core import DistributedTrainer, create

    task = DeadLayerTask(dead_rank)
    trainer = DistributedTrainer(
        task, create(compressor), n_workers=2, seed=0, fusion_mb=fusion_mb,
        communicator=comm, rank=rank,
    )
    for step in range(4):
        trainer.step([((r, step), None) for r in range(2)])
    return model_digest(task.params)


class TestDeadLayerOnOneRank:
    """In worker mode a rank decodes its peer's fused payload under its own
    ctx, so a layer that is dead on one rank only must not change the wire
    format (qsgd and terngrad used to switch to the generic concatenation
    on a zero norm / zero scale: ``too many values to unpack``)."""

    @pytest.mark.parametrize("compressor", [
        "qsgd", "terngrad", "eightbit", "threelc", "inceptionn", "lpcsvrg",
        "onebit", "thresholdv", "sketchml", "sketchsgd", "qsparse", "dgc",
        "adaptive", "variance",
    ])
    def test_worker_mode_matches_sequential_bitwise(
        self, two_rank_comms, compressor
    ):
        sequential = _dead_layer_run(compressor)
        workers = _both(
            two_rank_comms,
            lambda comm: _dead_layer_run(compressor, comm, comm.rank),
        )
        assert workers == [sequential, sequential]


class TestDecodeOnceInWorkerMode:
    """ψ decodes a rank's own payload to form its residual; aggregation
    reuses that decode, so per tensor a rank decodes its own payload and
    its peer's — two calls, not three."""

    def test_per_tensor_topk_decodes_each_payload_once(
        self, two_rank_comms, monkeypatch
    ):
        from repro.core import DistributedTrainer, create
        from repro.core.compressors.topk import TopKCompressor

        calls: dict[int, int] = {}
        decompress = TopKCompressor.decompress

        def counting(self, compressed):
            thread = threading.get_ident()
            calls[thread] = calls.get(thread, 0) + 1
            return decompress(self, compressed)

        monkeypatch.setattr(TopKCompressor, "decompress", counting)

        def per_step(comm):
            trainer = DistributedTrainer(
                DeadLayerTask(dead_rank=1), create("topk"), n_workers=2,
                seed=0, communicator=comm, rank=comm.rank,
            )
            counts = []
            for step in range(3):
                before = calls.get(threading.get_ident(), 0)
                trainer.step([((r, step), None) for r in range(2)])
                counts.append(calls[threading.get_ident()] - before)
            return counts

        expected = [2 * len(DeadLayerTask.SHAPES)] * 3
        assert _both(two_rank_comms, per_step) == [expected, expected]

    def test_dgc_memory_reads_sent_indices_through_the_wrapper(
        self, two_rank_comms
    ):
        """ψ of the DGC memory asks the wrapped compressor for
        ``transmitted_indices``; per tensor, worker mode must still match
        the sequential run bitwise."""
        sequential = _dead_layer_run("dgc", fusion_mb=0.0)
        workers = _both(
            two_rank_comms,
            lambda comm: _dead_layer_run(
                "dgc", comm, comm.rank, fusion_mb=0.0
            ),
        )
        assert workers == [sequential, sequential]


@pytest.fixture
def solo_comm():
    owner = SharedArena.create(n_ranks=1, data_bytes=1 << 20, meta_slots=64)
    arena = SharedArena.attach(owner.spec, rank=0)
    yield ParallelWorkerCommunicator(arena, 0, timeout=5.0)
    arena.close()
    owner.close()


class TestNonblockingHandles:
    def test_iallreduce_parts_drained_exactly_once(self, solo_comm):
        arena = solo_comm.arena
        part = np.arange(6, dtype=np.float32)
        handle = solo_comm.iallreduce_parts([[part]])
        assert int(arena._drained[0]) == 0  # not drained until wait()
        first = handle.wait()
        assert int(arena._drained[0]) == 1
        second = handle.wait()  # cached — must not re-drain or re-reduce
        assert second is first
        assert int(arena._drained[0]) == 1
        assert first[0].tobytes() == part.tobytes()

    def test_iallreduce_parts_charges_and_schedules_at_issue(self, solo_comm):
        timeline = SimTimeline()
        before = solo_comm.record.simulated_seconds
        handle = solo_comm.iallreduce_parts(
            [[np.ones(4, dtype=np.float32)]],
            ready_at=1.0, timeline=timeline,
        )
        assert solo_comm.record.simulated_seconds > before  # charged at issue
        assert handle.event is not None
        assert handle.event.start >= 1.0
        handle.wait()

    def test_iallgather_defers_charge_to_wait(self, solo_comm):
        timeline = SimTimeline()
        before = solo_comm.record.simulated_seconds
        handle = solo_comm.iallgather(
            [[np.ones(4, dtype=np.float32)]],
            ready_at=2.0, timeline=timeline,
        )
        # Peer sizes are unknown at issue: no charge, no event yet.
        assert solo_comm.record.simulated_seconds == before
        assert handle.event is None
        (gathered,) = handle.wait()
        np.testing.assert_array_equal(gathered[0], 1.0)
        assert solo_comm.record.simulated_seconds > before
        assert handle.event is not None
        assert handle.event.start >= 2.0


# ---------------------------------------------------------------------------
# Spawn tests (expensive: real processes, real imports)
# ---------------------------------------------------------------------------


def _sequential_run(compressor: str, n_workers: int = 4, **kwargs):
    from repro.bench.runner import build_trainer
    from repro.bench.suite import get_benchmark

    spec = get_benchmark(FIG6A)
    trainer, run = build_trainer(
        spec, compressor, n_workers=n_workers, seed=0, **kwargs
    )
    report = trainer.train(run.loader, epochs=1, eval_fn=run.eval_fn)
    params = {
        name: np.asarray(param.data)
        for name, param in run.model.named_parameters()
    }
    return report, params


class TestRunParallel:
    @pytest.mark.parametrize("compressor", ["topk", "signsgd"])
    def test_bitwise_matches_sequential(self, compressor):
        """ISSUE acceptance: fig6a workload, 4 real processes, 1 epoch."""
        seq_report, seq_params = _sequential_run(compressor)
        result = run_parallel(ParallelRunConfig(
            benchmark=FIG6A, compressor=compressor, nproc=4,
            seed=0, epochs=1, arena_bytes=8 * 1024 * 1024,
        ))
        assert set(result.digests.values()) == {model_digest(seq_params)}
        assert result.report.losses == seq_report.losses
        assert (
            result.report.sim_comm_seconds == seq_report.sim_comm_seconds
        )
        assert (
            result.report.bytes_per_worker == seq_report.bytes_per_worker
        )

    @pytest.mark.parametrize("compressor, fusion_mb", [
        ("qsgd", 0.0),  # stochastic; 29 allgathers a step, split-phase
        ("none", 64.0),  # one zero-copy dense allreduce a step
    ])
    def test_two_rank_cells_match_sequential(self, compressor, fusion_mb):
        seq_report, seq_params = _sequential_run(
            compressor, n_workers=2, fusion_mb=fusion_mb
        )
        result = run_parallel(ParallelRunConfig(
            benchmark=FIG6A, compressor=compressor, nproc=2, seed=0,
            epochs=1, fusion_mb=fusion_mb,
        ))
        assert set(result.digests.values()) == {model_digest(seq_params)}
        assert len(result.digests) == 2
        assert result.report.losses == seq_report.losses
        assert (
            result.report.sim_comm_seconds == seq_report.sim_comm_seconds
        )
        assert (
            result.report.bytes_per_worker == seq_report.bytes_per_worker
        )

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity"
    )
    def test_two_ranks_on_one_core_finish_in_time(self):
        """Oversubscribed: the ranks inherit the parent's one-core mask,
        so a rank that spun through its poll budget would keep the peer
        it waits for off the CPU.  Same model, inside a time cap."""
        _, seq_params = _sequential_run("topk", n_workers=2)
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            start = time.perf_counter()
            result = run_parallel(ParallelRunConfig(
                benchmark=FIG6A, compressor="topk", nproc=2, seed=0,
                epochs=1,
            ))
            elapsed = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, allowed)
        assert set(result.digests.values()) == {model_digest(seq_params)}
        assert elapsed < 30.0

    @pytest.mark.parametrize("fusion_mb", [0.0, 64.0])
    def test_sketchml_decodes_peers_whose_zeros_fall_elsewhere(
        self, fusion_mb
    ):
        """Each rank's batch touches other embedding rows, so the ranks'
        gradients differ in where they are zero, and a rank decodes its
        peer under its own ctx: per tensor the non-zero count used to ride
        in ctx (``ValueError: shape mismatch`` on step 1), and the fused
        format may depend on the bucket layout only."""
        result = run_parallel(ParallelRunConfig(
            benchmark="ncf-movielens", compressor="sketchml", nproc=2,
            seed=0, epochs=1, fusion_mb=fusion_mb,
        ))
        assert len(set(result.digests.values())) == 1
        assert len(result.digests) == 2 and result.report.losses

    def test_sanitize_arena_attaches_a_clean_replay_report(self):
        result = run_parallel(ParallelRunConfig(
            benchmark=FIG6A, compressor="topk", nproc=2,
            seed=0, epochs=1, arena_bytes=8 * 1024 * 1024,
            sanitize_arena=True,
        ))
        san = result.sanitizer
        assert san is not None
        assert san.ok, [str(v) for v in san.violations]
        assert san.events_total > 0
        assert set(san.per_rank_events) == {0, 1}

    def test_merged_metrics_say_who_waited_on_whom(self):
        result = run_parallel(ParallelRunConfig(
            benchmark="ncf-movielens", compressor="topk", nproc=2,
            seed=0, epochs=1, metrics=True,
        ))
        metrics = result.metrics
        waited = {
            (dict(h.labels)["rank"], dict(h.labels)["peer"]): h
            for h in metrics.instruments("arena_wait_seconds")
        }
        # Whichever rank reaches a rendezvous first waits on the other;
        # spawn skew alone makes the first one a wait for somebody.
        assert waited and set(waited) <= {
            ("0", "1"), ("1", "0"), ("0", "reclaim"), ("1", "reclaim"),
        }
        assert {("0", "1"), ("1", "0")} & set(waited)
        for histogram in waited.values():
            assert histogram.count >= 1 and histogram.sum > 0.0
        polls = sum(
            counter.value
            for counter in metrics.instruments("arena_polls_total")
        )
        assert polls >= sum(h.count for h in waited.values())
        assert {
            dict(c.labels)["phase"]
            for c in metrics.instruments("arena_polls_total")
        } == {"spin", "sleep"}

    def test_ranks_share_the_cores_unless_the_user_pinned_them(
        self, monkeypatch
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        share = str(max(1, os.cpu_count() // 2))
        expected = {
            "OMP_NUM_THREADS": share,
            "OPENBLAS_NUM_THREADS": "3",  # the user's value wins
            "MKL_NUM_THREADS": share,
        }
        assert rank_thread_env(2) == expected
        result = run_parallel(ParallelRunConfig(
            benchmark="ncf-movielens", compressor="none", nproc=2,
            seed=0, epochs=1,
        ))
        # What the leader rank itself read from its environment ...
        assert result.environment == expected
        # ... and the parent's own is back to what it was.
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ
        assert "MKL_NUM_THREADS" not in os.environ

    def test_worker_failure_is_typed_not_a_hang(self):
        with pytest.raises(ParallelCrashError) as excinfo:
            run_parallel(ParallelRunConfig(
                benchmark=FIG6A, compressor="no-such-compressor", nproc=2,
                epochs=1,
            ))
        assert isinstance(excinfo.value, WorkerCrashError)
        assert "2 of 2 workers failed" in str(excinfo.value)


def _surviving_rank(spec, rank, out_queue):
    """Spawn target: two allreduces; the second outlives its peer."""
    arena = SharedArena.attach(spec, rank)
    try:
        comm = ParallelWorkerCommunicator(arena, rank, timeout=30.0)
        ones = np.ones(4, dtype=np.float32)
        comm.allreduce([ones])
        try:
            comm.allreduce([ones])
            out_queue.put(("completed", rank))
        except WorkerCrashError as exc:
            out_queue.put(("typed-crash", type(exc).__name__))
    finally:
        arena.close()


def _crashing_rank(spec, rank, out_queue):
    """Spawn target: one allreduce, then die the way `_worker_main` does."""
    arena = SharedArena.attach(spec, rank)
    try:
        comm = ParallelWorkerCommunicator(arena, rank, timeout=30.0)
        comm.allreduce([np.ones(4, dtype=np.float32)])
        arena.set_status(STATUS_FAILED)
        arena.abort()
        out_queue.put(("crashed", rank))
    finally:
        arena.close()


class TestCrashMidCollective:
    def test_survivor_raises_typed_error_instead_of_hanging(self):
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        owner = SharedArena.create(n_ranks=2, data_bytes=1 << 20)
        out_queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_surviving_rank, args=(owner.spec, 0, out_queue)
            ),
            ctx.Process(
                target=_crashing_rank, args=(owner.spec, 1, out_queue)
            ),
        ]
        try:
            for proc in procs:
                proc.start()
            outcomes = {tuple(out_queue.get(timeout=60.0)) for _ in procs}
            for proc in procs:
                proc.join(timeout=30.0)
        finally:
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - backstop
                    proc.terminate()
                    proc.join(timeout=5.0)
            owner.close()
        assert ("crashed", 1) in outcomes
        assert ("typed-crash", "ArenaAbortedError") in outcomes
