"""Gradient fusion: packing, scratch reuse, and fused/unfused parity."""

import copy

import numpy as np
import pytest

from repro.comm import Communicator
from repro.core import (
    BucketSegment,
    DgcMemory,
    DistributedTrainer,
    FusionBucket,
    FusionPlan,
    ResidualMemory,
    ScratchPool,
    available_compressors,
    create,
)
from repro.core.api import CompressedTensor, Compressor, FusedConcatCtx


class MultiTask:
    """Quadratic objective over several tensors of awkward shapes."""

    SHAPES = {
        "conv.w": (7, 5),
        "conv.b": (64,),
        "block.w": (3, 4, 2),
        "scalar": (1,),
        "head.w": (33,),
    }

    def __init__(self, lr=0.05, seed=1):
        rng = np.random.default_rng(seed)
        self.params = {
            name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in self.SHAPES.items()
        }
        self.targets = {
            name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in self.SHAPES.items()
        }
        self.lr = lr

    def forward_backward(self, inputs, targets):
        rng = np.random.default_rng(int(inputs))
        loss = 0.0
        grads = {}
        for name, param in self.params.items():
            delta = param - self.targets[name]
            noise = 0.05 * rng.standard_normal(param.shape)
            grads[name] = (2 * delta + noise).astype(np.float32)
            loss += float(np.sum(delta ** 2))
        return loss, grads

    def apply_update(self, grads):
        for name, grad in grads.items():
            self.params[name] -= self.lr * grad


TOTAL_BYTES = sum(
    4 * int(np.prod(shape)) for shape in MultiTask.SHAPES.values()
)


class EmptyTensorTask(MultiTask):
    """MultiTask plus a tensor of no elements: a bucket that holds it sends
    the kernels that cannot place one back to the generic concatenation."""

    SHAPES = dict(MultiTask.SHAPES, empty=(0, 3))


def run_trajectory(name, fusion_mb, steps=6, n_workers=3, memory=None,
                   task_cls=MultiTask, **params):
    """Train ``task_cls`` and return (final params, trainer)."""
    task = task_cls()
    trainer = DistributedTrainer(
        task, create(name, **params), n_workers=n_workers, seed=0,
        memory=memory, fusion_mb=fusion_mb,
    )
    for step in range(steps):
        trainer.step(
            [(step * n_workers + rank, None) for rank in range(n_workers)]
        )
    return task.params, trainer


class TestFusionPlan:
    def test_greedy_packing_respects_budget(self):
        shapes = [("a", (4,)), ("b", (4,)), ("c", (4,)), ("d", (4,))]
        plan = FusionPlan(shapes, max_bytes=32)  # two 16-byte tensors each
        assert plan.num_buckets == 2
        assert [len(b) for b in plan.buckets] == [2, 2]

    def test_oversized_tensor_gets_dedicated_bucket(self):
        plan = FusionPlan(
            [("small", (2,)), ("huge", (100,)), ("tail", (2,))],
            max_bytes=64,
        )
        assert plan.num_buckets == 3
        assert plan.buckets[1].segments[0].name == "huge"

    def test_order_is_preserved(self):
        shapes = [(f"t{i}", (3,)) for i in range(10)]
        plan = FusionPlan(shapes, max_bytes=1 << 20)
        names = [
            seg.name for bucket in plan.buckets for seg in bucket.segments
        ]
        assert names == [name for name, _ in shapes]

    def test_offsets_restart_per_bucket(self):
        plan = FusionPlan([("a", (4,)), ("b", (4,))], max_bytes=16)
        assert all(b.segments[0].offset == 0 for b in plan.buckets)

    def test_matches_detects_layout_changes(self):
        grads = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
        plan = FusionPlan.from_gradients(grads, 1 << 20)
        assert plan.matches(grads)
        assert not plan.matches({"a": np.zeros((2, 3))})
        assert not plan.matches({"a": np.zeros((3, 2)), "b": np.zeros(5)})

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="max_bytes"):
            FusionPlan([("a", (1,))], max_bytes=0)
        with pytest.raises(ValueError, match="zero tensors"):
            FusionPlan([], max_bytes=64)


class TestFusionBucket:
    def bucket(self):
        return FusionBucket(0, (
            BucketSegment("a", (2, 3), 0, 6),
            BucketSegment("b", (4,), 6, 4),
        ))

    def test_layout_arrays(self):
        bucket = self.bucket()
        assert bucket.numel == 10
        assert bucket.nbytes == 40
        assert list(bucket.sizes) == [6, 4]
        assert list(bucket.offsets) == [0, 6]
        assert list(bucket.segment_ids) == [0] * 6 + [1] * 4
        assert list(bucket.positions_within) == list(range(6)) + list(range(4))
        assert list(bucket.segment_keys) == [0] * 6 + [1 << 32] * 4
        assert list(bucket.ends) == [6, 10]
        assert not bucket.has_empty_segment

    def test_segment_max_and_expand(self):
        bucket = self.bucket()
        flat = np.float32([1, 5, 2, 0, 3, 4, -1, -7, -2, -3])
        assert list(bucket.segment_max(flat)) == [5.0, -1.0]
        assert bucket.segment_max(flat).dtype == np.float32
        assert list(bucket.expand(np.float32([0.5, 2.0]))) == (
            [0.5] * 6 + [2.0] * 4
        )
        assert list(bucket.ratio_counts(0.01)) == [1, 1]
        assert list(bucket.ratio_counts(0.4)) == [3, 2]  # ceil(2.4), ceil(1.6)

    def test_segment_max_of_an_empty_segment_is_zero(self):
        bucket = FusionBucket(0, (
            BucketSegment("void", (0,), 0, 0),
            BucketSegment("a", (3,), 0, 3),
            BucketSegment("gap", (0, 2), 3, 0),
            BucketSegment("b", (2,), 3, 2),
            BucketSegment("tail", (0,), 5, 0),
        ))
        assert bucket.has_empty_segment
        flat = np.float32([-4, -2, -3, 9, 8])
        assert list(bucket.segment_max(flat)) == [0.0, -2.0, 0.0, 9.0, 0.0]

    def test_pack_unpack_roundtrip(self):
        bucket = self.bucket()
        arrays = {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.arange(10, 14, dtype=np.float32),
        }
        flat = bucket.pack(arrays, np.empty(10, dtype=np.float32))
        out = bucket.unpack(flat)
        for name in arrays:
            assert np.array_equal(out[name], arrays[name])
            assert out[name].shape == arrays[name].shape

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FusionBucket(0, ())


class TestScratchPool:
    def test_reuses_buffer_for_same_key(self):
        pool = ScratchPool()
        first = pool.take("k", 16)
        again = pool.take("k", 16)
        assert first is again
        assert pool.allocations == 1

    def test_reallocates_on_size_change_and_clear(self):
        pool = ScratchPool()
        pool.take("k", 16)
        resized = pool.take("k", 32)
        assert resized.size == 32
        assert pool.allocations == 2
        pool.clear()
        pool.take("k", 32)
        assert pool.allocations == 3


# Bucket budgets (MiB): one bucket for the whole model, a split layout,
# an exact fit, and one so small every tensor gets a dedicated bucket.
WHOLE = 64.0
SPLIT = 0.0002
EXACT = TOTAL_BYTES / float(1 << 20)
PER_TENSOR = 0.00001


#: Compressors that ship a whole-bucket kernel, from the registry.
FUSED = tuple(
    name for name in available_compressors() if create(name).fused_kernel
)

#: Why each of the others keeps the generic per-tensor concatenation.  A new
#: compressor has to choose: ship a kernel, or say here why it cannot.
UNFUSED = {
    "atomo": "per-tensor LAPACK on each tensor's own matrix shape",
    "gradiveq": "per-tensor LAPACK on each tensor's own matrix shape",
    "gradzip": "per-tensor LAPACK on each tensor's own matrix shape",
    "powersgd": "per-tensor LAPACK on each tensor's own matrix shape",
}

#: Constructor arguments that make the tiny tensors below select more than
#: one element each.
PARAMS = {"topk": {"ratio": 0.25}, "randomk": {"ratio": 0.3}}


def test_every_compressor_ships_a_kernel_or_says_why_not():
    assert set(FUSED).isdisjoint(UNFUSED)
    assert set(FUSED) | set(UNFUSED) == set(available_compressors())
    assert len(FUSED) == 21


class TestFusedParity:
    """fusion_mb > 0 must reproduce the per-tensor trajectory bitwise.

    Deterministic compressors admit no slack at all; the stochastic ones
    are seeded, and the fused kernels consume the per-rank random streams
    in the same order as the per-tensor path, so they too match bitwise.
    Every kernel in the registry runs with its default memory and, where
    that is an error-feedback memory, without one; powersgd stands for the
    generic concatenating path, and three sparsifiers also run under the
    DGC memory, which masks by the positions their kernels sent.
    """

    CASES = [("powersgd", {}, None)] + [
        (name, PARAMS.get(name, {}), memory)
        for name in FUSED
        for memory in (
            (None,) if create(name).default_memory == "none"
            else (None, "none")
        )
    ] + [
        (name, PARAMS.get(name, {}), "dgc")
        for name in ("topk", "randomk", "thresholdv", "sketchml")
    ] + [("qsparse", {"selection": "randomk", "ratio": 0.3}, None)]

    @pytest.mark.parametrize("fusion_mb", [WHOLE, SPLIT, EXACT, PER_TENSOR])
    @pytest.mark.parametrize("name,params,memory", CASES)
    def test_trajectory_bitwise_equal(self, name, params, memory, fusion_mb):
        baseline, _ = run_trajectory(name, fusion_mb=0.0, memory=memory,
                                     **params)
        fused, _ = run_trajectory(name, fusion_mb=fusion_mb, memory=memory,
                                  **params)
        for key in baseline:
            assert np.array_equal(baseline[key], fused[key]), (name, key)

    def test_dgc_memory_state_matches(self):
        _, unfused = run_trajectory("dgc", fusion_mb=0.0, ratio=0.25)
        for fusion_mb in (WHOLE, SPLIT):
            _, fused = run_trajectory("dgc", fusion_mb=fusion_mb, ratio=0.25)
            assert_dgc_state_equal(unfused, fused)

    def test_residual_memory_state_matches(self):
        _, unfused = run_trajectory("topk", fusion_mb=0.0, ratio=0.25)
        _, fused = run_trajectory("topk", fusion_mb=WHOLE, ratio=0.25)
        for rank in range(3):
            base = unfused.memories[rank]
            other = fused.memories[rank]
            assert isinstance(base, ResidualMemory)
            for name in MultiTask.SHAPES:
                assert np.array_equal(
                    base.residual(name), other.residual(name)
                ), (rank, name)


def assert_dgc_state_equal(unfused, fused):
    """Velocity and accumulation of every tensor on every rank, bitwise."""
    for rank, (base, other) in enumerate(zip(unfused.memories,
                                             fused.memories)):
        assert isinstance(other, DgcMemory)
        assert other._fused_buffers  # ψ ran over whole buckets
        for held in ("_velocity", "_accumulated"):
            for name in unfused.task.SHAPES:
                assert (
                    getattr(base, held)[name].tobytes()
                    == getattr(other, held)[name].tobytes()
                ), (rank, held, name)


class TestDgcMemoryWhereAKernelFallsBack:
    """A kernel that keeps the generic concatenation for a bucket (an empty
    tensor in it, an index encoding) answers ``transmitted_indices`` tensor
    by tensor, in each tensor's own coordinates; the DGC memory must still
    clear the positions of every tensor of the bucket."""

    CASES = [
        ("topk", {"ratio": 0.25}, EmptyTensorTask),
        ("randomk", {"ratio": 0.3}, EmptyTensorTask),
        ("qsparse", {}, EmptyTensorTask),
        ("topk", {"ratio": 0.25, "index_encoding": "delta"}, MultiTask),
    ]

    @pytest.mark.parametrize("fusion_mb", [WHOLE, SPLIT])
    @pytest.mark.parametrize("name,params,task_cls", CASES)
    def test_trajectory_and_state_equal_the_per_tensor_path(
        self, name, params, task_cls, fusion_mb
    ):
        baseline, unfused = run_trajectory(
            name, fusion_mb=0.0, memory="dgc", task_cls=task_cls, **params
        )
        fused_params, fused = run_trajectory(
            name, fusion_mb=fusion_mb, memory="dgc", task_cls=task_cls,
            **params
        )
        assert any(  # the fallback ran
            isinstance(
                create(name, **params).compress_fused(
                    np.ones(bucket.numel, dtype=np.float32), bucket
                ).ctx,
                FusedConcatCtx,
            )
            for bucket in fused._fusion_plan.buckets
        )
        for key in baseline:
            assert np.array_equal(baseline[key], fused_params[key]), key
        assert_dgc_state_equal(unfused, fused)


def _edge_bucket():
    """Where a segmented kernel would first part from the per-tensor one:
    a dead layer, a constant one, signed zeros, a subnormal-only tensor, and
    lengths around the 8-code packing group."""
    rng = np.random.default_rng(0xED6E)
    tiny = np.float32(np.finfo(np.float32).tiny)
    grads = {
        "dead": np.zeros((3, 5), dtype=np.float32),
        "constant": np.full(11, 0.25, dtype=np.float32),
        "signed-zeros": np.float32([0.0, -0.0, 0.5, -0.0, -0.5, 0.0]),
        "subnormal": np.float32([1e-45, -3e-42, tiny / 2, 1e-39, -1e-45]),
        "negative-constant": np.full(4, -1.5, dtype=np.float32),
        "wide": (0.01 * rng.standard_normal((40, 9))).astype(np.float32),
    }
    for length in (1, 7, 8, 9):
        grads[f"len{length}"] = rng.standard_normal(length).astype(np.float32)
    (bucket,) = FusionPlan.from_gradients(grads, 1 << 20).buckets
    return bucket, bucket.pack(grads, np.empty(bucket.numel, dtype=np.float32))


def _state(compressor) -> dict:
    """The random stream and every array a compressor keeps between calls."""
    arrays = {
        f"{attr}/{key}": value.tobytes()
        for attr, held in vars(compressor).items()
        if isinstance(held, dict) and not attr.startswith("_fused")
        for key, value in held.items()
        if isinstance(value, np.ndarray)
    }
    return {"rng": compressor._rng.bit_generator.state, "arrays": arrays}


class TestFusedKernelsOnEdgeBuckets:
    """Kernel vs generic concatenation on one snapshot: decoded bytes, the
    random stream and the compressor's own state (signum's momentum)."""

    # topk's one documented divergence is the index it picks among exact
    # magnitude ties, which constant and all-zero tensors are made of.
    NAMES = [name for name in FUSED if name != "topk"]

    @pytest.mark.parametrize("name", NAMES)
    def test_decode_stream_and_state_equal_the_generic_path(self, name):
        bucket, buffer = _edge_bucket()
        kernel = create(name, seed=5, **PARAMS.get(name, {}))
        generic = copy.deepcopy(kernel)
        for call in range(2):  # the second call sees the advanced state
            values = buffer * np.float32(1 + call)
            fused = kernel.compress_fused(values.copy(), bucket)
            reference = Compressor.compress_fused(
                generic, values.copy(), bucket
            )
            assert not isinstance(fused.ctx, FusedConcatCtx)  # the kernel ran
            assert (
                kernel.decompress_fused(fused).tobytes()
                == generic.decompress_fused(reference).tobytes()
            ), (name, call)
            assert _state(kernel) == _state(generic), (name, call)

    @pytest.mark.parametrize("name", FUSED)
    def test_a_dead_segment_keeps_the_wire_format(self, name):
        """Ranks decode each other's payloads under their own ctx."""
        bucket, buffer = _edge_bucket()
        live = buffer.copy()
        dead = bucket.segments[0]
        live[dead.offset:dead.end] = 0.125
        formats = [
            (type(item.ctx), [part.dtype for part in item.payload])
            for item in (
                create(name, seed=5).compress_fused(values, bucket)
                for values in (buffer, live)
            )
        ]
        assert formats[0] == formats[1]


class DeadLayerTask(MultiTask):
    """MultiTask whose ``conv.b`` gradient is all zero on one rank."""

    N_WORKERS = 3

    def __init__(self, dead_rank):
        super().__init__()
        self.dead_rank = dead_rank

    def forward_backward(self, inputs, targets):
        loss, grads = super().forward_backward(inputs, targets)
        if int(inputs) % self.N_WORKERS == self.dead_rank:
            grads["conv.b"] = np.zeros_like(grads["conv.b"])
        return loss, grads


class PerElementPerf:
    """A kernel costs a launch plus its elements: one launch over a bucket
    is cheaper than one per tensor, so the two pricings differ."""

    def compute_seconds(self, n_samples):
        return 0.0

    def compression_seconds(self, name, n_elements):
        return 1e-4 + 1e-8 * n_elements


class TestSimulatedKernelPrice:
    @pytest.mark.parametrize("name", ["qsgd", "terngrad", "threelc"])
    def test_does_not_depend_on_which_rank_has_the_dead_layer(self, name):
        """The bucket is priced from the first rank's ctx alone."""
        prices = []
        for dead_rank in (None, 0, 1, 2):
            n = DeadLayerTask.N_WORKERS
            trainer = DistributedTrainer(
                DeadLayerTask(dead_rank), create(name), n_workers=n, seed=0,
                fusion_mb=WHOLE, perf_model=PerElementPerf(),
            )
            for step in range(3):
                trainer.step([(step * n + r, None) for r in range(n)])
            prices.append(trainer.report.sim_compression_seconds)
        assert len(set(prices)) == 1
        one_launch = 1e-4 + 1e-8 * (TOTAL_BYTES // 4)
        assert prices[0] == pytest.approx(3 * one_launch)  # one a step


class TestFusedCollectives:
    def test_one_collective_per_bucket(self):
        _, trainer = run_trajectory("topk", fusion_mb=WHOLE, steps=4,
                                    ratio=0.25)
        # 5 tensors fused into one bucket: one allgather per step.
        assert trainer.comm.record.num_ops == 4

    def test_unfused_issues_one_collective_per_tensor(self):
        _, trainer = run_trajectory("topk", fusion_mb=0.0, steps=4,
                                    ratio=0.25)
        assert trainer.comm.record.num_ops == 4 * len(MultiTask.SHAPES)

    def test_per_tensor_buckets_match_unfused_op_count(self):
        _, trainer = run_trajectory("topk", fusion_mb=PER_TENSOR, steps=2,
                                    ratio=0.25)
        assert trainer.comm.record.num_ops == 2 * len(MultiTask.SHAPES)

    def test_bucket_metrics_are_counted(self):
        _, trainer = run_trajectory("topk", fusion_mb=SPLIT, steps=3,
                                    ratio=0.25)
        plan = trainer._fusion_plan
        assert plan.num_buckets > 1
        counted = trainer.metrics.counter("fusion_buckets_total").value
        assert counted == 3 * plan.num_buckets

    def test_fusion_disabled_records_no_buckets(self):
        _, trainer = run_trajectory("topk", fusion_mb=0.0, steps=2,
                                    ratio=0.25)
        assert trainer.metrics.counter("fusion_buckets_total").value == 0

    def test_plan_rebuilds_when_layout_changes(self):
        task = MultiTask()
        trainer = DistributedTrainer(
            task, create("topk", ratio=0.25), n_workers=2, fusion_mb=WHOLE
        )
        trainer.step([(0, None), (1, None)])
        first_plan = trainer._fusion_plan
        trainer.step([(2, None), (3, None)])
        assert trainer._fusion_plan is first_plan


class TestFusedMemoryFastPath:
    def test_flat_residual_matches_per_tensor_state(self):
        plan = FusionPlan([("a", (6,)), ("b", (10,))], 1 << 20)
        bucket = plan.buckets[0]
        rng = np.random.default_rng(3)
        grads = {
            "a": rng.standard_normal(6).astype(np.float32),
            "b": rng.standard_normal(10).astype(np.float32),
        }
        compensated = rng.standard_normal(16).astype(np.float32)
        transmitted = rng.standard_normal(16).astype(np.float32)

        fused = ResidualMemory(beta=0.9, gamma=0.5)
        fused.update_fused(compensated, bucket, transmitted)
        classic = ResidualMemory(beta=0.9, gamma=0.5)
        for seg in bucket.segments:
            classic._residuals[seg.name] = (
                compensated[seg.offset:seg.end]
                - transmitted[seg.offset:seg.end]
            ).reshape(seg.shape)

        out = fused.compensate_fused(grads, bucket,
                                     np.empty(16, dtype=np.float32))
        for seg in bucket.segments:
            expected = classic.compensate(grads[seg.name], seg.name)
            assert np.array_equal(
                out[seg.offset:seg.end].reshape(seg.shape), expected
            )
            assert np.array_equal(
                fused.residual(seg.name), classic.residual(seg.name)
            )

    def test_mixed_usage_falls_back_to_per_tensor_path(self):
        plan = FusionPlan([("a", (4,)), ("b", (4,))], 1 << 20)
        bucket = plan.buckets[0]
        memory = ResidualMemory()
        memory.update_fused(
            np.ones(8, dtype=np.float32), bucket,
            np.zeros(8, dtype=np.float32),
        )
        # A per-tensor update replaces one segment's residual with an
        # array that is no longer a view of the flat bucket residual.
        memory._residuals["a"] = np.full(4, 7.0, dtype=np.float32)
        grads = {
            "a": np.ones(4, dtype=np.float32),
            "b": np.ones(4, dtype=np.float32),
        }
        out = memory.compensate_fused(grads, bucket,
                                      np.empty(8, dtype=np.float32))
        assert np.array_equal(out[:4], np.full(4, 8.0, dtype=np.float32))
        assert np.array_equal(out[4:], np.full(4, 2.0, dtype=np.float32))


class TestFusedDgcMemory:
    """Flat per-bucket velocity/accumulation against the per-tensor dicts."""

    def setup_method(self):
        (self.bucket,) = FusionPlan([("a", (2, 3)), ("b", (10,))],
                                    1 << 20).buckets
        self.rng = np.random.default_rng(4)

    def grads(self):
        return {
            "a": self.rng.standard_normal((2, 3)).astype(np.float32),
            "b": self.rng.standard_normal(10).astype(np.float32),
        }

    def step(self, fused, classic, grads, sent):
        """One φ/ψ round both ways; ``sent`` are flat bucket positions."""
        out = fused.compensate_fused(grads, self.bucket,
                                     np.empty(16, dtype=np.float32))
        fused.update_fused(out, self.bucket, sent)
        compressor = create("dgc")
        for seg in self.bucket.segments:
            expected = classic.compensate(grads[seg.name], seg.name)
            assert np.array_equal(
                out[seg.offset:seg.end].reshape(seg.shape), expected
            )
            local = sent[(sent >= seg.offset) & (sent < seg.end)] - seg.offset
            classic.update(expected, seg.name, compressor, CompressedTensor(
                payload=[np.zeros(local.size, dtype=np.float32),
                         local.astype(np.int32)],
                ctx=(seg.shape, seg.size),
            ))
        for held in ("_velocity", "_accumulated"):
            for seg in self.bucket.segments:
                assert (
                    getattr(fused, held)[seg.name].tobytes()
                    == getattr(classic, held)[seg.name].tobytes()
                ), (held, seg.name)

    def test_state_matches_per_tensor_path_across_steps(self):
        fused, classic = DgcMemory(0.9), DgcMemory(0.9)
        for sent in ([0, 7, 15], [], [5, 6, 7, 8]):
            self.step(fused, classic, self.grads(), np.array(sent, np.int64))
        velocity, _ = fused._fused_buffers[self.bucket.segments]
        assert fused._velocity["b"].base is velocity  # views, not copies

    def test_restored_checkpoint_is_regathered(self):
        fused, classic = DgcMemory(0.5), DgcMemory(0.5)
        self.step(fused, classic, self.grads(), np.array([1, 9]))
        snapshot = fused.state_dict()
        self.step(fused, classic, self.grads(), np.array([2]))
        restored, replay = DgcMemory(0.5), DgcMemory(0.5)
        restored.load_state_dict(snapshot)
        replay.load_state_dict(snapshot)
        # The deep copy cut the views loose from the flat buffers: the
        # per-tensor entries are the state, and the next φ gathers them.
        self.step(restored, replay, self.grads(), np.array([0, 15]))

    def test_per_tensor_compensate_in_between_is_seen(self):
        fused, classic = DgcMemory(0.9), DgcMemory(0.9)
        self.step(fused, classic, self.grads(), np.array([3]))
        extra = self.grads()["a"]
        fused.compensate(extra, "a")  # replaces a's entries with new arrays
        classic.compensate(extra, "a")
        self.step(fused, classic, self.grads(), np.array([4, 12]))

    def test_a_compressor_without_transmitted_indices_is_refused(self):
        trainer = DistributedTrainer(
            MultiTask(), create("qsgd"), n_workers=2, memory="dgc",
            fusion_mb=WHOLE,
        )
        with pytest.raises(ValueError, match="transmitted_indices"):
            trainer.step([(0, None), (1, None)])


class TestTrainerValidation:
    def test_negative_fusion_mb_rejected(self):
        with pytest.raises(ValueError, match="fusion_mb"):
            DistributedTrainer(MultiTask(), create("none"), n_workers=2,
                               fusion_mb=-1.0)

    def test_fused_works_with_explicit_communicator(self):
        task = MultiTask()
        trainer = DistributedTrainer(
            task, create("none"), n_workers=2,
            communicator=Communicator(n_workers=2), fusion_mb=WHOLE,
        )
        trainer.step([(0, None), (1, None)])
        assert trainer.comm.record.num_ops == 1
