"""Compressed-domain (homomorphic) aggregation.

Three layers of guarantees:

* per-kind laws — ``exact-linear`` schemes must satisfy
  ``decompress(aggregate(p..)) == Σ decompress(p)`` bitwise on float32,
  ``codebook`` schemes must stay inside the declared ``n·δ*`` lattice
  bound, and ``sketch`` schemes must be linear *in sketch space*;
* a registry-wide capability-honesty sweep — every compressor either
  aggregates dense, degenerate and fused payloads or raises the typed
  :class:`AggregationUnsupportedError`;
* trainer parity — the parameter-server aggregated fast path must
  produce the same final model state, bitwise, as the legacy relay.
"""

import numpy as np
import pytest

from repro.comm import (
    Communicator,
    HierarchicalCommunicator,
    ParameterServerCommunicator,
)
from repro.core.api import (
    AGGREGATION_KINDS,
    AggregationUnsupportedError,
    CompressedTensor,
    Compressor,
    concat_compressed,
    flatten_with_shape,
    is_fused_concat_ctx,
    summand_count,
)
from repro.core.contract import ContractChecker, ContractViolation
from repro.core.fusion import BucketSegment, FusionBucket
from repro.core.registry import (
    aggregation_kind,
    available_compressors,
    create,
    supports_compressed_aggregation,
)

EXACT_LINEAR = ("none", "topk", "randomk", "sketchml", "powersgd", "atomo")
CODEBOOK = ("qsgd", "eightbit", "natural")
SKETCH = ("sketchsgd",)
AGGREGATING = EXACT_LINEAR + CODEBOOK + SKETCH


def correlated_gradients(n, size, seed=0, noise=0.05):
    """Per-worker gradients sharing a signal (overlapping heavy hitters)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(size).astype(np.float32)
    return [
        base + noise * rng.standard_normal(size).astype(np.float32)
        for _ in range(n)
    ]


def compress_cohort(name, grads, tensor_name="w", **params):
    """One cloned compressor per worker, like the trainer builds them."""
    proto = create(name, seed=0, **params)
    comps = [proto.clone(seed=r) for r in range(len(grads))]
    return comps, [
        comp.compress(grad, tensor_name)
        for comp, grad in zip(comps, grads)
    ]


def reference_sum(compressor, items):
    """Decompress-then-add in worker order (what a relay reducer does)."""
    return np.sum(
        np.stack([compressor.decompress(item) for item in items]), axis=0
    )


class TestExactLinearLaws:
    @pytest.mark.parametrize("name", EXACT_LINEAR)
    def test_sum_commutes_with_decompression_bitwise(self, name):
        grads = correlated_gradients(5, 512)
        comps, items = compress_cohort(name, grads)
        agg = comps[0].aggregate_compressed(items)
        decoded = comps[0].decompress_aggregated(agg)
        expected = reference_sum(comps[0], items)
        assert decoded.shape == expected.shape
        assert (decoded + 0.0).tobytes() == (expected + 0.0).tobytes(), name

    @pytest.mark.parametrize("name", EXACT_LINEAR)
    def test_summand_counts_accumulate(self, name):
        grads = correlated_gradients(4, 128)
        comps, items = compress_cohort(name, grads)
        assert all(summand_count(item) == 1 for item in items)
        halves = [
            comps[0].aggregate_compressed(items[:2]),
            comps[0].aggregate_compressed(items[2:]),
        ]
        assert [summand_count(h) for h in halves] == [2, 2]
        root = comps[0].aggregate_compressed(halves)
        assert summand_count(root) == 4

    @pytest.mark.parametrize("name", EXACT_LINEAR)
    def test_reaggregation_matches_flat_to_reassociation(self, name):
        # Rack-then-root introduces only float reassociation; the
        # coordinate union / factor blocks themselves must agree.
        grads = correlated_gradients(4, 256)
        comps, items = compress_cohort(name, grads)
        flat = comps[0].decompress_aggregated(
            comps[0].aggregate_compressed(items)
        )
        racked = comps[0].decompress_aggregated(
            comps[0].aggregate_compressed([
                comps[0].aggregate_compressed(items[:2]),
                comps[0].aggregate_compressed(items[2:]),
            ])
        )
        np.testing.assert_allclose(racked, flat, rtol=1e-5, atol=1e-6)

    def test_empty_aggregate_rejected(self):
        for name in AGGREGATING:
            with pytest.raises(ValueError):
                create(name, seed=0).aggregate_compressed([])

    def test_shape_mismatch_rejected(self):
        comp = create("topk", seed=0)
        a = comp.compress(np.ones(64, dtype=np.float32), "a")
        b = comp.compress(np.ones(128, dtype=np.float32), "b")
        with pytest.raises(ValueError, match="shape"):
            comp.aggregate_compressed([a, b])

    def test_union_support_deduplicates_heavy_hitters(self):
        # Identical supports across 16 workers: the aggregate must stay
        # near ONE worker's payload size, not grow as the concatenation.
        grads = correlated_gradients(16, 4096, noise=0.0)
        comps, items = compress_cohort("topk", grads, ratio=0.05)
        single = sum(np.asarray(p).nbytes for p in items[0].payload)
        agg = comps[0].aggregate_compressed(items)
        agg_nbytes = sum(np.asarray(p).nbytes for p in agg.payload)
        assert agg_nbytes <= single
        assert agg_nbytes < (16 * single) / 8


class TestCodebookLaws:
    @pytest.mark.parametrize("name", CODEBOOK)
    def test_error_within_lattice_bound(self, name):
        grads = correlated_gradients(6, 512)
        comps, items = compress_cohort(name, grads)
        agg = comps[0].aggregate_compressed(items)
        ctx = agg.ctx
        deltas = np.asarray(agg.payload[0], dtype=np.float64)
        seg_sizes = np.asarray(ctx.seg_sizes, dtype=np.int64)
        decoded = np.ravel(
            comps[0].decompress_aggregated(agg)
        ).astype(np.float64)
        reference = np.sum(
            np.stack([
                comps[0].decompress(item).astype(np.float64)
                for item in items
            ]),
            axis=0,
        ).ravel()
        bound = summand_count(agg) * np.repeat(deltas, seg_sizes)
        assert np.all(np.abs(decoded - reference) <= bound + 1e-9), name

    @pytest.mark.parametrize("name", CODEBOOK)
    def test_aggregate_size_stays_near_one_payload(self, name):
        # The THC story: summed codes occupy one payload's worth of
        # lattice points no matter how many workers contributed.
        grads = correlated_gradients(16, 2048)
        comps, items = compress_cohort(name, grads)
        agg = comps[0].aggregate_compressed(items)
        total_upload = sum(
            sum(np.asarray(p).nbytes for p in item.payload)
            for item in items
        )
        agg_nbytes = sum(np.asarray(p).nbytes for p in agg.payload)
        # int64 code lanes cost up to 8 bytes/element; even so the
        # aggregate must undercut relaying all 16 uploads.
        assert agg_nbytes < total_upload


class TestSketchLaws:
    def test_tables_sum_linearly_in_sketch_space(self):
        grad = correlated_gradients(1, 512)[0]
        comp = create("sketchsgd", seed=0)
        one = comp.compress(grad, "w")
        doubled_input = create("sketchsgd", seed=0).compress(
            grad * np.float32(2.0), "w"
        )
        agg = comp.aggregate_compressed([one, one])
        assert summand_count(agg) == 2
        for got, want in zip(agg.payload, doubled_input.payload):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestRegistryCapabilityHonesty:
    """Satellite sweep: every compressor's declared flag must be true."""

    def _payload_cases(self, comp):
        """Dense, degenerate (all-zero) and tiny tensors to aggregate."""
        rng = np.random.default_rng(3)
        return [
            rng.standard_normal(96).astype(np.float32),
            np.zeros(96, dtype=np.float32),
            rng.standard_normal((8, 12)).astype(np.float32),
        ]

    @pytest.mark.parametrize("name", available_compressors())
    def test_declared_kind_is_legal_and_consistent(self, name):
        kind = aggregation_kind(name)
        assert kind in AGGREGATION_KINDS
        assert supports_compressed_aggregation(name) == (kind != "none")
        assert create(name, seed=0).aggregation == kind

    @pytest.mark.parametrize("name", available_compressors())
    def test_declared_schemes_aggregate_undeclared_raise_typed(self, name):
        proto = create(name, seed=0)
        for tensor in self._payload_cases(proto):
            comps = [proto.clone(seed=r) for r in range(3)]
            items = [c.compress(tensor.copy(), "w") for c in comps]
            if supports_compressed_aggregation(name):
                agg = comps[0].aggregate_compressed(items)
                assert summand_count(agg) == 3
                decoded = comps[0].decompress_aggregated(agg)
                assert decoded.shape == tensor.shape
                assert decoded.dtype == np.float32
                assert np.all(np.isfinite(decoded))
            else:
                with pytest.raises(AggregationUnsupportedError):
                    comps[0].aggregate_compressed(items)
                # The typed error must still be a NotImplementedError so
                # generic capability probes keep working.
                assert issubclass(
                    AggregationUnsupportedError, NotImplementedError
                )

    @pytest.mark.parametrize("name", AGGREGATING)
    def test_declared_schemes_aggregate_fused_payloads(self, name):
        bucket = FusionBucket(0, (
            BucketSegment("a", (6, 8), 0, 48),
            BucketSegment("b", (80,), 48, 80),
        ))
        rng = np.random.default_rng(11)
        proto = create(name, seed=0)
        comps = [proto.clone(seed=r) for r in range(3)]
        flats = [
            rng.standard_normal(bucket.numel).astype(np.float32)
            for _ in range(3)
        ]
        items = [
            comp.compress_fused(flat.copy(), bucket)
            for comp, flat in zip(comps, flats)
        ]
        agg = comps[0].aggregate_compressed(items)
        assert summand_count(agg) == 3
        decoded = np.ravel(comps[0].decompress_aggregated(agg))
        assert decoded.size == bucket.numel
        reference = np.sum(
            np.stack([
                np.ravel(comps[0].decompress_fused(item)) for item in items
            ]),
            axis=0,
        )
        if aggregation_kind(name) == "exact-linear":
            assert (decoded + 0.0).tobytes() == (reference + 0.0).tobytes()
        elif aggregation_kind(name) == "codebook":
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(decoded - reference)) < 0.5 * scale

    @staticmethod
    def _dead_on_some_ranks():
        """A bucket and three ranks' buffers, one tensor dead on two."""
        bucket = FusionBucket(0, (
            BucketSegment("a", (6, 8), 0, 48),
            BucketSegment("dead", (5,), 48, 5),
            BucketSegment("b", (80,), 53, 80),
            BucketSegment("one", (1,), 133, 1),
        ))
        rng = np.random.default_rng(23)
        flats = [
            (10.0 ** -rank * rng.standard_normal(bucket.numel)).astype(
                np.float32
            )
            for rank in range(3)
        ]
        for flat in flats[1:]:
            flat[48:53] = 0.0  # dead on some ranks only
        flats[0][48:53] = -0.0
        return bucket, flats

    @pytest.mark.parametrize(
        "name", ("none", "eightbit", "natural", "sketchml")
    )
    def test_kernel_payloads_aggregate_like_the_generic_concat(self, name):
        """A fused kernel's payloads sum to, bit for bit, what the per-tensor
        payloads of the same bucket sum to segment by segment."""
        bucket, flats = self._dead_on_some_ranks()
        proto = create(name, seed=0)
        kernels = [proto.clone(seed=r) for r in range(3)]
        generics = [proto.clone(seed=r) for r in range(3)]
        fused = [
            comp.compress_fused(flat.copy(), bucket)
            for comp, flat in zip(kernels, flats)
        ]
        concat = [
            Compressor.compress_fused(comp, flat.copy(), bucket)
            for comp, flat in zip(generics, flats)
        ]
        assert not any(is_fused_concat_ctx(item.ctx) for item in fused)
        ours = proto.aggregate_compressed(fused)
        theirs = proto._aggregate_fused_segments(concat)
        assert summand_count(ours) == summand_count(theirs) == 3
        assert (
            np.ravel(proto.decompress_aggregated(ours)).tobytes()
            == np.ravel(proto.decompress_aggregated(theirs)).tobytes()
        )
        # Rack-level sums re-aggregate (the hierarchical reducer).
        again = proto.aggregate_compressed([ours, fused[0]])
        assert summand_count(again) == 4

    def test_sketchml_sums_kernel_payloads_as_coordinate_lists_sum(self):
        """sketchml adds kernel payloads bucket by bucket instead of sorting
        every rank's positions: the payload is, part for part, the one the
        shared scatter-add over coordinate lists builds."""
        bucket, flats = self._dead_on_some_ranks()
        flats[2][60:70] = 0.0  # zeros inside a live tensor, on one rank
        no_zeros = [np.abs(flat) + np.float32(1.0) for flat in flats]
        proto = create("sketchml", seed=0)
        for buffers in (flats, flats[1:], no_zeros):
            fused = [
                proto.clone(seed=rank).compress_fused(flat.copy(), bucket)
                for rank, flat in enumerate(buffers)
            ]
            ours = proto.aggregate_compressed(fused)
            theirs = proto._aggregate_coords(fused)
            assert summand_count(ours) == summand_count(theirs) == len(fused)
            assert ours.ctx.shape == theirs.ctx.shape
            for mine, other in zip(ours.payload, theirs.payload, strict=True):
                assert mine.dtype == other.dtype
                assert mine.tobytes() == other.tobytes()

    @pytest.mark.parametrize("name", ("topk", "qsgd"))
    def test_generic_concat_fusion_aggregates(self, name):
        # The concat_compressed fallback path (per-tensor payloads glued
        # into one frame) must aggregate segment-by-segment too.
        bucket = FusionBucket(0, (
            BucketSegment("a", (32,), 0, 32),
            BucketSegment("b", (4, 16), 32, 64),
        ))
        rng = np.random.default_rng(5)
        proto = create(name, seed=0)
        comps = [proto.clone(seed=r) for r in range(2)]
        items = []
        for comp in comps:
            flat = rng.standard_normal(bucket.numel).astype(np.float32)
            per_tensor = [
                comp.compress(
                    flat[seg.offset:seg.end].reshape(seg.shape), seg.name
                )
                for seg in bucket.segments
            ]
            items.append(concat_compressed(bucket, per_tensor))
        agg = comps[0].aggregate_compressed(items)
        assert summand_count(agg) == 2
        assert np.ravel(
            comps[0].decompress_aggregated(agg)
        ).size == bucket.numel


class _BrokenAggregator(Compressor):
    """Claims exact-linear but doubles one value during aggregation."""

    name = "fake-broken-agg"
    family = "none"
    communication = "allgather"
    aggregation = "exact-linear"

    def compress(self, tensor, name):
        flat, shape = flatten_with_shape(tensor)
        return CompressedTensor(payload=[flat.copy()], ctx=(shape,))

    def decompress(self, compressed):
        (shape,) = compressed.ctx
        return compressed.payload[0].reshape(shape)

    def aggregate_compressed(self, items):
        agg = self._aggregate_dense(items, items[0].ctx[0])
        agg.payload[0][0] *= 2.0  # the lie the checker must catch
        return agg


class TestContractCheckerIntegration:
    def test_real_schemes_pass_under_checker(self):
        for name in ("topk", "qsgd", "sketchsgd"):
            checked = ContractChecker(create(name, seed=0), check_every=1)
            grads = correlated_gradients(3, 128, seed=7)
            items = [checked.compress(g, "w") for g in grads]
            agg = checked.aggregate_compressed(items)
            assert summand_count(agg) == 3

    def test_checker_catches_inexact_exact_linear_claim(self):
        checked = ContractChecker(_BrokenAggregator(), check_every=1)
        items = [
            checked.compress(g, "w")
            for g in correlated_gradients(2, 64, seed=1)
        ]
        with pytest.raises(ContractViolation, match="aggregate-exactness"):
            checked.aggregate_compressed(items)

    def test_checker_requires_typed_refusal(self):
        checked = ContractChecker(create("signsgd", seed=0), check_every=1)
        items = [
            checked.compress(g, "w")
            for g in correlated_gradients(2, 64, seed=2)
        ]
        with pytest.raises(AggregationUnsupportedError):
            checked.aggregate_compressed(items)


class _QuadraticTask:
    def __init__(self, dim=192, lr=0.05, seed=0):
        rng = np.random.default_rng(seed)
        self.x = np.zeros(dim, dtype=np.float32)
        self.target = rng.standard_normal(dim).astype(np.float32)
        self.lr = lr
        self.dim = dim

    def forward_backward(self, inputs, targets):
        grad = 2 * (self.x - self.target) + np.asarray(
            inputs, dtype=np.float32
        )
        return float(np.sum((self.x - self.target) ** 2)), {"x": grad}

    def apply_update(self, grads):
        self.x -= self.lr * grads["x"]


def _train(name, aggregation, comm_factory, fusion_mb=0.0, n=8, steps=8,
           **params):
    from repro.core.trainer import DistributedTrainer

    task = _QuadraticTask()
    trainer = DistributedTrainer(
        task, create(name, seed=0, **params), n_workers=n,
        communicator=comm_factory(n), fusion_mb=fusion_mb,
        aggregation=aggregation, seed=0,
    )
    rng = np.random.default_rng(9)
    for _ in range(steps):
        trainer.step([
            (0.05 * rng.standard_normal(task.dim).astype(np.float32), None)
            for _ in range(n)
        ])
    return task.x.copy(), trainer


class TestTrainerParity:
    """ISSUE acceptance: aggregated PS == legacy relay, bitwise."""

    @pytest.mark.parametrize("name", [
        n for n in EXACT_LINEAR if create(n).communication != "allreduce"
    ])
    @pytest.mark.parametrize("fusion_mb", [0.0, 4.0])
    def test_ps_aggregated_matches_legacy_bitwise(self, name, fusion_mb):
        legacy, _ = _train(
            name, "off", ParameterServerCommunicator, fusion_mb
        )
        fast, trainer = _train(
            name, "auto", ParameterServerCommunicator, fusion_mb
        )
        assert legacy.tobytes() == fast.tobytes(), name
        # The fast path must actually have engaged: the PS relay fans
        # out sum(uploads) per worker, aggregation fans out ~one
        # payload, so egress must undercut the relay's n·Σuploads.
        egress = trainer.metrics.value(
            "comm_root_bytes_total", {"direction": "egress"}
        )
        ingress = trainer.metrics.value(
            "comm_root_bytes_total", {"direction": "ingress"}
        )
        assert 0 < egress < trainer.n_workers * ingress

    def test_hierarchical_matches_flat_to_reassociation(self):
        flat, _ = _train("topk", "auto", ParameterServerCommunicator)
        hier, _ = _train(
            "topk", "auto",
            lambda n: HierarchicalCommunicator(n_workers=n, n_racks=4),
        )
        np.testing.assert_allclose(hier, flat, rtol=1e-5, atol=1e-6)

    def test_codebook_requires_opt_in(self):
        off, _ = _train("qsgd", "off", ParameterServerCommunicator)
        auto, _ = _train("qsgd", "auto", ParameterServerCommunicator)
        # auto never changes numerics for non-exact schemes...
        assert off.tobytes() == auto.tobytes()
        # ...while the explicit opt-in may (bounded lattice error), but
        # must still land close and run end-to-end.
        allmode, trainer = _train("qsgd", "all", ParameterServerCommunicator)
        assert trainer.aggregation == "all"
        np.testing.assert_allclose(allmode, off, rtol=0.2, atol=0.05)

    def test_flat_communicator_never_aggregates(self):
        base, _ = _train("topk", "off", lambda n: Communicator(n_workers=n))
        auto, _ = _train("topk", "auto", lambda n: Communicator(n_workers=n))
        assert base.tobytes() == auto.tobytes()

    def test_invalid_policy_rejected(self):
        from repro.core.trainer import DistributedTrainer

        with pytest.raises(ValueError, match="aggregation"):
            DistributedTrainer(
                _QuadraticTask(), create("topk"), n_workers=2,
                aggregation="sometimes",
            )

    def test_faults_auto_disable_aggregation(self):
        from repro.core.trainer import DistributedTrainer

        trainer = DistributedTrainer(
            _QuadraticTask(), create("topk"), n_workers=4,
            communicator=ParameterServerCommunicator(n_workers=4),
            aggregation="auto", faults="crash@2:rank=1",
        )
        # The resilient wrapper hides the capability flag, so the fast
        # path must report inactive under fault injection.
        assert not trainer._aggregation_active(trainer.compressors[0])
