"""Positive and negative cases for every lint rule (GR001–GR006)."""

import textwrap

from repro.analysis.lint.engine import lint_source
from repro.analysis.lint.rules import (
    CtxHonestyRule,
    Float64LeakRule,
    PayloadTypeRule,
    SpanContextRule,
    UndrainedHandleRule,
    UnseededRngRule,
    default_rules,
)

HOT_PATH = "src/repro/core/compressors/fake.py"


def _lint(rule, source, path="src/repro/core/fake.py"):
    return lint_source(textwrap.dedent(source), path, [rule])


class TestDefaultRules:
    def test_eleven_rules_in_id_order(self):
        ids = [rule.rule_id for rule in default_rules()]
        assert ids == [f"GR{n:03d}" for n in range(1, 12)]


class TestGR001UnseededRng:
    def test_flags_global_samplers_and_seed(self):
        findings = _lint(UnseededRngRule(), """
            import numpy as np

            def f(x):
                np.random.seed(0)
                noise = np.random.randn(4)
                np.random.shuffle(x)
                return noise
        """)
        assert [f.rule_id for f in findings] == ["GR001"] * 3

    def test_flags_unseeded_default_rng(self):
        findings = _lint(UnseededRngRule(), """
            import numpy as np

            rng = np.random.default_rng()
        """)
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_resolves_import_aliases(self):
        findings = _lint(UnseededRngRule(), """
            import numpy.random as npr
            from numpy import random

            def f(x):
                npr.shuffle(x)
                return random.rand(3)
        """)
        assert len(findings) == 2

    def test_seeded_generator_is_clean(self):
        findings = _lint(UnseededRngRule(), """
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(4), rng.choice(3)
        """)
        assert findings == []

    def test_flags_derived_seed_at_constructors(self):
        findings = _lint(UnseededRngRule(), """
            import numpy as np

            def f(seed, rank, node):
                a = np.random.default_rng(seed + rank)
                b = np.random.SeedSequence(seed * 31)
                c = np.random.default_rng(seed=seed - node)
                return a, b, c
        """)
        assert [f.rule_id for f in findings] == ["GR001"] * 3
        assert all("correlated" in f.message for f in findings)

    def test_flags_derived_seed_at_clone_and_reseed(self):
        findings = _lint(UnseededRngRule(), """
            def f(compressor, seed, rank, node):
                worker = compressor.clone(seed=seed + node)
                compressor.reseed(seed + rank)
                return worker
        """)
        assert [f.rule_id for f in findings] == ["GR001"] * 2
        assert "SeedSequence.spawn" in findings[0].message

    def test_constant_arithmetic_and_spawned_seeds_are_clean(self):
        findings = _lint(UnseededRngRule(), """
            import numpy as np
            from repro.core.rng import spawn_worker_seeds

            def f(seed, n_workers, rank):
                mask = np.random.default_rng(2 ** 32 - 1)
                seeds = spawn_worker_seeds(seed, n_workers)
                rng = np.random.default_rng(seeds[rank])
                return mask, rng
        """)
        assert findings == []

    def test_non_rng_seed_arithmetic_is_clean(self):
        # A data loader deriving a shard seed is not an RNG-stream
        # construction site; only clone/reseed and the numpy constructors
        # are in scope.
        findings = _lint(UnseededRngRule(), """
            def f(loader, seed, shard):
                return loader.shard(seed + shard)
        """)
        assert findings == []


class TestGR002Float64Leak:
    def test_flags_float_widened_reductions(self):
        findings = _lint(Float64LeakRule(), """
            import numpy as np

            def compress(flat):
                norm = float(np.linalg.norm(flat))
                bound = 2.5 * float(np.std(flat))
                return norm, bound
        """, path=HOT_PATH)
        assert [f.rule_id for f in findings] == ["GR002", "GR002"]

    def test_flags_float64_constructors(self):
        findings = _lint(Float64LeakRule(), """
            import numpy as np

            def f():
                a = np.zeros(4, dtype=np.float64)
                b = np.array([0.0], dtype="float64")
                return a, b
        """, path=HOT_PATH)
        assert len(findings) == 2

    def test_float32_cast_and_astype_are_clean(self):
        findings = _lint(Float64LeakRule(), """
            import numpy as np

            def compress(flat):
                norm = np.float32(np.linalg.norm(flat))
                wide = flat.astype(np.float64)  # deliberate internal math
                scalar = float(flat[0])  # not a reduction
                return norm, wide, scalar
        """, path=HOT_PATH)
        assert findings == []

    def test_scoped_to_hot_paths_only(self):
        source = """
            import numpy as np

            def f(x):
                return float(np.mean(x))
        """
        assert _lint(Float64LeakRule(), source, path=HOT_PATH)
        assert not _lint(
            Float64LeakRule(), source, path="src/repro/telemetry/formatting.py"
        )


class TestGR003CtxHonesty:
    def test_flags_tensor_derived_value_in_ctx(self):
        findings = _lint(CtxHonestyRule(), """
            import numpy as np
            from repro.core.api import CompressedTensor

            class Fake:
                def compress(self, tensor, name):
                    scale = np.max(np.abs(tensor))
                    payload = [np.array([1.0], dtype=np.float32)]
                    return CompressedTensor(
                        payload=payload, ctx=(tensor.shape, scale)
                    )
        """)
        assert len(findings) == 1
        assert "'scale'" in findings[0].message

    def test_taint_propagates_through_assignment_chains(self):
        findings = _lint(CtxHonestyRule(), """
            import numpy as np
            from repro.core.api import CompressedTensor

            class Fake:
                def compress(self, tensor, name):
                    a = tensor * 2
                    b = a + 1
                    c = np.mean(b)
                    return CompressedTensor(payload=[b], ctx=(c,))
        """)
        assert len(findings) == 1

    def test_metadata_and_flatten_shape_are_clean(self):
        findings = _lint(CtxHonestyRule(), """
            from repro.core.api import CompressedTensor, flatten_with_shape

            class Fake:
                def compress(self, tensor, name):
                    flat, shape = flatten_with_shape(tensor)
                    payload = [flat]
                    return CompressedTensor(
                        payload=payload, ctx=(shape, flat.size, tensor.ndim)
                    )
        """)
        assert findings == []

    def test_tuning_constants_are_clean(self):
        findings = _lint(CtxHonestyRule(), """
            from repro.core.api import CompressedTensor

            class Fake:
                def compress(self, tensor, name):
                    k = max(1, int(self.ratio * tensor.size))
                    return CompressedTensor(payload=[tensor], ctx=(k,))
        """)
        assert findings == []


class TestGR004PayloadType:
    def test_flags_non_array_payload_elements(self):
        findings = _lint(PayloadTypeRule(), """
            from repro.core.api import CompressedTensor

            class Fake:
                def compress(self, tensor, name):
                    payload = [[1.0, 2.0], 3, tensor.tolist(), list(tensor)]
                    return CompressedTensor(payload=payload, ctx=())
        """)
        assert len(findings) == 4

    def test_flags_object_dtype_array(self):
        findings = _lint(PayloadTypeRule(), """
            import numpy as np
            from repro.core.api import CompressedTensor

            def f(x):
                return CompressedTensor(
                    payload=[np.array(x, dtype=object)], ctx=()
                )
        """)
        assert len(findings) == 1
        assert "object-dtype" in findings[0].message

    def test_flags_casts_to_dtypes_the_wire_cannot_frame(self):
        findings = _lint(PayloadTypeRule(), """
            import numpy as np
            from repro.core.api import CompressedTensor
            from repro.tensorlib.indices import index_dtype

            def f(values, positions, mask, bucket):
                return CompressedTensor(payload=[
                    values.astype(np.float32),
                    positions.astype(np.uint32),
                    mask.astype(bool),
                    positions.astype("complex64"),
                    positions.astype(np.uint16),
                    positions.astype(index_dtype(bucket.numel)),
                ], ctx=())
        """)
        assert [f.message.split(";")[0] for f in findings] == [
            "payload part is cast to uint32, a dtype the wire cannot frame",
            "payload part is cast to bool, a dtype the wire cannot frame",
            "payload part is cast to complex64, a dtype the wire cannot "
            "frame",
        ]

    def test_real_arrays_are_clean(self):
        findings = _lint(PayloadTypeRule(), """
            import numpy as np
            from repro.core.api import CompressedTensor

            def f(flat, packed):
                payload = [np.array([1.0], dtype=np.float32), packed]
                return CompressedTensor(payload=payload, ctx=())
        """)
        assert findings == []


class TestGR005UndrainedHandle:
    def test_flags_discarded_and_unused_handles(self):
        findings = _lint(UndrainedHandleRule(), """
            def exchange(comm, parts):
                comm.iallgather(parts)
                handle = comm.iallreduce_parts(parts)
                return None
        """)
        assert len(findings) == 2

    def test_waited_and_forwarded_handles_are_clean(self):
        findings = _lint(UndrainedHandleRule(), """
            def exchange(comm, parts, pending):
                handle = comm.iallreduce_parts(parts)
                pending.append(comm.iallgather(parts))
                return handle.wait()

            def launcher(comm, parts):
                return comm.iallgather(parts)
        """)
        assert findings == []


class TestGR006SpanContext:
    def test_flags_bare_span_calls(self):
        findings = _lint(SpanContextRule(), """
            def run(tracer):
                span = tracer.span("step")
                tracer.span("leak")
                return span
        """)
        assert len(findings) == 2

    def test_with_and_return_are_clean(self):
        findings = _lint(SpanContextRule(), """
            def run(tracer):
                with tracer.span("step"):
                    with tracer.span("inner", kind="compress"):
                        pass

            def make(tracer):
                return tracer.span("child")
        """)
        assert findings == []
