"""Count-sketch and quantile-sketch behaviour."""

import numpy as np
import pytest

from repro.tensorlib import CountSketch, QuantileSketch
from repro.tensorlib import sketch as sketch_module
from repro.tensorlib.sketch import HashTableCache


class TestCountSketch:
    def test_recovers_heavy_hitter(self):
        sketch = CountSketch(width=64, depth=5, universe=1000, seed=0)
        indices = np.arange(1000)
        values = np.full(1000, 0.01)
        values[123] = 50.0
        sketch.update(indices, values)
        assert 123 in sketch.heavy_hitters(5)

    def test_query_approximates_updates(self):
        sketch = CountSketch(width=128, depth=5, universe=100, seed=1)
        sketch.update(np.array([7]), np.array([3.5]))
        assert sketch.query(np.array([7]))[0] == pytest.approx(3.5, abs=0.5)

    def test_merge_adds_tables(self):
        a = CountSketch(width=32, depth=3, universe=50, seed=2)
        b = CountSketch(width=32, depth=3, universe=50, seed=2)
        a.update(np.array([1]), np.array([2.0]))
        b.update(np.array([1]), np.array([3.0]))
        a.merge(b)
        assert a.query(np.array([1]))[0] == pytest.approx(5.0, abs=0.8)

    def test_merge_rejects_shape_mismatch(self):
        a = CountSketch(width=32, depth=3, universe=50)
        b = CountSketch(width=16, depth=3, universe=50)
        with pytest.raises(ValueError, match="different shapes"):
            a.merge(b)

    def test_update_validates_inputs(self):
        sketch = CountSketch(width=8, depth=2, universe=10)
        with pytest.raises(ValueError, match="same shape"):
            sketch.update(np.array([1, 2]), np.array([1.0]))
        with pytest.raises(ValueError, match="universe"):
            sketch.update(np.array([10]), np.array([1.0]))

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            CountSketch(width=0, depth=1, universe=10)

    def test_nbytes(self):
        assert CountSketch(width=16, depth=4, universe=10).nbytes == 256


class TestQuantileSketch:
    def test_encode_decode_monotone(self):
        sketch = QuantileSketch(num_buckets=8)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(2000)
        sketch.insert(values)
        codes = sketch.encode(values)
        assert codes.min() >= 0 and codes.max() < 8
        decoded = sketch.decode(codes)
        # Bucket representatives preserve ordering on average.
        assert np.corrcoef(values, decoded)[0, 1] > 0.9

    def test_quantization_error_bounded_by_bucket_width(self):
        sketch = QuantileSketch(num_buckets=64)
        rng = np.random.default_rng(1)
        values = rng.uniform(-1, 1, 5000)
        sketch.insert(values)
        decoded = sketch.decode(sketch.encode(values))
        # 64 quantile buckets over uniform data: width ~2/64.
        assert np.percentile(np.abs(decoded - values), 95) < 3 * (2 / 64)

    def test_pruning_keeps_quantiles(self):
        sketch = QuantileSketch(num_buckets=4, max_size=256)
        rng = np.random.default_rng(2)
        for _ in range(20):
            sketch.insert(rng.standard_normal(1000))
        boundaries = sketch.boundaries()
        # Quartile boundaries of a standard normal: approx [-0.67, 0, 0.67].
        np.testing.assert_allclose(boundaries, [-0.674, 0.0, 0.674], atol=0.15)

    def test_empty_sketch_raises(self):
        sketch = QuantileSketch(num_buckets=4)
        with pytest.raises(ValueError, match="empty"):
            sketch.boundaries()
        with pytest.raises(ValueError, match="empty"):
            sketch.representatives()

    def test_decode_validates_codes(self):
        sketch = QuantileSketch(num_buckets=4)
        sketch.insert(np.arange(100.0))
        with pytest.raises(ValueError, match="out of range"):
            sketch.decode(np.array([4]))

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match="num_buckets"):
            QuantileSketch(num_buckets=1)


class TestHashTableMemo:
    """The hash functions are a protocol constant: drawn once, shared."""

    def test_equal_parameters_share_read_only_hashes_but_no_table(self):
        a = CountSketch(width=32, depth=3, universe=500, seed=21)
        b = CountSketch(width=32, depth=3, universe=500, seed=21)
        assert a._buckets is b._buckets and a._signs is b._signs
        assert not a._buckets.flags.writeable
        assert not a._signs.flags.writeable
        assert a._buckets.dtype == np.int32 and a._signs.dtype == np.int8
        assert a.table is not b.table
        a.update(np.array([3]), np.array([1.0]))
        assert not b.table.any()
        with pytest.raises(ValueError, match="read-only"):
            a._buckets[0, 0] = 1

    @pytest.mark.parametrize(
        "other",
        [
            dict(width=32, depth=3, universe=500, seed=22),
            dict(width=33, depth=3, universe=500, seed=21),
            dict(width=32, depth=3, universe=501, seed=21),
            dict(width=32, depth=4, universe=500, seed=21),
        ],
        ids=["seed", "width", "universe", "depth"],
    )
    def test_any_other_parameter_is_another_entry(self, other):
        base = CountSketch(width=32, depth=3, universe=500, seed=21)
        assert CountSketch(**other)._buckets is not base._buckets

    def test_the_bound_is_on_bytes_and_evicts_least_recently_used(self):
        entry_bytes = 5 * 3 * 1000  # (int32 + int8) * depth * universe
        cache = HashTableCache(max_bytes=2 * entry_bytes)
        first = cache.get(0, 3, 16, 1000)
        cache.get(1, 3, 16, 1000)
        assert cache.get(0, 3, 16, 1000)[0] is first[0]  # refreshes seed 0
        cache.get(2, 3, 16, 1000)  # evicts seed 1, the least recent
        assert len(cache) == 2 and cache.nbytes == 2 * entry_bytes
        assert cache.get(0, 3, 16, 1000)[0] is first[0]
        misses = cache.misses
        cache.get(1, 3, 16, 1000)
        assert cache.misses == misses + 1

    def test_an_entry_larger_than_the_bound_is_served_but_not_kept(self):
        cache = HashTableCache(max_bytes=100)
        buckets, signs = cache.get(0, 2, 8, 1000)
        assert buckets.shape == signs.shape == (2, 1000)
        assert len(cache) == 0 and cache.nbytes == 0

    def test_a_step_over_400_small_universes_stays_cached(self):
        # The fused small-tensor sweep: ~400 distinct universes per step,
        # revisited every step.  An entry-count bound below 400 would miss
        # every time; the byte bound holds them all.
        rng = np.random.default_rng(11)
        universes = np.exp(rng.uniform(np.log(16), np.log(2048), 400)).astype(int)
        cache = HashTableCache(max_bytes=sketch_module._HASH_CACHE_BYTES)
        steps = 25
        for _ in range(steps):
            for universe in universes.tolist():
                k = max(1, universe // 100)
                cache.get(0x5EED, 5, max(8, 8 * k), universe)
        hit_rate = cache.hits / (cache.hits + cache.misses)
        assert hit_rate > 0.9
        assert cache.misses == len({(int(u)) for u in universes})
        assert cache.nbytes <= cache.max_bytes

    def test_cached_hashes_are_the_draws_of_the_seed(self):
        buckets, signs = HashTableCache(max_bytes=1 << 20).get(7, 3, 50, 400)
        rng = np.random.default_rng(7)
        assert np.array_equal(buckets, rng.integers(0, 50, size=(3, 400)))
        assert np.array_equal(
            signs, rng.choice(np.array([-1.0, 1.0]), size=(3, 400))
        )


class TestSideBySide:
    """A bucket's sketches as one: each tensor hashes as it does alone."""

    WIDTHS, UNIVERSES, DEPTH, SEED = (8, 24, 8, 16), (5, 300, 1, 64), 5, 0x5EED

    def alone(self):
        return [
            CountSketch(width, self.DEPTH, universe, seed=self.SEED)
            for width, universe in zip(self.WIDTHS, self.UNIVERSES)
        ]

    def values(self):
        rng = np.random.default_rng(3)
        return rng.standard_normal(sum(self.UNIVERSES)).astype(np.float32)

    def test_update_and_queries_equal_the_lone_sketches_bitwise(self):
        values = self.values()
        wide = CountSketch.side_by_side(
            self.WIDTHS, self.DEPTH, self.UNIVERSES, seed=self.SEED
        )
        wide.update_dense(values)
        assert wide.table.shape == (self.DEPTH, sum(self.WIDTHS))
        column = start = 0
        for sketch in self.alone():
            run = slice(start, start + sketch.universe)
            sketch.update_dense(values[run])
            cells = slice(column, column + sketch.width)
            assert wide.table[:, cells].tobytes() == sketch.table.tobytes()
            assert (
                wide.magnitudes()[run].tobytes()
                == sketch.magnitudes().tobytes()
            )
            some = np.arange(0, sketch.universe, 3)
            assert (
                wide.query(some + start).tobytes()
                == sketch.query(some).tobytes()
            )
            start += sketch.universe
            column += sketch.width

    def test_a_received_table_is_the_state(self):
        wide = CountSketch.side_by_side(
            self.WIDTHS, self.DEPTH, self.UNIVERSES, seed=self.SEED
        )
        wide.update_dense(self.values())
        received = CountSketch.side_by_side(
            self.WIDTHS, self.DEPTH, self.UNIVERSES, seed=self.SEED,
            table=wide.table.astype(np.float32),
        )
        assert np.array_equal(received.table, wide.table.astype(np.float32))
        assert received.table is not wide.table

    def test_hashes_are_memoised_read_only_per_layout(self):
        make = lambda widths: CountSketch.side_by_side(  # noqa: E731
            widths, self.DEPTH, self.UNIVERSES, seed=self.SEED
        )
        a, b = make(self.WIDTHS), make(list(self.WIDTHS))
        assert a._buckets is b._buckets and a._signs is b._signs
        assert a.table is not b.table
        assert a._buckets.dtype == np.int32 and a._signs.dtype == np.int8
        assert not a._buckets.flags.writeable
        assert make((8, 24, 8, 17))._buckets is not a._buckets
        cache = HashTableCache(max_bytes=1 << 20)
        cache.get_side_by_side(1, 2, (8, 8), (10, 20))
        assert len(cache) == 3  # the two lone entries and their union
        assert cache.nbytes == 5 * 2 * (10 + 20) * 2
