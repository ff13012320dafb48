"""Tests for the supporting-subgraph LRU cache and bundle reuse."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.graph.sampling import SupportBundle, build_support_bundle, support_cache_key
from repro.serving import SubgraphCache


@pytest.fixture(scope="module")
def deployed(trained_nai, tiny_dataset):
    predictor = trained_nai.build_predictor(policy="distance")
    predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
    return predictor


def bundle_for(deployed, batch) -> SupportBundle:
    return build_support_bundle(deployed._rows, batch, deployed.config.t_max)


class TestCacheKey:
    def test_key_is_order_insensitive(self):
        # Canonical keys: any permutation of the same multiset shares one
        # entry (the cached bundle is rebased per use via with_target_order).
        a = support_cache_key(np.array([1, 2, 3]), depth=3)
        b = support_cache_key(np.array([3, 2, 1]), depth=3)
        assert a == b

    def test_key_distinguishes_multisets(self):
        assert support_cache_key(np.array([1, 2, 2]), 3) != support_cache_key(
            np.array([1, 1, 2]), 3
        )
        assert support_cache_key(np.array([1, 2]), 3) != support_cache_key(
            np.array([1, 2, 2]), 3
        )

    def test_key_depends_on_depth(self):
        ids = np.array([1, 2, 3])
        assert support_cache_key(ids, 2) != support_cache_key(ids, 3)

    def test_identical_batches_share_a_key(self):
        assert support_cache_key(np.array([4, 5]), 2) == support_cache_key(
            np.array([4, 5]), 2
        )


class TestCanonicalHitPath:
    """Permuted repeats of a node-set must hit and serve identical results."""

    def test_permuted_batch_shares_the_cache_entry(self, deployed, tiny_dataset):
        cache = SubgraphCache(4)
        batch = tiny_dataset.split.test_idx[:24]
        permuted = np.random.default_rng(3).permutation(batch)
        depth = deployed.config.t_max
        assert cache.get(cache.key_for(batch, depth)) is None  # cold miss
        from repro.graph.sampling import canonical_order

        sorted_ids, _ = canonical_order(batch)
        cache.put(cache.key_for(batch, depth), bundle_for(deployed, sorted_ids))
        assert cache.get(cache.key_for(permuted, depth)) is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_rebased_bundle_gives_bit_identical_results(self, deployed, tiny_dataset):
        from repro.graph.sampling import canonical_order

        engine = deployed.make_engine()
        batch = tiny_dataset.split.test_idx[:24]
        permuted = np.random.default_rng(5).permutation(batch)
        # Canonical bundle built once (what the dispatcher caches)...
        sorted_ids, rank = canonical_order(permuted)
        canonical_bundle = bundle_for(deployed, sorted_ids)
        rebased = canonical_bundle.with_target_order(rank)
        # ...must reproduce a from-scratch run of the permuted order exactly.
        fresh = engine.run_batch(permuted)
        replayed = engine.run_batch(permuted, bundle=rebased)
        assert np.array_equal(replayed.predictions, fresh.predictions)
        assert np.array_equal(replayed.depths, fresh.depths)
        assert replayed.macs.total == fresh.macs.total

    def test_with_target_order_validates_length(self, deployed, tiny_dataset):
        from repro.exceptions import GraphConstructionError

        bundle = bundle_for(deployed, tiny_dataset.split.test_idx[:8])
        with pytest.raises(GraphConstructionError):
            bundle.with_target_order(np.arange(3))

    def test_with_target_order_shares_arrays(self, deployed, tiny_dataset):
        bundle = bundle_for(deployed, tiny_dataset.split.test_idx[:8])
        view = bundle.with_target_order(np.arange(8)[::-1].copy())
        assert view.data is bundle.data
        assert view.local_features is bundle.local_features
        assert view.support.node_ids is bundle.support.node_ids


class TestSubgraphCacheLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SubgraphCache(0)

    def test_miss_then_hit_accounting(self):
        cache = SubgraphCache(4)
        key = support_cache_key(np.array([1]), 1)
        assert cache.get(key) is None
        cache.put(key, "bundle-stub")
        assert cache.get(key) == "bundle-stub"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = SubgraphCache(2)
        keys = [support_cache_key(np.array([i]), 1) for i in range(3)]
        cache.put(keys[0], "a")
        cache.put(keys[1], "b")
        cache.get(keys[0])  # refresh: key 1 becomes least recently used
        cache.put(keys[2], "c")
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == "a"
        assert cache.get(keys[2]) == "c"
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_part_of_a_cached_batch_is_an_exact_key_miss(self):
        """Lookups match exact node multisets only: a cached bundle is never
        sliced to serve a smaller batch it happens to contain."""
        cache = SubgraphCache(4)
        batch = np.arange(0, 24, dtype=np.int64)
        cache.put(support_cache_key(batch, 3), "bundle-stub")
        assert cache.get(support_cache_key(batch[4:12], 3)) is None
        counters = cache.counters()
        assert (counters.hits, counters.misses, counters.entries) == (0, 1, 1)
        assert cache.get(support_cache_key(batch, 3)) == "bundle-stub"

    def test_clear_empties_entries_but_keeps_counters(self):
        cache = SubgraphCache(2)
        key = support_cache_key(np.array([7]), 1)
        cache.put(key, "x")
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestBundleReuse:
    def test_bundle_replay_gives_identical_results(self, deployed, tiny_dataset):
        """run_batch with a cached bundle must be bit-identical to a cold run."""
        batch = np.asarray(tiny_dataset.split.test_idx[:25])
        engine = deployed.make_engine()
        cold = engine.run_batch(batch)
        bundle = bundle_for(deployed, batch)
        for _ in range(2):  # replaying twice also proves bundles stay pristine
            warm = engine.run_batch(batch, bundle=bundle)
            np.testing.assert_array_equal(warm.predictions, cold.predictions)
            np.testing.assert_array_equal(warm.depths, cold.depths)
            assert warm.macs.total == pytest.approx(cold.macs.total, abs=1e-9)

    def test_bundle_replay_on_sibling_engine(self, deployed, tiny_dataset):
        """Bundles built by one engine are valid on any sibling engine."""
        batch = np.asarray(tiny_dataset.split.test_idx[:25])
        bundle = deployed.make_engine().build_support(batch)
        sibling = deployed.make_engine()
        cold = deployed.make_engine().run_batch(batch)
        warm = sibling.run_batch(batch, bundle=bundle)
        np.testing.assert_array_equal(warm.predictions, cold.predictions)
        np.testing.assert_array_equal(warm.depths, cold.depths)

    def test_replay_skips_sampling_time(self, deployed, tiny_dataset):
        batch = np.asarray(tiny_dataset.split.test_idx[:25])
        engine = deployed.make_engine()
        cold = engine.run_batch(batch)
        warm = engine.run_batch(batch, bundle=bundle_for(deployed, batch))
        assert cold.timings.sampling > 0
        assert warm.timings.sampling == 0.0

    def test_bundle_nbytes_positive(self, deployed, tiny_dataset):
        bundle = bundle_for(deployed, np.asarray(tiny_dataset.split.test_idx[:10]))
        assert bundle.nbytes > 0
        assert bundle.num_local >= 10

    def test_bundle_drops_graph_sized_lookup(self, deployed, tiny_dataset):
        """Cached bundles must cost O(subgraph), not O(num_nodes): the
        global→local lookup is only needed during extraction and is dropped
        before the bundle is stored."""
        bundle = bundle_for(deployed, np.asarray(tiny_dataset.split.test_idx[:10]))
        assert bundle.support.global_to_local is None


class TestPeek:
    def test_peek_refreshes_recency_without_counting(self):
        cache = SubgraphCache(2)
        keys = [support_cache_key(np.array([i]), 1) for i in range(3)]
        cache.put(keys[0], "a")
        cache.put(keys[1], "b")
        assert cache.peek(keys[0]) == "a"      # no hit recorded...
        assert cache.peek(keys[2]) is None     # ...and no miss either
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put(keys[2], "c")                # ...but recency did refresh:
        assert cache.peek(keys[1]) is None     # key 1 was the LRU victim
        assert cache.peek(keys[0]) == "a"


class TestConsistentCounters:
    def test_counters_snapshot_is_internally_consistent(self):
        cache = SubgraphCache(4)
        keys = [support_cache_key(np.array([i]), 1) for i in range(8)]
        for key in keys:
            cache.get(key)
            cache.put(key, "x")
        snapshot = cache.counters()
        assert snapshot.lookups == snapshot.hits + snapshot.misses
        assert snapshot.misses == 8
        assert snapshot.evictions == 4
        assert snapshot.entries == 4
        assert snapshot.hit_rate == 0.0

    def test_counters_stay_consistent_under_concurrent_access(self):
        """Regression: stats() used to read hits/misses/entries one field at
        a time, so a lookup landing between the reads produced snapshots
        where hits + misses != lookups. counters() reads under one lock."""
        import threading

        cache = SubgraphCache(8)
        keys = [support_cache_key(np.array([i]), 1) for i in range(32)]
        stop = threading.Event()
        torn = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                key = keys[int(rng.integers(len(keys)))]
                if cache.get(key) is None:
                    cache.put(key, seed)

        def snapshot_reader():
            while not stop.is_set():
                counters = cache.counters()
                if counters.lookups != counters.hits + counters.misses:
                    torn.append(counters)
                if counters.entries > 8:
                    torn.append(counters)

        workers = [
            threading.Thread(target=hammer, args=(seed,), daemon=True)
            for seed in range(4)
        ] + [threading.Thread(target=snapshot_reader, daemon=True)]
        for worker in workers:
            worker.start()
        import time

        time.sleep(0.5)
        stop.set()
        for worker in workers:
            worker.join(timeout=5.0)
        assert torn == []
        final = cache.counters()
        assert final.lookups == final.hits + final.misses > 0
