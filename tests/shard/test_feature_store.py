"""TieredFeatureStore: bit-identical reads under a hard residency budget."""

import os

import numpy as np
import pytest

from repro.core import NAIConfig, ShardConfig
from repro.core.distance_nap import DistanceNAP
from repro.exceptions import ConfigurationError, GraphConstructionError
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.models import SGC
from repro.shard import ShardedPredictor, TieredFeatureRows, TieredFeatureStore


def matrix_of(num_rows=64, num_cols=6, seed=0):
    return (
        np.random.default_rng(seed)
        .normal(size=(num_rows, num_cols))
        .astype(np.float32)
    )


def budget_for(matrix, rows):
    return int(matrix.itemsize * matrix.shape[1] * rows)


class TestTieredFeatureStore:
    def test_reads_are_bit_identical_to_the_source_matrix(self):
        matrix = matrix_of()
        store = TieredFeatureStore(matrix, budget_bytes=budget_for(matrix, 8))
        try:
            rng = np.random.default_rng(1)
            for _ in range(20):
                rows = rng.integers(0, matrix.shape[0], size=rng.integers(1, 30))
                np.testing.assert_array_equal(store.get_rows(rows), matrix[rows])
        finally:
            store.close()

    def test_peak_residency_never_exceeds_the_budget(self):
        matrix = matrix_of(num_rows=128)
        budget = budget_for(matrix, 10)
        store = TieredFeatureStore(matrix, budget_bytes=budget)
        try:
            rng = np.random.default_rng(2)
            for _ in range(50):  # touch far more rows than fit
                store.get_rows(rng.integers(0, 128, size=16))
            report = store.report()
        finally:
            store.close()
        assert report["capacity_rows"] == 10
        assert report["peak_resident_nbytes"] <= budget
        assert report["resident_nbytes"] <= budget
        assert report["hot_rows"] <= 10
        assert report["misses"] > 10  # the working set really overflowed

    def test_degree_bias_keeps_hub_rows_resident_through_a_scan(self):
        matrix = matrix_of(num_rows=32)
        degrees = np.zeros(32)
        degrees[:4] = 1000.0  # four hub rows
        store = TieredFeatureStore(
            matrix,
            budget_bytes=budget_for(matrix, 4),
            degrees=degrees,
            degree_weight=4.0,
        )
        try:
            hubs = np.arange(4)
            for _ in range(3):
                store.get_rows(hubs)  # warm the hubs
            store.get_rows(np.arange(4, 32))  # one full cold scan
            misses_after_scan = store.report()["misses"]
            store.get_rows(hubs)  # the hubs must still be hot
            assert store.report()["misses"] == misses_after_scan
            assert store.report()["hot_rows"] == 4
        finally:
            store.close()

    def test_unbiased_lru_would_have_lost_those_rows(self):
        """Control for the admission test: without the degree bias and with
        equal frequencies a scan displaces nothing either — admission
        requires a strictly better score — but repeated scan rows do."""
        matrix = matrix_of(num_rows=32)
        store = TieredFeatureStore(matrix, budget_bytes=budget_for(matrix, 4))
        try:
            store.get_rows(np.arange(4))       # fill: rows 0-3, freq 1 each
            scan = np.arange(4, 8)
            store.get_rows(scan)               # freq 1: ties lose, no churn
            assert store.report()["evictions"] == 0
            store.get_rows(scan)               # freq 2: now they out-score
            store.get_rows(scan)
            assert store.report()["evictions"] > 0
        finally:
            store.close()

    def test_frequencies_age_by_halving(self):
        matrix = matrix_of(num_rows=8)
        store = TieredFeatureStore(
            matrix, budget_bytes=budget_for(matrix, 2), age_period=4
        )
        try:
            store.get_rows(np.array([0, 0, 0, 0]))
            assert store._freq[0] == pytest.approx(2.0)  # halved at period
        finally:
            store.close()

    def test_close_removes_the_spill_file(self):
        matrix = matrix_of(num_rows=8)
        store = TieredFeatureStore(matrix, budget_bytes=budget_for(matrix, 2))
        path = store._path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)

    def test_validation(self):
        matrix = matrix_of(num_rows=8)
        with pytest.raises(ConfigurationError, match="2-D"):
            TieredFeatureStore(matrix[0], budget_bytes=1 << 20)
        with pytest.raises(ConfigurationError, match="at least one"):
            TieredFeatureStore(matrix, budget_bytes=3)
        with pytest.raises(ConfigurationError, match="degree_weight"):
            TieredFeatureStore(
                matrix, budget_bytes=1 << 20, degree_weight=-1.0
            )
        with pytest.raises(ConfigurationError, match="entries"):
            TieredFeatureStore(
                matrix, budget_bytes=1 << 20, degrees=np.ones(3)
            )


class TestTieredFeatureRows:
    def test_proxy_mirrors_the_ndarray_surface(self):
        matrix = matrix_of(num_rows=16, num_cols=5)
        store = TieredFeatureStore(matrix, budget_bytes=budget_for(matrix, 4))
        try:
            rows = TieredFeatureRows(store)
            assert rows.shape == (16, 5)
            assert rows.ndim == 2
            assert len(rows) == 16
            assert rows.dtype == np.float32
            assert rows.itemsize == 4
            np.testing.assert_array_equal(
                rows[np.array([3, 1, 3])], matrix[np.array([3, 1, 3])]
            )
            assert rows.nbytes == store.resident_nbytes <= store.budget_bytes
        finally:
            store.close()


# ---------------------------------------------------------------------- #
# Store integration: tiering must not move a single served bit
# ---------------------------------------------------------------------- #
@pytest.fixture()
def sharded():
    spec = SyntheticGraphSpec(
        num_nodes=200, num_classes=4, avg_degree=6.0, degree_exponent=2.1
    )
    graph, _ = generate_community_graph(spec, rng=4)
    features = (
        np.random.default_rng(8).normal(size=(graph.num_nodes, 6)).astype(np.float32)
    )
    classifiers = SGC(6, 4, depth=3, rng=4).make_all_classifiers()
    predictor = ShardedPredictor(
        classifiers,
        policy=DistanceNAP(0.15),
        config=NAIConfig(t_min=1, t_max=3, batch_size=32),
    )
    return predictor.prepare(
        graph, features, ShardConfig(num_shards=2, strategy="degree_balanced")
    )


class TestStoreTiering:
    def test_tiered_serving_is_bit_identical_under_a_tight_budget(self, sharded):
        store = sharded.store
        targets = np.arange(store.num_nodes)
        oracle = sharded.predict(targets)
        full_nbytes = sum(
            np.asarray(shard.features).nbytes for shard in store.shards
        )
        store._set_tiered_features(full_nbytes // 4)  # way below the matrix
        tiered = sharded.predict(targets)
        np.testing.assert_array_equal(tiered.predictions, oracle.predictions)
        np.testing.assert_array_equal(tiered.depths, oracle.depths)
        assert tiered.macs.total == pytest.approx(oracle.macs.total, abs=1e-6)
        for tier in store.feature_tiers:
            report = tier.report()
            assert report["peak_resident_nbytes"] <= report["budget_bytes"]
            assert report["hits"] + report["misses"] > 0

    def test_memory_report_gains_tier_residency(self, sharded):
        store = sharded.store
        before = store.memory_report()
        assert "feature_tiers" not in before
        store._set_tiered_features(1 << 14)
        sharded.predict(np.arange(64))
        report = store.memory_report()
        assert len(report["feature_tiers"]) == store.num_shards
        assert report["feature_resident_nbytes"] <= report["feature_budget_bytes"]
        assert report["feature_peak_resident_nbytes"] <= report[
            "feature_budget_bytes"
        ]
        assert report["feature_cold_nbytes"] > 0

    def test_tiering_shrinks_the_shard_footprint(self, sharded):
        store = sharded.store
        before = sum(shard.nbytes for shard in store.shards)
        full_features = sum(
            np.asarray(shard.features).nbytes for shard in store.shards
        )
        store._set_tiered_features(full_features // 8)
        after = sum(shard.nbytes for shard in store.shards)
        assert after <= before - full_features + full_features // 8 + 1024

    def test_double_tiering_and_bad_budget_are_rejected(self, sharded):
        store = sharded.store
        with pytest.raises(GraphConstructionError, match="positive"):
            store._set_tiered_features(0)
        store._set_tiered_features(1 << 14)
        with pytest.raises(GraphConstructionError, match="already"):
            store._set_tiered_features(1 << 14)
