"""Property-style sharded-equivalence suite (the subsystem's core guarantee).

For random graphs and partitions, everything the paper's claims rest on —
stationary features, per-node exit depths, predictions and MAC totals — must
be **bit-identical** between the sharded deployment and the single-process
``NAIPredictor``, across 1/2/4 shards and both partition strategies.
"""

import numpy as np
import pytest

from repro.core import ShardConfig, compute_stationary_state
from repro.exceptions import ConfigurationError, NotFittedError
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.shard import (
    ShardedGraphStore,
    ShardedPredictor,
    compute_sharded_stationary,
)

from oracle import oracle_predict

SHARD_COUNTS = (1, 2, 4)
STRATEGIES = ("hash", "degree_balanced")


def _random_deployment(seed, *, num_nodes=220, num_features=8, dtype=np.float32):
    spec = SyntheticGraphSpec(
        num_nodes=num_nodes, num_classes=4, avg_degree=6.0, degree_exponent=2.1
    )
    graph, _ = generate_community_graph(spec, rng=seed)
    features = (
        np.random.default_rng(seed + 1)
        .normal(size=(graph.num_nodes, num_features))
        .astype(dtype)
    )
    return graph, features


class TestShardedStationaryEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_features_for_bit_identical(self, strategy, num_shards, seed):
        graph, features = _random_deployment(seed)
        dense = compute_stationary_state(graph, features, gamma=0.5, dtype=np.float32)
        store = ShardedGraphStore.from_graph(
            graph, features,
            ShardConfig(num_shards=num_shards, strategy=strategy),
            gamma=0.5, dtype=np.float32,
        )
        sharded = compute_sharded_stationary(store)
        assert np.array_equal(
            sharded.weighted_feature_sum, dense.weighted_feature_sum
        )
        assert sharded.normalizer == dense.normalizer
        assert sharded.num_nodes == dense.num_nodes
        assert np.array_equal(sharded.features_for(), dense.features_for())
        rng = np.random.default_rng(seed)
        subset = rng.integers(0, graph.num_nodes, size=37)
        assert np.array_equal(
            sharded.features_for(subset), dense.features_for(subset)
        )
        assert np.array_equal(
            sharded.degrees_for(subset), dense.degrees_with_loops[subset]
        )

    def test_float64_deployment_also_bit_identical(self):
        graph, features = _random_deployment(3, dtype=np.float64)
        dense = compute_stationary_state(graph, features, gamma=0.5, dtype=np.float64)
        store = ShardedGraphStore.from_graph(
            graph, features, ShardConfig(num_shards=3), gamma=0.5, dtype=np.float64
        )
        sharded = compute_sharded_stationary(store)
        assert np.array_equal(
            sharded.weighted_feature_sum, dense.weighted_feature_sum
        )
        assert np.array_equal(sharded.features_for(), dense.features_for())


class TestShardedPredictorEquivalence:
    @pytest.fixture(scope="class")
    def unsharded(self, trained_nai, tiny_dataset):
        config = trained_nai.inference_config(
            t_min=1,
            t_max=3,
            distance_threshold=trained_nai.suggest_distance_threshold(0.5),
            batch_size=48,
        )
        predictor = trained_nai.build_predictor(policy="distance", config=config)
        predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
        return predictor

    @pytest.fixture(scope="class")
    def baseline(self, unsharded, tiny_dataset):
        return unsharded.predict(tiny_dataset.split.test_idx)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_predict_bit_identical(
        self, strategy, num_shards, unsharded, tiny_dataset, baseline
    ):
        sharded = ShardedPredictor.from_predictor(unsharded).prepare(
            tiny_dataset.graph,
            tiny_dataset.features,
            ShardConfig(num_shards=num_shards, strategy=strategy),
        )
        result = sharded.predict(tiny_dataset.split.test_idx)
        assert np.array_equal(result.predictions, baseline.predictions)
        assert np.array_equal(result.depths, baseline.depths)
        # MAC totals must match field by field, not just approximately: the
        # sharded path executes the very same batches over bit-identical
        # bundles and stationary inputs.
        for name in ("stationary", "propagation", "decision", "classification"):
            assert getattr(result.macs, name) == getattr(baseline.macs, name)
        assert result.macs.total == baseline.macs.total

    @pytest.mark.parametrize("policy", ["distance", "gate"])
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_predict_matches_the_reference_oracle(
        self, num_shards, policy, trained_nai, tiny_dataset
    ):
        kwargs = {}
        if policy == "distance":
            kwargs["distance_threshold"] = trained_nai.suggest_distance_threshold(0.5)
        predictor = trained_nai.build_predictor(
            policy=policy,
            config=trained_nai.inference_config(t_min=1, batch_size=48, **kwargs),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        sharded = ShardedPredictor.from_predictor(predictor).prepare(
            tiny_dataset.graph, tiny_dataset.features, ShardConfig(num_shards=num_shards)
        )
        test_idx = tiny_dataset.split.test_idx
        result = sharded.predict(test_idx)
        expected = oracle_predict(predictor, test_idx)
        assert np.array_equal(result.predictions, expected.predictions)
        assert np.array_equal(result.depths, expected.depths)
        assert result.macs.total == expected.macs.total
        assert expected.depths.min() < predictor.config.t_max

    def test_no_early_exit_policy_also_identical(self, trained_nai, tiny_dataset):
        predictor = trained_nai.build_predictor(policy="none")
        predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
        sharded = ShardedPredictor.from_predictor(predictor).prepare(
            tiny_dataset.graph, tiny_dataset.features, ShardConfig(num_shards=2)
        )
        test_idx = tiny_dataset.split.test_idx
        base = predictor.predict(test_idx, keep_logits=True)
        mine = sharded.predict(test_idx, keep_logits=True)
        assert np.array_equal(mine.predictions, base.predictions)
        assert mine.macs.total == base.macs.total
        for node, logits in base.logits.items():
            assert np.array_equal(mine.logits[node], logits)

    def test_per_shard_memory_scales_down(self, unsharded, tiny_dataset):
        footprints = {}
        for num_shards in (1, 4):
            sharded = ShardedPredictor.from_predictor(unsharded).prepare(
                tiny_dataset.graph,
                tiny_dataset.features,
                ShardConfig(num_shards=num_shards, strategy="degree_balanced"),
            )
            footprints[num_shards] = sharded.store.memory_report()["max_shard_nbytes"]
        # 1/4 of the nodes plus halo: well under half the single-shard state.
        assert footprints[4] < footprints[1] * 0.5

    def test_requires_prepare(self, trained_nai):
        sharded = ShardedPredictor(trained_nai.classifiers)
        with pytest.raises(NotFittedError):
            sharded.predict(np.array([0]))

    def test_empty_batch_rejected(self, unsharded, tiny_dataset):
        sharded = ShardedPredictor.from_predictor(unsharded).prepare(
            tiny_dataset.graph, tiny_dataset.features, ShardConfig(num_shards=2)
        )
        with pytest.raises(ConfigurationError):
            sharded.predict(np.array([], dtype=np.int64))
