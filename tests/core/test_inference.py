"""Tests for the Algorithm-1 inference engine (NAIPredictor)."""

import numpy as np
import pytest

from repro.core import NAIConfig, NAIPredictor
from repro.exceptions import ConfigurationError, NotFittedError
from repro.graph import propagate_features

from oracle import oracle_predict


@pytest.fixture(scope="module")
def deployed(trained_nai, tiny_dataset):
    """A predictor with no early exit (vanilla fixed depth), prepared on the full graph."""
    predictor = trained_nai.build_predictor(policy="none")
    predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
    return predictor


class TestPredictorValidation:
    def test_requires_classifiers(self):
        with pytest.raises(ConfigurationError):
            NAIPredictor([])

    def test_requires_prepare_before_predict(self, trained_nai):
        predictor = trained_nai.build_predictor(policy="none")
        with pytest.raises(NotFittedError):
            predictor.predict(np.array([0]))

    def test_config_depth_checked(self, trained_nai):
        with pytest.raises(ConfigurationError):
            NAIPredictor(trained_nai.classifiers, config=NAIConfig(t_min=1, t_max=99))

    def test_empty_batch_rejected(self, deployed):
        with pytest.raises(ConfigurationError):
            deployed.predict(np.array([], dtype=np.int64))


class TestVanillaInference:
    def test_predictions_cover_all_requested_nodes(self, deployed, tiny_dataset):
        test_idx = tiny_dataset.split.test_idx
        result = deployed.predict(test_idx)
        assert result.num_nodes == test_idx.shape[0]
        assert (result.predictions >= 0).all()
        assert np.array_equal(result.node_ids, test_idx)

    def test_fixed_depth_assigns_everything_to_t_max(self, deployed, tiny_dataset):
        result = deployed.predict(tiny_dataset.split.test_idx)
        assert set(np.unique(result.depths)) == {deployed.config.t_max}
        distribution = result.depth_distribution()
        assert distribution[-1] == result.num_nodes
        assert sum(distribution) == result.num_nodes

    def test_accuracy_beats_chance_substantially(self, deployed, tiny_dataset):
        result = deployed.predict(tiny_dataset.split.test_idx)
        assert result.accuracy(tiny_dataset.labels) > 0.6

    def test_matches_offline_full_graph_propagation(self, trained_nai, tiny_dataset):
        """Online per-batch propagation equals whole-graph propagation for the batch."""
        predictor = trained_nai.build_predictor(policy="none")
        predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
        test_idx = tiny_dataset.split.test_idx[:40]
        online = predictor.predict(test_idx, keep_logits=True)

        depth = trained_nai.backbone.depth
        propagated = propagate_features(tiny_dataset.graph, tiny_dataset.features, depth)
        classifier = trained_nai.classifiers[depth - 1]
        from repro.nn import Tensor

        offline_logits = classifier([Tensor(m[test_idx]) for m in propagated]).data
        online_logits = np.stack([online.logits[int(n)] for n in test_idx])
        assert np.allclose(online_logits, offline_logits, atol=1e-8)

    def test_macs_and_time_positive(self, deployed, tiny_dataset):
        result = deployed.predict(tiny_dataset.split.test_idx)
        assert result.macs.total > 0
        assert result.macs.propagation > 0
        assert result.timings.total > 0
        assert result.macs_per_node() > 0

    def test_batches_do_not_change_predictions(self, trained_nai, tiny_dataset):
        test_idx = tiny_dataset.split.test_idx
        small = trained_nai.build_predictor(
            policy="none", config=trained_nai.inference_config(batch_size=16)
        ).prepare(tiny_dataset.graph, tiny_dataset.features).predict(test_idx)
        large = trained_nai.build_predictor(
            policy="none", config=trained_nai.inference_config(batch_size=1000)
        ).prepare(tiny_dataset.graph, tiny_dataset.features).predict(test_idx)
        assert np.array_equal(small.predictions, large.predictions)


class TestAdaptiveInference:
    def test_zero_threshold_matches_vanilla(self, trained_nai, tiny_dataset, deployed):
        adaptive = trained_nai.build_predictor(
            policy="distance",
            config=trained_nai.inference_config(distance_threshold=0.0),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        test_idx = tiny_dataset.split.test_idx
        assert np.array_equal(
            adaptive.predict(test_idx).predictions, deployed.predict(test_idx).predictions
        )

    def test_huge_threshold_exits_at_t_min(self, trained_nai, tiny_dataset):
        predictor = trained_nai.build_predictor(
            policy="distance",
            config=trained_nai.inference_config(distance_threshold=1e9),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        result = predictor.predict(tiny_dataset.split.test_idx)
        assert set(np.unique(result.depths)) == {1}

    def test_early_exit_reduces_macs(self, trained_nai, tiny_dataset, deployed):
        threshold = trained_nai.suggest_distance_threshold(0.7)
        adaptive = trained_nai.build_predictor(
            policy="distance",
            config=trained_nai.inference_config(distance_threshold=threshold),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        test_idx = tiny_dataset.split.test_idx
        adaptive_result = adaptive.predict(test_idx)
        vanilla_result = deployed.predict(test_idx)
        assert adaptive_result.macs.total < vanilla_result.macs.total
        assert adaptive_result.average_depth() < vanilla_result.average_depth()

    def test_t_min_respected(self, trained_nai, tiny_dataset):
        predictor = trained_nai.build_predictor(
            policy="distance",
            config=trained_nai.inference_config(t_min=2, distance_threshold=1e9),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        result = predictor.predict(tiny_dataset.split.test_idx)
        assert result.depths.min() >= 2

    def test_t_max_caps_depth(self, trained_nai, tiny_dataset):
        predictor = trained_nai.build_predictor(
            policy="distance",
            config=trained_nai.inference_config(t_max=2, distance_threshold=0.0),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        result = predictor.predict(tiny_dataset.split.test_idx)
        assert result.depths.max() <= 2

    def test_gate_policy_runs_end_to_end(self, trained_nai, tiny_dataset):
        predictor = trained_nai.build_predictor(policy="gate")
        predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
        result = predictor.predict(tiny_dataset.split.test_idx)
        assert result.accuracy(tiny_dataset.labels) > 0.4
        assert result.depths.min() >= 1

    def test_depth_distribution_sums_to_batch(self, trained_nai, tiny_dataset):
        threshold = trained_nai.suggest_distance_threshold(0.5)
        predictor = trained_nai.build_predictor(
            policy="distance",
            config=trained_nai.inference_config(distance_threshold=threshold),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        result = predictor.predict(tiny_dataset.split.test_idx)
        assert sum(result.depth_distribution()) == result.num_nodes

    def test_feature_processing_macs_below_total(self, trained_nai, tiny_dataset):
        predictor = trained_nai.build_predictor(
            policy="distance",
            config=trained_nai.inference_config(
                distance_threshold=trained_nai.suggest_distance_threshold(0.5)
            ),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        result = predictor.predict(tiny_dataset.split.test_idx)
        assert result.macs.feature_processing < result.macs.total


def assert_matches_oracle(result, expected):
    """Exact agreement with the oracle: predictions, depths and MAC totals."""
    np.testing.assert_array_equal(result.predictions, expected.predictions)
    np.testing.assert_array_equal(result.depths, expected.depths)
    assert result.macs.total == expected.macs.total
    assert result.macs.propagation == expected.macs.propagation


class TestEngineAndDtypeEquivalence:
    """The shipped engine must reproduce the naive reference oracle exactly."""

    @pytest.mark.parametrize("batch_size", [7, 500])
    @pytest.mark.parametrize("t_min", [1, 2, 3])
    @pytest.mark.parametrize("policy", ["none", "distance", "gate"])
    def test_engine_matches_oracle(self, trained_nai, tiny_dataset, policy, t_min, batch_size):
        kwargs = {}
        if policy == "distance":
            kwargs["distance_threshold"] = trained_nai.suggest_distance_threshold(0.6)
        predictor = trained_nai.build_predictor(
            policy=policy,
            config=trained_nai.inference_config(t_min=t_min, batch_size=batch_size, **kwargs),
        ).prepare(tiny_dataset.graph, tiny_dataset.features)
        test_idx = tiny_dataset.split.test_idx
        result = predictor.predict(test_idx)
        expected = oracle_predict(predictor, test_idx)
        assert_matches_oracle(result, expected)
        if policy != "none" and t_min < predictor.config.t_max:
            # The grid must exercise early exit, not only the fixed-depth path.
            assert expected.depths.min() < predictor.config.t_max

    @pytest.mark.parametrize("policy", ["none", "distance", "gate"])
    def test_float32_engine_matches_float64_oracle(self, trained_nai, tiny_dataset, policy):
        """The shipped precision against the seed's full-precision path."""
        kwargs = {}
        if policy == "distance":
            kwargs["distance_threshold"] = trained_nai.suggest_distance_threshold(0.6)
        predictors = {
            dtype: trained_nai.build_predictor(
                policy=policy,
                config=trained_nai.inference_config(dtype=dtype, **kwargs),
            ).prepare(tiny_dataset.graph, tiny_dataset.features)
            for dtype in ("float32", "float64")
        }
        test_idx = tiny_dataset.split.test_idx
        assert_matches_oracle(
            predictors["float32"].predict(test_idx),
            oracle_predict(predictors["float64"], test_idx),
        )

    @pytest.mark.parametrize("policy", ["none", "distance"])
    def test_float32_matches_float64_predictions(self, trained_nai, tiny_dataset, policy):
        kwargs = {}
        if policy == "distance":
            kwargs["distance_threshold"] = trained_nai.suggest_distance_threshold(0.6)
        test_idx = tiny_dataset.split.test_idx
        results = {}
        for dtype in ("float64", "float32"):
            predictor = trained_nai.build_predictor(
                policy=policy,
                config=trained_nai.inference_config(dtype=dtype, **kwargs),
            ).prepare(tiny_dataset.graph, tiny_dataset.features)
            results[dtype] = predictor.predict(test_idx)
        assert np.array_equal(
            results["float64"].predictions, results["float32"].predictions
        )
        assert np.array_equal(results["float64"].depths, results["float32"].depths)

    def test_float32_logits_close_to_float64(self, trained_nai, tiny_dataset):
        test_idx = tiny_dataset.split.test_idx[:25]
        logits = {}
        for dtype in ("float64", "float32"):
            predictor = trained_nai.build_predictor(
                policy="none", config=trained_nai.inference_config(dtype=dtype)
            ).prepare(tiny_dataset.graph, tiny_dataset.features)
            result = predictor.predict(test_idx, keep_logits=True)
            logits[dtype] = np.stack([result.logits[int(n)] for n in test_idx])
        assert np.allclose(logits["float64"], logits["float32"], atol=1e-3)

    def test_invalid_dtype_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            NAIConfig(dtype="float16")
