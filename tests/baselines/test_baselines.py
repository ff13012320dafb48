"""Tests for the four inference-acceleration baselines."""

import numpy as np
import pytest

from repro.baselines import (
    GLNN,
    NOSMOG,
    QuantizedInference,
    TinyGNN,
    quantize_depthwise_classifier,
    structural_embeddings,
)
from repro.exceptions import ConfigurationError, NotFittedError
from repro.models import SGC
from repro.nn import Tensor


class TestGLNN:
    def test_requires_fit_before_predict(self, tiny_dataset):
        with pytest.raises(NotFittedError):
            GLNN(rng=0).predict(tiny_dataset, tiny_dataset.split.test_idx)

    def test_fit_and_predict_shapes(self, tiny_dataset, teacher_target):
        model = GLNN(rng=0, epochs=30).fit(tiny_dataset, teacher_target)
        result = model.evaluate(tiny_dataset)
        assert result.num_nodes == tiny_dataset.split.num_test
        assert result.accuracy(tiny_dataset.labels) > 1.0 / tiny_dataset.num_classes

    def test_no_feature_processing_macs(self, tiny_dataset, teacher_target):
        model = GLNN(rng=0, epochs=10).fit(tiny_dataset, teacher_target)
        result = model.evaluate(tiny_dataset)
        assert result.macs.propagation == 0.0
        assert result.macs.classification > 0.0

    def test_hidden_multiplier_widens_student(self):
        narrow = GLNN(hidden_dims=(32,), hidden_multiplier=1, rng=0)
        wide = GLNN(hidden_dims=(32,), hidden_multiplier=4, rng=0)
        assert wide.hidden_dims == (128,)
        assert narrow.hidden_dims == (32,)

    def test_works_without_teacher(self, tiny_dataset):
        model = GLNN(rng=0, epochs=10).fit(tiny_dataset, None)
        result = model.evaluate(tiny_dataset)
        assert result.num_nodes == tiny_dataset.split.num_test


class TestNOSMOG:
    def test_structural_embeddings_shape_and_scale(self, tiny_dataset):
        embeddings = structural_embeddings(
            tiny_dataset.graph.adjacency, 8, rng=np.random.default_rng(0)
        )
        assert embeddings.shape == (tiny_dataset.num_nodes, 8)
        stds = embeddings.std(axis=0)
        assert np.all(stds[stds > 0] < 5.0)

    def test_invalid_position_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            NOSMOG(position_dim=0)

    def test_fit_and_predict(self, tiny_dataset, teacher_target):
        model = NOSMOG(rng=0, epochs=30).fit(tiny_dataset, teacher_target)
        result = model.evaluate(tiny_dataset)
        assert result.num_nodes == tiny_dataset.split.num_test
        assert result.macs.propagation > 0.0  # position aggregation

    def test_position_features_help_over_glnn(self, tiny_dataset, teacher_target):
        """Topology-aware student should beat the feature-only student (paper Table V)."""
        glnn = GLNN(rng=0, epochs=40).fit(tiny_dataset, teacher_target)
        nosmog = NOSMOG(rng=0, epochs=40).fit(tiny_dataset, teacher_target)
        acc_glnn = glnn.evaluate(tiny_dataset).accuracy(tiny_dataset.labels)
        acc_nosmog = nosmog.evaluate(tiny_dataset).accuracy(tiny_dataset.labels)
        assert acc_nosmog > acc_glnn


class TestTinyGNN:
    def test_invalid_attention_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            TinyGNN(attention_dim=0)

    def test_fit_and_predict(self, tiny_dataset, teacher_target):
        model = TinyGNN(rng=0, epochs=25).fit(tiny_dataset, teacher_target)
        result = model.evaluate(tiny_dataset)
        assert result.num_nodes == tiny_dataset.split.num_test
        assert result.accuracy(tiny_dataset.labels) > 1.0 / tiny_dataset.num_classes

    def test_attention_adds_decision_macs(self, tiny_dataset, teacher_target):
        model = TinyGNN(rng=0, epochs=10).fit(tiny_dataset, teacher_target)
        result = model.evaluate(tiny_dataset)
        assert result.macs.decision > 0.0
        assert result.macs.propagation > 0.0

    def test_uses_only_one_hop(self, tiny_dataset, teacher_target):
        """TinyGNN touches fewer propagation MACs than a deep vanilla model."""
        model = TinyGNN(rng=0, epochs=10).fit(tiny_dataset, teacher_target)
        result = model.evaluate(tiny_dataset)
        per_node_propagation = result.macs.propagation / result.num_nodes
        # One hop touches at most (avg degree + 1) * f MACs per node.
        upper = (tiny_dataset.graph.degrees().max() + 1) * tiny_dataset.num_features
        assert per_node_propagation <= upper

    def test_support_carries_no_adjacency_and_changes_nothing(
        self, tiny_dataset, teacher_target, monkeypatch
    ):
        """Only the supporting-node count is read, so no adjacency is built."""
        from repro.baselines import tinygnn

        model = TinyGNN(rng=0, epochs=10).fit(tiny_dataset, teacher_target)
        node_ids = tiny_dataset.split.test_idx
        real = tinygnn.k_hop_neighborhood
        built = []

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(tinygnn, "k_hop_neighborhood", recording)
        lean = model.predict(tiny_dataset, node_ids)
        assert built and all(support.adjacency is None for support in built)

        def with_adjacency(*args, **kwargs):
            return real(*args, **{**kwargs, "include_adjacency": True})

        monkeypatch.setattr(tinygnn, "k_hop_neighborhood", with_adjacency)
        full = model.predict(tiny_dataset, node_ids)
        np.testing.assert_array_equal(lean.predictions, full.predictions)
        assert lean.macs == full.macs


class TestQuantization:
    def test_quantize_depthwise_classifier_keeps_interface(self, trained_nai):
        original = trained_nai.classifiers[-1]
        quantized = quantize_depthwise_classifier(original)
        assert quantized.depth == original.depth
        assert quantized.classification_macs_per_node() == original.classification_macs_per_node()

    def test_quantized_logits_close_to_float(self, trained_nai, tiny_dataset):
        from repro.graph import propagate_features

        original = trained_nai.classifiers[-1]
        quantized = quantize_depthwise_classifier(original)
        propagated = propagate_features(
            tiny_dataset.graph, tiny_dataset.features, original.depth
        )
        inputs = [Tensor(m[:50]) for m in propagated]
        float_pred = original(inputs).data.argmax(axis=1)
        quant_pred = quantized(inputs).data.argmax(axis=1)
        assert (float_pred == quant_pred).mean() > 0.85

    def test_requires_classifiers(self):
        with pytest.raises(ConfigurationError):
            QuantizedInference([])

    def test_rejects_classifier_without_mlp_block(self):
        class Weird:
            depth = 1

        with pytest.raises(ConfigurationError):
            quantize_depthwise_classifier(Weird())

    def test_accuracy_close_to_vanilla(self, trained_nai, tiny_dataset):
        baseline = QuantizedInference(trained_nai.classifiers, batch_size=200)
        baseline.fit(tiny_dataset)
        quant_result = baseline.evaluate(tiny_dataset)
        vanilla_result = trained_nai.evaluate(tiny_dataset, policy="none")
        assert abs(
            quant_result.accuracy(tiny_dataset.labels)
            - vanilla_result.accuracy(tiny_dataset.labels)
        ) < 0.05

    def test_same_macs_as_vanilla(self, trained_nai, tiny_dataset):
        """INT8 reduces precision, not MAC count (paper Table V)."""
        baseline = QuantizedInference(trained_nai.classifiers, batch_size=500)
        baseline.fit(tiny_dataset)
        quant_result = baseline.evaluate(tiny_dataset)
        vanilla_result = trained_nai.evaluate(tiny_dataset, policy="none")
        assert quant_result.macs.total == pytest.approx(vanilla_result.macs.total, rel=0.01)

    def test_float32_default_matches_float64_predictions(self, trained_nai, tiny_dataset):
        """The float32 default dtype is prediction-identical on the INT8 path.

        This is the validation gating the ROADMAP's "flip the default
        inference dtype" item: the quantized baseline stacks INT8 classifier
        error on top of float32 propagation error, and even then the argmax
        decisions must not move.  float64 stays one config flag away.
        """
        single = QuantizedInference(trained_nai.classifiers, batch_size=200)
        double = QuantizedInference(
            trained_nai.classifiers, batch_size=200, dtype="float64"
        )
        single.fit(tiny_dataset)
        double.fit(tiny_dataset)
        single_result = single.evaluate(tiny_dataset)
        double_result = double.evaluate(tiny_dataset)
        assert single._predictor.config.dtype == "float32"
        assert double._predictor.config.dtype == "float64"
        np.testing.assert_array_equal(
            single_result.predictions, double_result.predictions
        )
        np.testing.assert_array_equal(single_result.depths, double_result.depths)
        assert single_result.macs.total == pytest.approx(double_result.macs.total)


class TestSGCQuantizationAcrossBackbones:
    @pytest.mark.parametrize("attribute", ["mlp"])
    def test_sgc_classifier_quantizable(self, attribute):
        backbone = SGC(8, 3, 2, rng=0)
        classifier = backbone.make_classifier(2)
        quantized = quantize_depthwise_classifier(classifier)
        assert hasattr(quantized, attribute)
