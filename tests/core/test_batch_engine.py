"""Tests for the worker-ownable BatchEngine extracted from NAIPredictor."""

import functools

import numpy as np
import pytest

from repro.core import inference
from repro.exceptions import ConfigurationError, NotFittedError
from repro.graph import kernels


@pytest.fixture(scope="module")
def deployed(trained_nai, tiny_dataset):
    predictor = trained_nai.build_predictor(
        policy="distance",
        config=trained_nai.inference_config(
            distance_threshold=trained_nai.suggest_distance_threshold(0.5),
            batch_size=30,
        ),
    )
    predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
    return predictor


class TestEngineLifecycle:
    def test_make_engine_requires_prepare(self, trained_nai):
        predictor = trained_nai.build_predictor(policy="none")
        assert not predictor.prepared
        with pytest.raises(NotFittedError):
            predictor.make_engine()

    def test_engines_share_read_only_state(self, deployed):
        first, second = deployed.make_engine(), deployed.make_engine()
        assert first.rows is second.rows
        assert first.a_hat is second.a_hat
        assert first.stationary is second.stationary
        assert first is not second

    def test_run_batch_rejects_empty_batch(self, deployed):
        with pytest.raises(ConfigurationError):
            deployed.make_engine().run_batch(np.array([], dtype=np.int64))

    def test_batches_run_counter(self, deployed, tiny_dataset):
        engine = deployed.make_engine()
        batch = np.asarray(tiny_dataset.split.test_idx[:10])
        engine.run_batch(batch)
        engine.run_batch(batch)
        assert engine.batches_run == 2


class TestBufferReuse:
    def test_buffers_grow_only_and_results_stay_identical(self, deployed, tiny_dataset):
        """Reusing the double buffers across batches must not leak state."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        engine = deployed.make_engine()
        small, large = test_idx[:5], test_idx[:40]
        fresh = [deployed.make_engine().run_batch(b) for b in (small, large, small)]
        reused = [engine.run_batch(b) for b in (small, large, small)]
        for lhs, rhs in zip(fresh, reused):
            np.testing.assert_array_equal(lhs.predictions, rhs.predictions)
            np.testing.assert_array_equal(lhs.depths, rhs.depths)
            assert lhs.macs.total == pytest.approx(rhs.macs.total)
        buffer = engine._buffer_a
        engine.run_batch(small)
        assert engine._buffer_a is buffer  # no reallocation for smaller batches

    def test_engine_matches_predict(self, deployed, tiny_dataset):
        """One engine run over each predict-batch equals predict() itself."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        sequential = deployed.predict(test_idx)
        engine = deployed.make_engine()
        predictions = []
        from repro.graph.sampling import batch_iterator

        for batch in batch_iterator(test_idx, deployed.config.batch_size):
            predictions.append(engine.run_batch(batch).predictions)
        np.testing.assert_array_equal(
            np.concatenate(predictions), sequential.predictions
        )


class TestRunDispatchThreshold:
    def test_threshold_sweep_preserves_outputs(
        self, trained_nai, tiny_dataset, monkeypatch
    ):
        """Any masked-SpMM crossover is a pure perf choice — outputs never change."""
        config = trained_nai.inference_config(
            distance_threshold=trained_nai.suggest_distance_threshold(0.5)
        )
        results = []
        for threshold in (0, 8, 1_000_000):
            monkeypatch.setattr(
                inference,
                "auto_masked_spmm",
                functools.partial(
                    kernels.auto_masked_spmm, max_zero_copy_runs=threshold
                ),
            )
            predictor = trained_nai.build_predictor(policy="distance", config=config)
            predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
            results.append(predictor.predict(np.asarray(tiny_dataset.split.test_idx)))
        baseline = results[0]
        for other in results[1:]:
            np.testing.assert_array_equal(other.predictions, baseline.predictions)
            np.testing.assert_array_equal(other.depths, baseline.depths)
            assert other.macs.total == pytest.approx(baseline.macs.total)
