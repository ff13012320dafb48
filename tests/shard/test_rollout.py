"""Versioned routing rollout: old-plan drain, new-plan serve, no losses."""

import numpy as np
import pytest

from repro.core import MonitorConfig, ServingConfig, ShardConfig
from repro.exceptions import ConfigurationError, ServingError
from repro.obs import HealthMonitor
from repro.serving import FakeClock, SubmitOptions
from repro.shard import GraphPartitioner, ShardRouter, ShardedPredictor

SERVING = ServingConfig(
    num_workers=2, max_batch_size=32, max_wait_ms=0.5, cache_capacity=8
)


@pytest.fixture(scope="module")
def unsharded(trained_nai, tiny_dataset):
    config = trained_nai.inference_config(
        t_min=1,
        t_max=3,
        distance_threshold=trained_nai.suggest_distance_threshold(0.5),
        batch_size=32,
    )
    predictor = trained_nai.build_predictor(policy="distance", config=config)
    predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
    return predictor


def _sharded(unsharded, tiny_dataset, shard_config, *, version=0):
    plan = GraphPartitioner(shard_config).partition(
        tiny_dataset.graph, version=version
    )
    return ShardedPredictor.from_predictor(unsharded).prepare(
        tiny_dataset.graph, tiny_dataset.features, shard_config, plan=plan
    )


class TestPlanVersioning:
    def test_partition_stamps_version_and_with_version_restamps(
        self, tiny_dataset
    ):
        config = ShardConfig(num_shards=2)
        plan = GraphPartitioner(config).partition(tiny_dataset.graph)
        assert plan.version == 0
        restamped = plan.with_version(3)
        assert restamped.version == 3
        np.testing.assert_array_equal(restamped.owner, plan.owner)
        assert restamped.replicas == plan.replicas

    def test_stale_or_equal_version_rejected(self, unsharded, tiny_dataset):
        old = _sharded(unsharded, tiny_dataset, ShardConfig(num_shards=2))
        same = _sharded(unsharded, tiny_dataset, ShardConfig(num_shards=2))
        with ShardRouter(old, SERVING) as router:
            with pytest.raises(ConfigurationError, match="newer plan version"):
                router.install_plan(same)

    def test_unprepared_successor_rejected(self, unsharded, tiny_dataset):
        old = _sharded(unsharded, tiny_dataset, ShardConfig(num_shards=2))
        with ShardRouter(old, SERVING) as router:
            with pytest.raises(ServingError, match="prepared"):
                router.install_plan(ShardedPredictor(unsharded.classifiers))


class TestLiveRollout:
    def test_old_plan_drains_while_new_plan_serves(
        self, unsharded, tiny_dataset
    ):
        """A repartition rolls through live traffic: requests in flight on
        the old plan drain there, new submissions route on the new plan,
        nothing fails, and every answer is bit-identical to the oracle."""
        old = _sharded(
            unsharded, tiny_dataset, ShardConfig(num_shards=2, strategy="hash")
        )
        new = _sharded(
            unsharded,
            tiny_dataset,
            ShardConfig(num_shards=3, strategy="degree_balanced"),
            version=1,
        )
        test_idx = tiny_dataset.split.test_idx
        batches = [test_idx[i:i + 9] for i in range(0, test_idx.shape[0], 9)]
        baseline = unsharded.predict(test_idx)

        with ShardRouter(old, SERVING) as router:
            assert router.plan_version == 0
            # Phase 1: accept traffic on the old plan and leave it in flight.
            in_flight = [router.submit(batch, SubmitOptions(timeout=300.0)) for batch in batches]
            # Phase 2: install the repartition mid-traffic.
            assert router.install_plan(new) == 1
            assert router.plan_version == 1
            assert router.predictor is new
            # Phase 3: new submissions route on the new plan immediately...
            after = [router.submit(batch, SubmitOptions(timeout=300.0)) for batch in batches]
            # ...while the old generation's requests drain to completion.
            old_responses = [h.result(timeout=300.0) for h in in_flight]
            new_responses = [h.result(timeout=300.0) for h in after]
            retired = router.finish_rollout(timeout=300.0)
            state = router.rollout_state()
            stats = router.stats()

        assert retired == 1
        assert all(r.plan_version == 0 for r in old_responses)
        assert all(r.plan_version == 1 for r in new_responses)
        for responses in (old_responses, new_responses):
            predictions = np.concatenate([r.predictions for r in responses])
            depths = np.concatenate([r.depths for r in responses])
            np.testing.assert_array_equal(predictions, baseline.predictions)
            np.testing.assert_array_equal(depths, baseline.depths)
        # Per-version accounting: each generation answered exactly what it
        # routed — zero failed requests anywhere in the rollout.
        assert [row["version"] for row in state] == [1]
        assert state[0]["requests_routed"] == len(batches)
        assert state[0]["requests_failed"] == 0
        assert stats.plan_version == 1
        assert stats.requests_failed == 0

    def test_rollout_state_reports_draining_generation(
        self, unsharded, tiny_dataset
    ):
        old = _sharded(unsharded, tiny_dataset, ShardConfig(num_shards=2))
        new = _sharded(
            unsharded, tiny_dataset, ShardConfig(num_shards=2), version=2
        )
        test_idx = tiny_dataset.split.test_idx
        with ShardRouter(old, SERVING) as router:
            router.submit(test_idx[:10], SubmitOptions(timeout=300.0)).result(timeout=300.0)
            router.install_plan(new)
            state = router.rollout_state()
            assert [row["version"] for row in state] == [0, 2]
            assert state[0]["draining"] is True
            assert state[0]["requests_routed"] == 1
            # Completed counts per-shard sub-requests: a mixed-owner request
            # fans out, so the count is at least the routed count.
            assert state[0]["requests_completed"] >= 1
            assert state[0]["requests_failed"] == 0
            assert state[1]["draining"] is False
            assert state[1]["requests_routed"] == 0
            # Draining generations still answer their accepted traffic; the
            # active one takes all new routing.
            response = router.submit(test_idx[:10], SubmitOptions(timeout=300.0)).result(
                timeout=300.0
            )
            assert response.plan_version == 2
            assert router.finish_rollout(timeout=300.0) == 1
            # A second finish is a no-op.
            assert router.finish_rollout() == 0

    def test_close_shuts_down_draining_generations_too(
        self, unsharded, tiny_dataset
    ):
        old = _sharded(unsharded, tiny_dataset, ShardConfig(num_shards=2))
        new = _sharded(
            unsharded, tiny_dataset, ShardConfig(num_shards=2), version=1
        )
        router = ShardRouter(old, SERVING)
        old_servers = list(router.servers.values())
        router.install_plan(new)
        router.close()
        with pytest.raises(ServingError):
            router.submit(np.array([0]))
        for server in old_servers:
            with pytest.raises(ServingError):
                server.submit(np.array([0]))


class TestRolloutMetrics:
    """The scrape reads the active generation: retired series disappear."""

    def test_scrape_after_shrinking_rollout_drops_retired_shards(
        self, unsharded, tiny_dataset
    ):
        old = _sharded(unsharded, tiny_dataset, ShardConfig(num_shards=3))
        new = _sharded(
            unsharded, tiny_dataset, ShardConfig(num_shards=2), version=1
        )
        test_idx = tiny_dataset.split.test_idx
        batches = [test_idx[i:i + 9] for i in range(0, test_idx.shape[0], 9)]
        clock = FakeClock()
        options = SubmitOptions(timeout=300.0)
        with ShardRouter(old, SERVING) as router:
            monitor = HealthMonitor(
                router,
                MonitorConfig(window_seconds=60.0, num_buckets=12),
                clock=clock,
            )
            for batch in batches:
                router.submit(batch, options).result(timeout=300.0)
            clock.advance(1.0)
            monitor.tick()
            old_total = router.stats().requests_completed
            text = router.metrics_text()
            assert 'repro_shard_requests_completed_total{shard="2"}' in text
            assert 'repro_shard_heat_window{shard="2"}' in text

            router.install_plan(new)
            router.finish_rollout(timeout=300.0)
            for batch in batches[:2]:
                router.submit(batch, options).result(timeout=300.0)
            clock.advance(1.0)
            monitor.tick()
            stats = router.stats()
            text = router.metrics_text()
            snapshot = router.registry.snapshot()

        # Only the active plan's two shards are exported, serving and window
        # series alike.
        assert 'shard="2"' not in text
        for name in (
            "repro_shard_requests_completed_total",
            "repro_shard_request_rate_window",
            "repro_shard_heat_window",
        ):
            shards = {
                key for key in snapshot if key.startswith(name + "{")
            }
            assert shards == {f"{name}{{shard=0}}", f"{name}{{shard=1}}"}
        # The fleet counters report the new generation's totals.
        assert stats.requests_completed > 0
        assert stats.requests_completed < old_total
        assert snapshot["repro_requests_completed_total"] == stats.requests_completed
        assert snapshot["repro_plan_version"] == 1.0
