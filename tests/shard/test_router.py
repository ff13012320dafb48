"""Tests for the shard router: ownership routing, fan-out, stats merging."""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ServingConfig, ShardConfig
from repro.exceptions import ConfigurationError, ServingError
from repro.serving import InferenceRequest
from repro.shard import (
    RoutedRequest,
    ShardRouter,
    ShardedPredictor,
    merge_latency_summaries,
    merge_serving_snapshots,
)
from repro.metrics.timing import LatencySummary

from oracle import oracle_engine


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


@pytest.fixture(scope="module")
def sharded(unsharded, tiny_dataset):
    return ShardedPredictor.from_predictor(unsharded).prepare(
        tiny_dataset.graph,
        tiny_dataset.features,
        ShardConfig(num_shards=3, strategy="degree_balanced"),
    )


SERVING = ServingConfig(
    num_workers=2, max_batch_size=32, max_wait_ms=0.5, cache_capacity=8
)


class TestRouting:
    def test_mixed_shard_requests_reassemble_in_order(
        self, sharded, unsharded, tiny_dataset
    ):
        test_idx = tiny_dataset.split.test_idx
        baseline = unsharded.predict(test_idx)
        requests = [test_idx[i:i + 11] for i in range(0, test_idx.shape[0], 11)]
        with ShardRouter(sharded, SERVING) as router:
            responses = router.predict_many(requests, timeout=300.0)
            stats = router.stats()
        got_predictions = np.concatenate([r.predictions for r in responses])
        got_depths = np.concatenate([r.depths for r in responses])
        assert np.array_equal(got_predictions, baseline.predictions)
        assert np.array_equal(got_depths, baseline.depths)
        assert any(r.num_shards_touched > 1 for r in responses)
        assert stats.nodes_completed == test_idx.shape[0]

    def test_single_owner_request_touches_one_shard(self, sharded):
        owned = sharded.store.shards[1].owned[:5]
        with ShardRouter(sharded, SERVING) as router:
            response = router.submit(owned).result(timeout=300.0)
        assert response.num_shards_touched == 1
        assert set(response.per_shard) == {1}

    def test_latency_is_worst_sub_request(self, sharded, tiny_dataset):
        test_idx = tiny_dataset.split.test_idx[:20]
        with ShardRouter(sharded, SERVING) as router:
            response = router.submit(test_idx).result(timeout=300.0)
        assert response.latency_seconds == max(
            r.latency_seconds for r in response.per_shard.values()
        )

    def test_empty_request_rejected(self, sharded):
        with ShardRouter(sharded, SERVING) as router:
            with pytest.raises(ConfigurationError):
                router.submit(np.array([], dtype=np.int64))

    def test_closed_router_rejects(self, sharded):
        router = ShardRouter(sharded, SERVING)
        router.close()
        with pytest.raises(ServingError):
            router.submit(np.array([0]))

    def test_unprepared_predictor_rejected(self, trained_nai):
        with pytest.raises(ServingError):
            ShardRouter(ShardedPredictor(trained_nai.classifiers), SERVING)


class TestBadIdsFailOnlyTheirOwnRequest:
    def test_out_of_range_ids_are_rejected_at_submit(
        self, sharded, unsharded, tiny_dataset
    ):
        """Good, bad and good requests in one batching window.  ``-1`` once
        reached the owner of node ``n - 1`` by negative indexing and failed
        its batchmates there; every bad id is now refused at the door."""
        num_nodes = tiny_dataset.graph.num_nodes
        home = int(sharded.store.owner_of(np.array([num_nodes - 1]))[0])
        owned = sharded.store.shards[home].owned
        good = [owned[:3], owned[3:5]]
        config = ServingConfig(
            num_workers=1, max_batch_size=64, max_wait_ms=200.0, cache_capacity=8
        )
        with ShardRouter(sharded, config) as router:
            first = router.submit(good[0])
            for bad in ([-1], [num_nodes], [num_nodes + 5], [owned[0], -1]):
                with pytest.raises(ConfigurationError, match="node ids must lie in"):
                    router.submit(np.array(bad))
            second = router.submit(good[1])
            responses = [first.result(timeout=30.0), second.result(timeout=30.0)]
            [state] = router.rollout_state()
        oracle = oracle_engine(unsharded)
        for request, response in zip(good, responses):
            expected = oracle.run_batch(request)
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            np.testing.assert_array_equal(response.depths, expected.depths)
        batch_ids = {r.per_shard[home].batch_id for r in responses}
        assert len(batch_ids) == 1  # one window on the home shard
        assert state["requests_routed"] == 2
        assert state["requests_completed"] == 2 and state["requests_failed"] == 0


class TestRoutedResultTimeout:
    def test_timeout_bounds_the_whole_fan_in(self):
        """One deadline for every part, not one full timeout per shard.

        Parts 0 and 1 answer just inside a per-part timeout, one after the
        other, and part 2 never does.  Waiting the full timeout per part
        would block about 0.55 s before raising; one shared deadline
        raises at 0.2 s.
        """
        parts = [
            (shard_id, np.array([shard_id]), InferenceRequest(shard_id, np.array([shard_id])))
            for shard_id in range(3)
        ]
        answer = SimpleNamespace(
            predictions=np.zeros(1, dtype=np.int64),
            depths=np.ones(1, dtype=np.int64),
            latency_seconds=0.0,
        )
        timers = [
            threading.Timer(delay, parts[index][2]._fulfill, args=(answer,))
            for index, delay in enumerate((0.18, 0.36))
        ]
        for timer in timers:
            timer.start()
        try:
            start = time.monotonic()
            with pytest.raises(ServingError):
                RoutedRequest(np.arange(3), parts).result(timeout=0.2)
            assert time.monotonic() - start < 0.45
        finally:
            for timer in timers:
                timer.cancel()


class TestStatsMerging:
    def test_fleet_counters_are_sums(self, sharded, tiny_dataset):
        test_idx = tiny_dataset.split.test_idx
        requests = [test_idx[i:i + 13] for i in range(0, test_idx.shape[0], 13)]
        with ShardRouter(sharded, SERVING) as router:
            router.predict_many(requests, timeout=300.0)
            stats = router.stats()
        assert stats.num_shards == 3
        assert stats.nodes_completed == sum(
            s.nodes_completed for s in stats.per_shard.values()
        )
        assert stats.requests_completed == sum(
            s.requests_completed for s in stats.per_shard.values()
        )
        # MAC breakdowns merge exactly (they are deterministic per batch).
        assert stats.macs.total == pytest.approx(
            sum(s.macs.total for s in stats.per_shard.values()), abs=1e-9
        )
        assert stats.timings.total == pytest.approx(
            sum(s.timings.total for s in stats.per_shard.values()), abs=1e-9
        )
        payload = stats.as_dict()
        assert payload["num_shards"] == 3
        assert set(payload["per_shard"]) == {"0", "1", "2"}

    def test_merge_empty_snapshot_dict(self):
        merged = merge_serving_snapshots({})
        assert merged.requests_completed == 0
        assert merged.latency.count == 0
        assert merged.controller_adjustments == 0
        assert merged.batch_width_p95 == 0.0

    def test_latency_merge_is_conservative(self):
        fast = LatencySummary(count=10, mean=1.0, p50=1.0, p95=2.0, p99=3.0, max=4.0)
        slow = LatencySummary(count=30, mean=2.0, p50=2.0, p95=5.0, p99=9.0, max=11.0)
        merged = merge_latency_summaries([fast, slow])
        assert merged.count == 40
        assert merged.p99 == 9.0
        assert merged.max == 11.0
        assert merged.mean == pytest.approx((1.0 * 10 + 2.0 * 30) / 40)


class TestPerShardControllers:
    def test_each_shard_gets_its_own_controller(self, sharded, tiny_dataset):
        """Adaptive batching must not couple shard loads: the router builds
        one independent controller per shard and surfaces their state."""
        config = SERVING.with_updates(
            batch_policy="marginal_latency",
            batch_size_ceiling=128,
            latency_slo_ms=100.0,
        )
        test_idx = tiny_dataset.split.test_idx
        with ShardRouter(sharded, config) as router:
            controllers = set(map(id, router.controllers.values()))
            assert len(controllers) == sharded.num_shards  # distinct objects
            router.predict_many(
                [test_idx[i:i + 7] for i in range(0, test_idx.shape[0], 7)],
                timeout=300.0,
            )
            state = router.controller_state()
            stats = router.stats()
        assert set(state) == set(range(sharded.num_shards))
        assert all(s["policy"] == "marginal_latency" for s in state.values())
        assert stats.batch_policy == "marginal_latency"
        assert stats.controller_adjustments == sum(
            s["adjustments"] for s in state.values()
        )
        assert stats.as_dict()["batch_width_p95"] == stats.batch_width_p95
