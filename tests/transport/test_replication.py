"""Unit tests for RetryPolicy, call_with_retry and ReplicatedTransport."""

import numpy as np
import pytest

from repro.core import ShardConfig
from repro.exceptions import ConfigurationError, TransportError
from repro.graph.sampling import build_support_bundle
from repro.serving.clock import FakeClock
from repro.shard import GraphPartitioner, ShardedPredictor
from repro.transport import (
    NO_RETRY,
    FaultInjectingTransport,
    LocalTransport,
    ReplicatedTransport,
    RetryPolicy,
    call_with_retry,
)


@pytest.fixture(scope="module")
def sharded(small_deployment):
    graph, features, predictor = small_deployment
    return ShardedPredictor.from_predictor(predictor).prepare(
        graph, features, ShardConfig(num_shards=2, strategy="degree_balanced")
    )


class TestRetryPolicy:
    def test_delay_sequence_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base_seconds=0.01,
            backoff_cap_seconds=0.03,
            jitter_fraction=0.2,
            seed=42,
        )
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second  # re-seeded per call
        assert len(first) == 4
        assert all(0 < d <= 0.03 for d in first)

    def test_zero_jitter_is_a_pure_capped_exponential(self):
        policy = RetryPolicy(
            max_attempts=4,
            backoff_base_seconds=0.01,
            backoff_cap_seconds=0.025,
            jitter_fraction=0.0,
        )
        assert list(policy.delays()) == [0.01, 0.02, 0.025]

    def test_no_retry_yields_no_delays(self):
        assert list(NO_RETRY.delays()) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_seconds=0.1, backoff_cap_seconds=0.01)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)

    def test_with_updates(self):
        assert RetryPolicy().with_updates(max_attempts=7).max_attempts == 7


class TestCallWithRetry:
    def test_retries_retryable_errors_in_virtual_time(self):
        policy = RetryPolicy(max_attempts=3, jitter_fraction=0.0)
        clock = FakeClock()
        calls = []
        retried = []

        def flaky():
            calls.append(None)
            if len(calls) < 3:
                raise TransportError("transient", retryable=True)
            return "done"

        result = call_with_retry(
            policy, clock, flaky, on_retry=lambda e, d: retried.append(d)
        )
        assert result == "done"
        assert len(calls) == 3
        assert retried == list(policy.delays())[:2]
        assert clock.now() == pytest.approx(sum(retried))

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def poisoned():
            calls.append(None)
            raise TransportError("permanent", retryable=False)

        with pytest.raises(TransportError, match="permanent"):
            call_with_retry(RetryPolicy(max_attempts=5), FakeClock(), poisoned)
        assert len(calls) == 1

    def test_exhausted_budget_propagates_last_error(self):
        def always_failing():
            raise TransportError("still down", retryable=True)

        clock = FakeClock()
        with pytest.raises(TransportError, match="still down"):
            call_with_retry(
                RetryPolicy(max_attempts=3, jitter_fraction=0.0),
                clock,
                always_failing,
            )
        assert clock.now() > 0  # both backoff waits happened


def _fault_rails(shards, count, **kwargs):
    return [
        FaultInjectingTransport(
            LocalTransport(shards), replica_index=index, **kwargs
        )
        for index in range(count)
    ]


class TestReplicatedTransport:
    def test_bundles_bit_identical_to_plain_local_transport(self, sharded):
        store = sharded.store
        targets = np.arange(14)
        oracle = build_support_bundle(store.row_source(), targets, 3)
        store._set_transport(ReplicatedTransport(_fault_rails(store.shards, 2)))
        try:
            mine = build_support_bundle(store.row_source(), targets, 3)
        finally:
            store._set_transport(LocalTransport(store.shards))
        np.testing.assert_array_equal(mine.indptr, oracle.indptr)
        np.testing.assert_array_equal(mine.indices, oracle.indices)
        np.testing.assert_array_equal(mine.data, oracle.data)
        np.testing.assert_array_equal(mine.local_features, oracle.local_features)
        np.testing.assert_array_equal(
            mine.support.node_ids, oracle.support.node_ids
        )

    def test_least_loaded_routing_spreads_rows_across_rails(self, sharded):
        store = sharded.store
        store._set_transport(ReplicatedTransport(_fault_rails(store.shards, 2)))
        try:
            transport = store.transport
            for start in range(0, 60, 12):
                build_support_bundle(store.row_source(), np.arange(start, start + 12), 2)
            health = transport.describe()
        finally:
            store._set_transport(LocalTransport(store.shards))
        for shard_id, endpoints in health["shards"].items():
            served = [endpoint["rows_served"] for endpoint in endpoints]
            assert all(count > 0 for count in served), (
                f"shard {shard_id}: a rail served nothing ({served})"
            )

    def test_failover_marks_unhealthy_and_counts(self, sharded):
        store = sharded.store
        rails = _fault_rails(store.shards, 2)
        # Rail 0 loses shard 0 permanently; every request must fail over.
        rails[0].schedule_kill(0, 0, replica_index=0)
        clock = FakeClock()
        store._set_transport(
            ReplicatedTransport(
                rails, retry_policy=RetryPolicy(max_attempts=2), clock=clock
            )
        )
        try:
            transport = store.transport
            oracle_free = build_support_bundle(store.row_source(), np.arange(10), 3)
            health = transport.describe()
            stats = transport.stats.as_dict()
        finally:
            store._set_transport(LocalTransport(store.shards))
        assert oracle_free.num_local > 0
        assert stats["failovers"] > 0
        assert stats["retries"] > 0  # retryable kill consumed the budget first
        assert stats["health_transitions"] >= 1
        rail_health = {
            endpoint["rail"]: endpoint["healthy"]
            for endpoint in health["shards"][0]
        }
        assert rail_health[0] is False
        assert rail_health[1] is True

    def test_all_replicas_dead_raises_clean_nonretryable_error(self, sharded):
        store = sharded.store
        rails = _fault_rails(store.shards, 2)
        rails[0].schedule_kill(1, 0, replica_index=0)
        rails[1].schedule_kill(1, 0, replica_index=1)
        store._set_transport(
            ReplicatedTransport(rails, retry_policy=NO_RETRY, clock=FakeClock())
        )
        try:
            with pytest.raises(TransportError, match="all 2 replica") as info:
                build_support_bundle(store.row_source(), np.arange(20), 3)
        finally:
            store._set_transport(LocalTransport(store.shards))
        assert info.value.retryable is False
        assert info.value.shard_id == 1

    def test_healed_replica_returns_after_probation(self, sharded):
        store = sharded.store
        rails = _fault_rails(store.shards, 2)
        # Rail 0's shard 0 dies on its first two rounds, then heals.
        rails[0].schedule_kill(0, 0, 2, replica_index=0)
        store._set_transport(
            ReplicatedTransport(
                rails,
                retry_policy=NO_RETRY,
                clock=FakeClock(),
                probe_after_rounds=2,
            )
        )
        try:
            transport = store.transport
            for start in range(0, 72, 8):
                build_support_bundle(store.row_source(), np.arange(start, start + 8), 2)
            health = transport.describe()
        finally:
            store._set_transport(LocalTransport(store.shards))
        shard0 = {e["rail"]: e for e in health["shards"][0]}
        assert shard0[0]["healthy"] is True  # probed and healed
        assert shard0[0]["rows_served"] > 0
        # Unhealthy → healthy counts as a transition too.
        assert health["health_transitions"] >= 2

    def test_replica_map_from_plan_is_honored(self, small_deployment):
        graph, _, _ = small_deployment
        config = ShardConfig(
            num_shards=4,
            strategy="degree_balanced",
            replication_factor=1,
            hot_shard_boost=1,
            hot_shard_fraction=0.25,
        )
        plan = GraphPartitioner(config).partition(graph)
        assert plan.max_replication == 2
        boosted = [
            shard
            for shard in range(plan.num_shards)
            if len(plan.replicas_of(shard)) == 2
        ]
        assert len(boosted) == 1  # ceil(0.25 * 4) hot shards
        # The hot shard is the one with the highest accumulated degree.
        degrees = graph.degrees()
        loads = [degrees[plan.owned[s]].sum() for s in range(4)]
        assert boosted[0] == int(np.argmax(loads))

    def test_validation(self, sharded):
        shards = sharded.store.shards
        with pytest.raises(ConfigurationError, match="at least one rail"):
            ReplicatedTransport([])
        with pytest.raises(ConfigurationError, match="no replicas"):
            ReplicatedTransport([LocalTransport(shards)], ((0,), ()))
        with pytest.raises(ConfigurationError, match="only 1 rails"):
            ReplicatedTransport([LocalTransport(shards)], ((0,), (1,)))
        with pytest.raises(ConfigurationError, match="probe_after_rounds"):
            ReplicatedTransport([LocalTransport(shards)], probe_after_rounds=0)
