"""Fault-injection tests: clean failures, no partial state, retry recovery."""

import numpy as np
import pytest

from repro.core import ServingConfig, ShardConfig
from repro.exceptions import TransportError
from repro.graph.sampling import build_support_bundle
from repro.serving import InferenceServer
from repro.shard import ShardedPredictor
from repro.transport import (
    FaultInjectingTransport,
    LocalTransport,
    ShardServerGroup,
)


@pytest.fixture(scope="module")
def sharded(small_deployment):
    graph, features, predictor = small_deployment
    return ShardedPredictor.from_predictor(predictor).prepare(
        graph, features, ShardConfig(num_shards=2, strategy="degree_balanced")
    )


def _bundle_arrays(bundle):
    return (
        ("indptr", bundle.indptr),
        ("indices", bundle.indices),
        ("data", bundle.data),
        ("local_features", bundle.local_features),
        ("node_ids", bundle.support.node_ids),
        ("target_local", bundle.support.target_local),
        ("hops", bundle.support.hops),
    )


class TestBundleAssemblyFaults:
    def test_drop_mid_assembly_raises_cleanly_and_retry_is_identical(self, sharded):
        """A drop in the *middle* of bundle assembly (after the BFS rounds,
        during the adjacency fetch) must surface TransportError without
        corrupting the store; the retried build is bit-identical."""
        store = sharded.store
        targets = np.arange(12)
        oracle = build_support_bundle(store.row_source(), targets, 3)

        # Rounds of a depth-3 build: 3 frontier hops, 1 adjacency, 1 features.
        fault = FaultInjectingTransport(
            LocalTransport(store.shards),
            script=["ok", "ok", "ok", "drop"],
        )
        store._set_transport(fault)
        try:
            with pytest.raises(TransportError, match="injected drop"):
                build_support_bundle(store.row_source(), targets, 3)
            retried = build_support_bundle(store.row_source(), targets, 3)
        finally:
            store._set_transport(LocalTransport(store.shards))
        for name, mine in _bundle_arrays(retried):
            np.testing.assert_array_equal(
                mine, dict(_bundle_arrays(oracle))[name], err_msg=name
            )

    def test_disconnect_fails_every_round_until_reconnect(self, sharded):
        store = sharded.store
        fault = FaultInjectingTransport(LocalTransport(store.shards))
        store._set_transport(fault)
        try:
            fault.disconnect()
            with pytest.raises(TransportError):
                build_support_bundle(store.row_source(), np.arange(4), 2)
            with pytest.raises(TransportError):
                store.fetch_degrees(np.arange(4))
            fault.reconnect()
            oracle = build_support_bundle(store.row_source(), np.arange(4), 2)
            assert oracle.num_local > 0
        finally:
            store._set_transport(LocalTransport(store.shards))


class TestSocketFaults:
    def test_killed_connections_surface_error_then_lazy_reconnect_recovers(
        self, sharded
    ):
        store = sharded.store
        targets = np.arange(10)
        oracle = build_support_bundle(store.row_source(), targets, 3)
        with ShardServerGroup(store.shards) as group:
            transport = group.connect(timeout_seconds=10.0)
            store._set_transport(transport)
            try:
                first = build_support_bundle(store.row_source(), targets, 3)
                opened = transport.reconnects
                for server in group.servers:
                    server.drop_connections()
                with pytest.raises(TransportError):
                    build_support_bundle(store.row_source(), targets, 3)
                # Retry once: the transport redials the still-listening
                # servers and the rebuilt bundle is bit-identical.
                retried = build_support_bundle(store.row_source(), targets, 3)
                assert transport.reconnects > opened
            finally:
                store._set_transport(LocalTransport(store.shards))
                transport.close()
        for name, mine in _bundle_arrays(retried):
            reference = dict(_bundle_arrays(oracle))[name]
            np.testing.assert_array_equal(mine, reference, err_msg=name)
            np.testing.assert_array_equal(
                dict(_bundle_arrays(first))[name], reference, err_msg=name
            )

    def test_stopped_fleet_raises_instead_of_hanging(self, sharded):
        store = sharded.store
        group = ShardServerGroup(store.shards).start()
        transport = group.connect(timeout_seconds=5.0)
        store._set_transport(transport)
        try:
            build_support_bundle(store.row_source(), np.arange(6), 2)
            group.stop()
            with pytest.raises(TransportError):
                build_support_bundle(store.row_source(), np.arange(6), 2)
        finally:
            store._set_transport(LocalTransport(store.shards))
            transport.close()


class TestKillWindows:
    def test_kill_fires_only_on_target_shard_and_heals(self, sharded):
        store = sharded.store
        fault = FaultInjectingTransport(LocalTransport(store.shards))
        # Shard 1 is down for this wrapper's rounds [0, 3); shard-0-only
        # fetches sail through, and round 3 onward everything works again.
        fault.schedule_kill(1, 0, 3)
        store._set_transport(fault)
        try:
            only_shard0 = store.shards[0].owned[:4]
            store.fetch_degrees(only_shard0)  # round 0: no shard-1 request
            with pytest.raises(TransportError, match="shard 1 is down"):
                store.fetch_degrees(np.arange(8))  # round 1 touches shard 1
            with pytest.raises(TransportError, match="shard 1 is down"):
                store.fetch_degrees(np.arange(8))  # round 2 still inside
            healed = store.fetch_degrees(np.arange(8))  # round 3: healed
            assert healed.shape == (8,)
            assert fault.faults_injected == 2
        finally:
            store._set_transport(LocalTransport(store.shards))

    def test_kill_targets_one_replica_wrapper_only(self, sharded):
        store = sharded.store
        replica0 = FaultInjectingTransport(
            LocalTransport(store.shards), replica_index=0
        )
        replica1 = FaultInjectingTransport(
            LocalTransport(store.shards), replica_index=1
        )
        for wrapper in (replica0, replica1):
            wrapper.schedule_kill(0, 0, replica_index=0)
        with pytest.raises(TransportError, match="replica 0 of shard 0"):
            store._set_transport(replica0).fetch_degrees(np.arange(6))
        # The same window on the replica-1 wrapper never applies.
        degrees = store._set_transport(replica1).fetch_degrees(np.arange(6))
        assert degrees.shape == (6,)
        store._set_transport(LocalTransport(store.shards))

    def test_kill_window_validation(self, sharded):
        fault = FaultInjectingTransport(LocalTransport(sharded.store.shards))
        with pytest.raises(ValueError, match="start_round"):
            fault.schedule_kill(0, -1)
        with pytest.raises(ValueError, match="heal_round"):
            fault.schedule_kill(0, 5, 5)

    def test_clear_kills(self, sharded):
        store = sharded.store
        fault = FaultInjectingTransport(LocalTransport(store.shards))
        fault.schedule_kill(0, 0)
        fault.clear_kills()
        degrees = store._set_transport(fault).fetch_degrees(np.arange(5))
        assert degrees.shape == (5,)
        store._set_transport(LocalTransport(store.shards))


class TestServingUnderFaults:
    def test_failed_bundle_leaves_no_partial_cache_entry_and_retry_recovers(
        self, sharded, small_deployment
    ):
        """Transport disconnect mid-bundle fails only the affected request —
        no hang, no partial subgraph-cache entry — and the resubmitted
        request recovers with results identical to the unsharded oracle."""
        _, _, predictor = small_deployment
        store = sharded.store
        fault = FaultInjectingTransport(LocalTransport(store.shards))
        store._set_transport(fault)
        node_ids = np.arange(8)
        oracle = predictor.predict(node_ids)
        config = ServingConfig(
            num_workers=2, max_batch_size=64, max_wait_ms=0.0, cache_capacity=8
        )
        try:
            with InferenceServer(sharded.shard_view(0), config) as server:
                assert server.cache is not None
                fault.fail_next(1)
                failing = server.submit(node_ids)
                with pytest.raises(TransportError):
                    failing.result(timeout=30.0)
                # The dispatcher inserted nothing for the failed build.
                assert len(server.cache) == 0
                retried = server.submit(node_ids).result(timeout=30.0)
                stats = server.stats()
            np.testing.assert_array_equal(retried.predictions, oracle.predictions)
            np.testing.assert_array_equal(retried.depths, oracle.depths)
            assert stats.requests_failed == 1
            assert stats.requests_completed == 1
        finally:
            store._set_transport(LocalTransport(store.shards))
