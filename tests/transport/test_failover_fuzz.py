"""Failover fuzz: bit-identical serving through replica deaths, clean errors.

The replication layer's guarantee is the transport guarantee one level up:
whatever replicas die (and whenever), a served request either completes with
predictions, exit depths and MAC totals **bit-identical** to the unsharded
:class:`~repro.core.inference.NAIPredictor`, or — when every replica of a
shard is gone — fails with one clean, descriptive
:class:`~repro.exceptions.TransportError`, never a hang (the directory-wide
watchdog enforces that) and never a corrupted store.  The sweep covers shard
counts × replica counts {1, 2, 3} × kill schedules, on in-process rails with
virtual-time retries and on real TCP rails with a server killed mid-stream.
"""

import numpy as np
import pytest

from repro.core import ShardConfig
from repro.exceptions import TransportError
from repro.serving import ClusterBuilder
from repro.serving.clock import FakeClock
from repro.shard import ShardedPredictor
from repro.transport import (
    NO_RETRY,
    FaultInjectingTransport,
    LocalTransport,
    ReplicatedTransport,
    RetryPolicy,
    ShardServerGroup,
)

MAC_FIELDS = ("stationary", "propagation", "decision", "classification")

#: Retries with zero backoff: exercises the retry ladder without waiting.
FAST_RETRY = RetryPolicy(
    max_attempts=2,
    backoff_base_seconds=0.0,
    backoff_cap_seconds=0.0,
    jitter_fraction=0.0,
)


def _assert_bit_identical(label, mine, oracle):
    np.testing.assert_array_equal(
        mine.predictions, oracle.predictions, err_msg=f"{label}: predictions"
    )
    np.testing.assert_array_equal(
        mine.depths, oracle.depths, err_msg=f"{label}: depths"
    )
    for name in MAC_FIELDS:
        assert getattr(mine.macs, name) == getattr(oracle.macs, name), (
            f"{label}: MAC field {name} diverged"
        )
    assert mine.macs.total == oracle.macs.total, f"{label}: MAC totals diverged"


def _prepare(deployment, num_shards, replicas):
    graph, features, predictor = deployment
    sharded = ShardedPredictor.from_predictor(predictor).prepare(
        graph,
        features,
        ShardConfig(
            num_shards=num_shards,
            strategy="degree_balanced",
            replication_factor=replicas,
        ),
    )
    assert sharded.store.plan.max_replication == replicas
    return graph, predictor, sharded


def _fault_rails(shards, count):
    return [
        FaultInjectingTransport(LocalTransport(shards), replica_index=index)
        for index in range(count)
    ]


@pytest.mark.parametrize("replicas", [2, 3])
@pytest.mark.parametrize("num_shards", [2, 3])
def test_replica_deaths_mid_bundle_stay_bit_identical(
    fuzz_deployment, num_shards, replicas
):
    """Kill one replica of every shard mid-stream (staggered, some healing):
    serving completes every request bit-identical to the unsharded oracle,
    with zero client-visible failures and failovers actually counted."""
    graph, predictor, sharded = _prepare(fuzz_deployment, num_shards, replicas)
    rails = _fault_rails(sharded.store.shards, replicas)
    for shard_id in range(num_shards):
        rail = shard_id % replicas
        # Rail `rail` loses this shard after a couple of its rounds — i.e.
        # in the middle of some bundle's assembly — and half the windows
        # later heal, exercising the probation path too.
        heal = 8 if shard_id % 2 == 0 else None
        rails[rail].schedule_kill(shard_id, 2, heal, replica_index=rail)
    ClusterBuilder(sharded).replicated(
        rails, retry_policy=FAST_RETRY, clock=FakeClock(), probe_after_rounds=3
    ).build_predictor()

    rng = np.random.default_rng(10 * num_shards + replicas)
    node_ids = rng.permutation(graph.num_nodes)
    oracle = predictor.predict(node_ids)
    mine = sharded.predict(node_ids)
    _assert_bit_identical(f"x{num_shards}r{replicas}", mine, oracle)
    stats = sharded.store.transport.stats.as_dict()
    assert stats["failovers"] > 0
    assert stats["health_transitions"] > 0


def test_replication_factor_one_fails_clean_and_recovers(fuzz_deployment):
    """With no redundancy the same kill schedule must surface one clean,
    descriptive TransportError — no hang, store still consistent: healing
    the shard makes the retried prediction bit-identical to the oracle."""
    graph, predictor, sharded = _prepare(fuzz_deployment, 2, 1)
    rails = _fault_rails(sharded.store.shards, 1)
    rails[0].schedule_kill(0, 2, replica_index=0)
    ClusterBuilder(sharded).replicated(
        rails, retry_policy=NO_RETRY, clock=FakeClock()
    ).build_predictor()

    node_ids = np.arange(graph.num_nodes)
    with pytest.raises(TransportError, match=r"all 1 replica\(s\) of shard 0"):
        sharded.predict(node_ids)
    rails[0].clear_kills()
    oracle = predictor.predict(node_ids)
    _assert_bit_identical("post-heal", sharded.predict(node_ids), oracle)


def test_server_death_during_pipelined_round_fails_over_to_sibling_rail(
    small_deployment,
):
    """Two real TCP fleets as rails; one rail's servers are killed between
    predictions.  The next hop-pipelined round hits dead connections, the
    lazy reconnect sees connection-refused (retryable), the retry budget
    drains, and every request fails over to the surviving rail —
    bit-identical results throughout."""
    graph, features, predictor = small_deployment
    sharded = ShardedPredictor.from_predictor(predictor).prepare(
        graph,
        features,
        ShardConfig(num_shards=2, strategy="hash", replication_factor=2),
    )
    shards = sharded.store.shards
    node_ids = np.arange(0, graph.num_nodes, 3)
    oracle = predictor.predict(node_ids)
    with ShardServerGroup(shards) as rail0_servers:
        with ShardServerGroup(shards) as rail1_servers:
            rails = [
                rail0_servers.connect(timeout_seconds=10.0),
                rail1_servers.connect(timeout_seconds=10.0),
            ]
            ClusterBuilder(sharded).replicated(
                rails, retry_policy=FAST_RETRY
            ).build_predictor()
            try:
                _assert_bit_identical(
                    "both-rails-up", sharded.predict(node_ids), oracle
                )
                rail0_servers.stop()  # rail 0 dies, connections included
                _assert_bit_identical(
                    "rail0-dead", sharded.predict(node_ids), oracle
                )
                stats = sharded.store.transport.stats.as_dict()
                assert stats["failovers"] > 0
                assert stats["health_transitions"] > 0
            finally:
                sharded.use_transport(LocalTransport(shards))
                for rail in rails:
                    rail.close()


def test_all_socket_replicas_dead_raises_instead_of_hanging(small_deployment):
    graph, features, predictor = small_deployment
    sharded = ShardedPredictor.from_predictor(predictor).prepare(
        graph,
        features,
        ShardConfig(num_shards=2, strategy="hash", replication_factor=2),
    )
    shards = sharded.store.shards
    rail0_servers = ShardServerGroup(shards).start()
    rail1_servers = ShardServerGroup(shards).start()
    rails = [
        rail0_servers.connect(timeout_seconds=5.0),
        rail1_servers.connect(timeout_seconds=5.0),
    ]
    ClusterBuilder(sharded).replicated(rails, retry_policy=NO_RETRY).build_predictor()
    try:
        sharded.predict(np.arange(12))
        rail0_servers.stop()
        rail1_servers.stop()
        with pytest.raises(TransportError, match="all 2 replica"):
            sharded.predict(np.arange(12))
    finally:
        sharded.use_transport(LocalTransport(shards))
        for rail in rails:
            rail.close()
        rail0_servers.stop()
        rail1_servers.stop()
