"""Seeded-random transport-equivalence fuzz: the subsystem's core guarantee.

For random synthetic graphs, random (untrained) classifiers and a live NAP
policy, every combination of shard count {1, 2, 4} × partition strategy ×
permuted batch order × transport backend (local / socket / fault-wrapped)
must produce **bit-identical** predictions, exit depths and MAC breakdowns
versus the unsharded :class:`~repro.core.inference.NAIPredictor` run on the
same batch order.  The fault-wrapped backend runs with request reordering
on, proving no caller depends on issue order.
"""

import numpy as np
import pytest

from repro.core import ShardConfig
from repro.shard import ShardedPredictor
from repro.transport import (
    FaultInjectingTransport,
    LocalTransport,
    ShardServerGroup,
)

SHARD_COUNTS = (1, 2, 4)
STRATEGIES = ("hash", "degree_balanced")
MAC_FIELDS = ("stationary", "propagation", "decision", "classification")


@pytest.fixture(scope="module")
def deployment(fuzz_deployment):
    return fuzz_deployment


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


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_all_transports_bit_identical_across_permuted_batches(
    deployment, num_shards, strategy
):
    graph, features, predictor = deployment
    sharded = ShardedPredictor.from_predictor(predictor).prepare(
        graph, features, ShardConfig(num_shards=num_shards, strategy=strategy)
    )
    rng = np.random.default_rng(1000 * num_shards + len(strategy))
    # Two independently permuted orders of an identical node multiset: batch
    # composition changes with order, so the oracle runs on the same order.
    node_pool = rng.choice(graph.num_nodes, size=120, replace=False)
    batch_orders = [rng.permutation(node_pool) for _ in range(2)]

    with ShardServerGroup(sharded.store.shards) as group:
        transports = {
            "local": LocalTransport(sharded.store.shards),
            "socket": group.connect(),
            "fault_wrapped": FaultInjectingTransport(
                group.connect(), reorder=True
            ),
        }
        try:
            for order_index, node_ids in enumerate(batch_orders):
                oracle = predictor.predict(node_ids)
                for name, transport in transports.items():
                    sharded.use_transport(transport)
                    mine = sharded.predict(node_ids)
                    _assert_bit_identical(
                        f"x{num_shards}/{strategy}/order{order_index}/{name}",
                        mine,
                        oracle,
                    )
        finally:
            for transport in transports.values():
                transport.close()


def test_mixed_exit_depths_are_exercised(deployment):
    """The fuzz sweep means little if every node exits at the same depth."""
    graph, _, predictor = deployment
    depths = predictor.predict(np.arange(graph.num_nodes)).depths
    assert np.unique(depths).shape[0] > 1


def test_socket_transport_moves_real_bytes(deployment):
    graph, features, predictor = deployment
    sharded = ShardedPredictor.from_predictor(predictor).prepare(
        graph, features, ShardConfig(num_shards=2, strategy="hash")
    )
    with ShardServerGroup(sharded.store.shards) as group:
        with group.connect() as transport:
            sharded.use_transport(transport)
            sharded.predict(np.arange(0, graph.num_nodes, 5))
            assert transport.wire_bytes_sent > 0
            assert transport.wire_bytes_received > 0
            stats = transport.stats.as_dict()
            assert stats["rounds"] > 0
            assert stats["total_bytes"] > 0
