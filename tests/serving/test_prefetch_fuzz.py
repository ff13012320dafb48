"""Prefetch correctness fuzz: bit-identity across transports and faults.

The pipeline moves *where* support bundles are built, never *what* is
built — so for every combination of shard count, transport backend,
injected latency and kill schedule, prefetch-enabled serving must be
bit-identical (predictions, exit depths, MAC totals) to both serialized
serving and the :class:`~repro.shard.ShardedPredictor` oracle, and an
aborted shutdown must cancel pending prefetches without stranding a
single request.  Both properties hold with wave fusion on as well: the
fetchers resolve whole dispatch units, fused or not.
"""

import time

import numpy as np
import pytest

from repro.core import NAIConfig, ServingConfig, ShardConfig
from repro.core.distance_nap import DistanceNAP
from repro.exceptions import ServingError, TransportError
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.models import SGC
from repro.serving import InferenceServer
from repro.shard import ShardedPredictor
from repro.transport import (
    FaultInjectingTransport,
    LocalTransport,
    ReplicatedTransport,
    RetryPolicy,
)

#: Zero-backoff retries: kill windows are healed by round, not by time, so
#: the sweep never sleeps through a real backoff.
FAST_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_base_seconds=0.0,
    backoff_cap_seconds=0.0,
    jitter_fraction=0.0,
)


def build_sharded(seed: int, num_shards: int) -> ShardedPredictor:
    spec = SyntheticGraphSpec(
        num_nodes=210, num_classes=4, avg_degree=6.0, degree_exponent=2.2
    )
    graph, _ = generate_community_graph(spec, rng=seed)
    rng = np.random.default_rng(seed + 50)
    features = rng.normal(size=(graph.num_nodes, 6)).astype(np.float32)
    classifiers = SGC(6, 4, depth=3, rng=seed).make_all_classifiers()
    predictor = ShardedPredictor(
        classifiers,
        policy=DistanceNAP(0.15),
        config=NAIConfig(t_min=1, t_max=3, batch_size=32),
    )
    return predictor.prepare(
        graph,
        features,
        ShardConfig(num_shards=num_shards, strategy="degree_balanced"),
    )


def make_transport(kind: str, store):
    if kind == "local":
        return LocalTransport(store.shards)
    if kind == "latency":
        return FaultInjectingTransport(
            LocalTransport(store.shards), latency_seconds=0.002
        )
    if kind == "replicated-kills":
        rails = [
            FaultInjectingTransport(
                LocalTransport(store.shards), replica_index=index
            )
            for index in range(2)
        ]
        # Deterministic kill schedule: rail 0 loses shard 0 for rounds
        # [1, 4), rail 1 loses the last shard for rounds [2, 5).  The grid's
        # invariant is that some replica of every shard is always up.  Each
        # rail counts its own rounds, so on a one-shard fleet concurrent
        # prefetch rounds could make both windows cover shard 0 at once:
        # there only rail 0's window is scheduled.  The all-replicas-down
        # case is tested on purpose in TestAllReplicasDown.
        rails[0].schedule_kill(0, 1, 4, replica_index=0)
        if store.num_shards > 1:
            rails[1].schedule_kill(store.num_shards - 1, 2, 5, replica_index=1)
        return ReplicatedTransport(rails, retry_policy=FAST_RETRY)
    raise AssertionError(kind)


def serving_config(prefetch_depth: int, **overrides) -> ServingConfig:
    base = dict(
        num_workers=2,
        max_batch_size=32,
        max_wait_ms=1.0,
        cache_capacity=32,
        prefetch_depth=prefetch_depth,
    )
    base.update(overrides)
    return ServingConfig(**base)


def serve_all(sharded, batches, *, prefetch_depth: int, wave_width: int = 1):
    with InferenceServer(
        sharded.shard_view(0), serving_config(prefetch_depth, wave_width=wave_width)
    ) as server:
        responses = server.predict_many(batches, timeout=60.0)
        stats = server.stats()
    return responses, stats


def flatten(responses):
    predictions = np.concatenate([r.predictions for r in responses])
    depths = np.concatenate([r.depths for r in responses])
    macs = sum(r.batch_macs.total for r in {r.batch_id: r for r in responses}.values())
    return predictions, depths, macs


class TestPrefetchFuzzEquivalence:
    @pytest.mark.parametrize("transport_kind", ["local", "latency", "replicated-kills"])
    @pytest.mark.parametrize("wave_width", [1, 4])
    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_across_transports_and_faults(
        self, seed, num_shards, wave_width, transport_kind
    ):
        sharded = build_sharded(seed, num_shards)
        store = sharded.store
        rng = np.random.default_rng(seed + 9)
        targets = rng.permutation(store.num_nodes)[:96]
        # Batches mirror the oracle's internal batch size (32): MAC totals
        # are batching-dependent, so identical batching is part of the
        # bit-identity contract.
        batches = [targets[start : start + 32] for start in range(0, 96, 32)]
        oracle = sharded.predict(targets)

        sharded.use_transport(make_transport(transport_kind, store))
        try:
            serialized, _ = serve_all(sharded, batches, prefetch_depth=0)
            # Fresh transport: kill schedules are consumed by round index,
            # and both runs must see the same fault script.
            sharded.use_transport(make_transport(transport_kind, store))
            prefetched, stats = serve_all(
                sharded, batches, prefetch_depth=2, wave_width=wave_width
            )
        finally:
            sharded.use_transport(LocalTransport(store.shards))

        base_pred, base_depth, base_macs = flatten(serialized)
        pre_pred, pre_depth, pre_macs = flatten(prefetched)
        np.testing.assert_array_equal(pre_pred, base_pred)
        np.testing.assert_array_equal(pre_depth, base_depth)
        np.testing.assert_array_equal(pre_pred, oracle.predictions)
        np.testing.assert_array_equal(pre_depth, oracle.depths)
        assert base_macs == pytest.approx(oracle.macs.total, abs=1e-6)
        # The response shares always re-sum to the served total; a fused
        # unit deduplicates shared support rows, so only unfused serving
        # costs exactly what the oracle's isolated batches cost.
        assert pre_macs == stats.macs.total
        if stats.waves_dispatched == 0:
            assert pre_macs == pytest.approx(oracle.macs.total, abs=1e-6)
        else:
            assert pre_macs <= oracle.macs.total
        assert stats.requests_completed == len(batches)
        assert stats.requests_failed == 0
        # Distinct node-sets on a cold cache: the pipeline actually ran.
        assert stats.prefetch_issued > 0
        assert stats.prefetch_issued == stats.prefetch_completed


class TestAllReplicasDown:
    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_every_request_fails_cleanly(self, prefetch_depth):
        """Both replicas of the only shard die for good: every request must
        resolve with the transport's ``TransportError``, none may hang."""
        sharded = build_sharded(0, 1)
        store = sharded.store
        rails = [
            FaultInjectingTransport(LocalTransport(store.shards), replica_index=index)
            for index in range(2)
        ]
        for index, rail in enumerate(rails):
            rail.schedule_kill(0, 0, None, replica_index=index)
        sharded.use_transport(ReplicatedTransport(rails, retry_policy=FAST_RETRY))
        rng = np.random.default_rng(5)
        try:
            with InferenceServer(
                sharded.shard_view(0), serving_config(prefetch_depth)
            ) as server:
                handles = [
                    server.submit(rng.permutation(store.num_nodes)[:8])
                    for _ in range(6)
                ]
                for handle in handles:
                    with pytest.raises(TransportError, match="replica"):
                        handle.result(timeout=30.0)
                stats = server.stats()
        finally:
            sharded.use_transport(LocalTransport(store.shards))
        assert stats.requests_failed == len(handles)
        assert stats.requests_completed == 0


class TestPrefetchShutdownFuzz:
    @pytest.mark.parametrize("wave_width", [1, 4])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_abort_cancels_pending_prefetches_without_stranding(self, seed, wave_width):
        sharded = build_sharded(seed, 2)
        store = sharded.store
        # Slow fetches (per-round injected latency) so micro-batches pile
        # up behind the pipeline's depth-bounded fetch slots at abort time.
        sharded.use_transport(
            FaultInjectingTransport(
                LocalTransport(store.shards), latency_seconds=0.05
            )
        )
        rng = np.random.default_rng(seed)
        server = InferenceServer(
            sharded.shard_view(0),
            serving_config(
                2, max_wait_ms=0.0, queue_capacity=64, wave_width=wave_width
            ),
        )
        try:
            handles = [
                server.submit(rng.permutation(store.num_nodes)[:16])
                for _ in range(12)
            ]
            # Give the dispatcher a beat to hand fetches to the pipeline
            # (each fetch needs >= 0.15s of injected latency), then abort
            # mid-flight.
            deadline = time.monotonic() + 2.0
            while (
                server.stats().prefetch_issued == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            server.close(abort=True)
            served = failed = 0
            for handle in handles:
                try:
                    handle.result(timeout=30.0)
                    served += 1
                except ServingError:
                    failed += 1
            assert served + failed == len(handles)  # nothing stranded
            stats = server.stats()
            # Every handed-off fetch resolved exactly one way.
            assert stats.prefetch_issued == (
                stats.prefetch_completed + stats.prefetch_cancelled
            )
            assert stats.requests_completed == served
            assert stats.prefetch_issued > 0  # the pipeline was mid-flight
        finally:
            sharded.use_transport(LocalTransport(store.shards))
