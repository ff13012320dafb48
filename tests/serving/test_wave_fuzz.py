"""Wave correctness fuzz: bit-identity and exact MAC attribution.

A wave fuses ready micro-batches into one union sweep; the contract
(``docs/wave.md``) is that fusing changes *cost*, never *answers*.  This
suite sweeps seeds x shard counts x wave widths x transport backends and
enforces, for every combination:

* each member's slice of the union result is bit-identical (predictions
  and exit depths) to running that member alone;
* the per-member MAC attribution reconciles **exactly** with the
  engine-reported union breakdown, term by term;
* a live ``wave_width > 1`` server under concurrent load stays
  bit-identical to the :class:`~repro.shard.ShardedPredictor` oracle and
  its attributed response MACs sum to the served totals;
* ``wave_width=1`` is the pre-wave dispatch path: same responses, no
  waves counted;
* the product ``wave_width`` x ``prefetch_depth`` x transport stays
  bit-identical to the unsharded :class:`~repro.core.NAIPredictor`, conserves
  MACs exactly and answers every accepted request exactly once.
"""

import numpy as np
import pytest

from repro.core import NAIConfig, NAIPredictor, ServingConfig, ShardConfig
from repro.core.distance_nap import DistanceNAP
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.models import SGC
from repro.obs import Tracer
from repro.obs.analysis import CriticalPathAnalyzer
from repro.serving import InferenceServer, execute_wave
from repro.shard import ShardedPredictor
from repro.transport import (
    FaultInjectingTransport,
    LocalTransport,
    ReplicatedTransport,
    RetryPolicy,
)

#: Zero-backoff retries: kill windows are healed by round, not by time.
FAST_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_base_seconds=0.0,
    backoff_cap_seconds=0.0,
    jitter_fraction=0.0,
)

REQUEST_SIZE = 8
NUM_REQUESTS = 16


def build_parts(seed: int):
    spec = SyntheticGraphSpec(
        num_nodes=210, num_classes=4, avg_degree=6.0, degree_exponent=2.2
    )
    graph, _ = generate_community_graph(spec, rng=seed)
    rng = np.random.default_rng(seed + 50)
    features = rng.normal(size=(graph.num_nodes, 6)).astype(np.float32)
    classifiers = SGC(6, 4, depth=3, rng=seed).make_all_classifiers()
    policy_config = dict(
        policy=DistanceNAP(0.15),
        config=NAIConfig(t_min=1, t_max=3, batch_size=32),
    )
    return graph, features, classifiers, policy_config


def build_unsharded(seed: int) -> NAIPredictor:
    """The sequential oracle every served configuration must reproduce."""
    graph, features, classifiers, policy_config = build_parts(seed)
    return NAIPredictor(classifiers, **policy_config).prepare(graph, features)


def build_sharded(seed: int, num_shards: int) -> ShardedPredictor:
    graph, features, classifiers, policy_config = build_parts(seed)
    return ShardedPredictor(classifiers, **policy_config).prepare(
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
        rails[0].schedule_kill(0, 1, 4, replica_index=0)
        rails[1].schedule_kill(store.num_shards - 1, 2, 5, replica_index=1)
        return ReplicatedTransport(rails, retry_policy=FAST_RETRY)
    raise AssertionError(kind)


def zipfian_requests(num_nodes: int, seed: int) -> list[np.ndarray]:
    """Distinct-node requests drawn from a Zipf-skewed node popularity.

    Hub-heavy workloads are the wave scheduler's reason to exist: skewed
    popularity makes concurrent requests share support rows.
    """
    rng = np.random.default_rng(seed + 101)
    ranks = rng.permutation(num_nodes)
    weights = 1.0 / (1.0 + ranks.astype(np.float64)) ** 1.2
    weights /= weights.sum()
    return [
        rng.choice(num_nodes, size=REQUEST_SIZE, replace=False, p=weights)
        for _ in range(NUM_REQUESTS)
    ]


class TestExecuteWaveFuzz:
    @pytest.mark.parametrize("transport_kind", ["local", "latency", "replicated-kills"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_members_bit_identical_and_macs_reconcile(
        self, seed, num_shards, transport_kind
    ):
        sharded = build_sharded(seed, num_shards)
        store = sharded.store
        requests = zipfian_requests(store.num_nodes, seed)
        engine = sharded.make_engine(home_shard=0)

        # Isolated oracle per request, on the pristine local transport.
        isolated = [engine.run_batch(batch) for batch in requests]

        for width in (1, 2, 4, 8):
            sharded.use_transport(make_transport(transport_kind, store))
            try:
                waves = [
                    execute_wave(engine, requests[start : start + width])
                    for start in range(0, len(requests), width)
                ]
            finally:
                sharded.use_transport(LocalTransport(store.shards))

            position = 0
            for wave in waves:
                # Attribution reconciles exactly with the engine breakdown
                # (attribute_wave_macs raised otherwise); the member shares
                # must also re-sum to the union total term by term.
                assert wave.attribution.total.total == wave.result.macs.total
                for index in range(wave.num_members):
                    oracle = isolated[position]
                    np.testing.assert_array_equal(
                        wave.member_predictions(index), oracle.predictions
                    )
                    np.testing.assert_array_equal(
                        wave.member_depths(index), oracle.depths
                    )
                    position += 1
                fraction = wave.attribution.shared_row_fraction
                assert 0.0 <= fraction <= 1.0
                if wave.num_members == 1:
                    assert wave.attribution.shared_row_macs == 0
            assert position == len(requests)

            # Fusing dedups shared support rows: the union cost never
            # exceeds the sum of isolated costs, and a real multi-member
            # wave on this hub-skewed workload strictly saves.
            union_macs = sum(w.result.macs.total for w in waves)
            isolated_macs = sum(r.macs.total for r in isolated)
            assert union_macs <= isolated_macs + 1e-6
            if width > 1:
                assert union_macs < isolated_macs


def serve_all(
    sharded, requests, *, wave_width: int, config: ServingConfig = None,
    prefetch_depth: int = 0, tracer=None,
):
    if config is None:
        config = ServingConfig(
            num_workers=2,
            max_batch_size=REQUEST_SIZE,
            max_wait_ms=1.0,
            cache_capacity=32,
            wave_width=wave_width,
            prefetch_depth=prefetch_depth,
        )
    with InferenceServer(sharded.shard_view(0), config, tracer=tracer) as server:
        handles = [server.submit(batch) for batch in requests]
        responses = [handle.result(timeout=60.0) for handle in handles]
        server.drain(timeout=0.0)  # every accepted request already answered
        stats = server.stats()
    return responses, stats


class TestWaveServerEquivalence:
    @pytest.mark.parametrize("wave_width", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_live_waves_bit_identical_to_oracle(self, seed, wave_width):
        sharded = build_sharded(seed, 2)
        store = sharded.store
        requests = zipfian_requests(store.num_nodes, seed)
        oracles = [sharded.predict(batch) for batch in requests]

        # Injected fetch latency backs the queue up behind the first
        # bundle build, so later submissions pile into real waves.
        sharded.use_transport(
            FaultInjectingTransport(
                LocalTransport(store.shards), latency_seconds=0.002
            )
        )
        try:
            responses, stats = serve_all(
                sharded, requests, wave_width=wave_width
            )
        finally:
            sharded.use_transport(LocalTransport(store.shards))

        for response, oracle in zip(responses, oracles):
            np.testing.assert_array_equal(response.predictions, oracle.predictions)
            np.testing.assert_array_equal(response.depths, oracle.depths)
            assert 1 <= response.wave_width <= wave_width
        assert stats.requests_completed == len(requests)
        assert stats.waves_dispatched > 0
        assert stats.wave_members > stats.waves_dispatched
        assert 0.0 < stats.shared_row_fraction <= 1.0
        assert stats.macs_per_request > 0.0

        # Conservation: every response carries its own micro-batch id, so
        # the attributed shares must re-sum to the served MAC totals.
        attributed = sum(
            r.batch_macs.total
            for r in {r.batch_id: r for r in responses}.values()
        )
        assert attributed == pytest.approx(stats.macs.total, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_width_one_is_the_pre_wave_path(self, seed):
        sharded = build_sharded(seed, 2)
        requests = zipfian_requests(sharded.store.num_nodes, seed)

        default_config = ServingConfig(
            num_workers=2,
            max_batch_size=REQUEST_SIZE,
            max_wait_ms=1.0,
            cache_capacity=32,
        )
        baseline, base_stats = serve_all(
            sharded, requests, wave_width=1, config=default_config
        )
        width_one, one_stats = serve_all(sharded, requests, wave_width=1)

        for base, response in zip(baseline, width_one):
            np.testing.assert_array_equal(response.predictions, base.predictions)
            np.testing.assert_array_equal(response.depths, base.depths)
            assert response.batch_macs.total == base.batch_macs.total
            assert response.wave_width == 1
        for stats in (base_stats, one_stats):
            assert stats.waves_dispatched == 0
            assert stats.wave_members == 0
            assert stats.shared_row_fraction == 0.0
        assert one_stats.macs.total == base_stats.macs.total

    @pytest.mark.parametrize("transport_kind", ["local", "latency", "replicated-kills"])
    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    @pytest.mark.parametrize("wave_width", [1, 4])
    def test_wave_prefetch_product_matches_the_sequential_oracle(
        self, wave_width, prefetch_depth, transport_kind
    ):
        """Form x resolve compose: every pairing is one pipeline, not a mode."""
        seed = 7
        oracle = build_unsharded(seed)
        sharded = build_sharded(seed, 2)
        store = sharded.store
        requests = zipfian_requests(store.num_nodes, seed)

        sharded.use_transport(make_transport(transport_kind, store))
        try:
            responses, stats = serve_all(
                sharded, requests, wave_width=wave_width,
                prefetch_depth=prefetch_depth,
            )
        finally:
            sharded.use_transport(LocalTransport(store.shards))

        for response, batch in zip(responses, requests):
            expected = oracle.predict(batch)
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            np.testing.assert_array_equal(response.depths, expected.depths)
            assert 1 <= response.wave_width <= wave_width
        # Every accepted request resolved exactly once: one response each,
        # nothing failed, nothing counted twice.
        assert stats.requests_completed == len(requests)
        assert stats.requests_failed == 0
        # Exact MAC conservation: the per-micro-batch shares on the
        # responses re-sum to the served total, fused or not.
        by_batch = {r.batch_id: r.batch_macs.total for r in responses}
        assert sum(by_batch.values()) == stats.macs.total
        isolated = sum(oracle.predict(batch).macs.total for batch in requests)
        if stats.waves_dispatched == 0:
            assert stats.macs.total == isolated
        else:
            assert stats.macs.total <= isolated
            assert stats.wave_members > stats.waves_dispatched
        if wave_width == 1:
            assert stats.waves_dispatched == 0
        assert stats.prefetch_completed == stats.prefetch_issued
        assert (stats.prefetch_issued > 0) == (prefetch_depth > 0)

    def test_fused_units_emit_one_attributed_scatter_span(self):
        """Regression: wave-mode scatter time was reported as *unattributed*
        (a ``wave.scatter`` span the analyzer did not know)."""
        sharded = build_sharded(0, 2)
        store = sharded.store
        requests = zipfian_requests(store.num_nodes, 0)
        tracer = Tracer()
        sharded.use_transport(
            FaultInjectingTransport(
                LocalTransport(store.shards), latency_seconds=0.002
            )
        )
        try:
            _, stats = serve_all(sharded, requests, wave_width=4, tracer=tracer)
        finally:
            sharded.use_transport(LocalTransport(store.shards))
        assert stats.waves_dispatched > 0

        spans = tracer.spans()
        scatters = [span for span in spans if span.name == "scatter"]
        executes = [span for span in spans if span.name == "batch.execute"]
        assert not [span for span in spans if span.name.startswith("wave.")]
        # One scatter per dispatch unit, carrying the unit's width.
        assert len(scatters) == len(executes)
        assert sorted(s.attributes["wave_width"] for s in scatters) == sorted(
            e.attributes["wave_width"] for e in executes
        )
        assert max(s.attributes["wave_width"] for s in scatters) > 1
        totals = CriticalPathAnalyzer(spans).breakdown_totals()
        assert totals["scatter"] == pytest.approx(sum(s.duration for s in scatters))
