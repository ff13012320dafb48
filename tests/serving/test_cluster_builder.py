"""ClusterBuilder: the one fluent entry point for fleet configuration.

Covers build-path validation (prepared vs unprepared predictors, the
transport/replicated exclusivity, single-shot reuse), the wiring each
declaration performs (transport, replica rails, tiered features, wave
width), served equivalence against the :class:`ShardedPredictor` oracle,
and that the store mutators the builder superseded stay deleted.
"""

import numpy as np
import pytest

from repro.core import NAIConfig, ServingConfig, ShardConfig
from repro.core.distance_nap import DistanceNAP
from repro.exceptions import ConfigurationError
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.models import SGC
from repro.serving import ClusterBuilder
from repro.shard import ShardRouter
from repro.transport import FaultInjectingTransport, LocalTransport


def fresh_parts(seed: int = 4):
    spec = SyntheticGraphSpec(num_nodes=150, num_classes=4, avg_degree=6.0)
    graph, _ = generate_community_graph(spec, rng=seed)
    rng = np.random.default_rng(seed + 40)
    features = rng.normal(size=(graph.num_nodes, 6)).astype(np.float32)
    classifiers = SGC(6, 4, depth=3, rng=seed).make_all_classifiers()
    return graph, features, classifiers


def fresh_predictor(seed: int = 4):
    from repro.shard import ShardedPredictor

    graph, features, classifiers = fresh_parts(seed)
    predictor = ShardedPredictor(
        classifiers,
        policy=DistanceNAP(0.15),
        config=NAIConfig(t_min=1, t_max=3, batch_size=32),
    )
    return predictor, graph, features


def serving_config(**overrides) -> ServingConfig:
    base = dict(
        num_workers=2, max_batch_size=32, max_wait_ms=1.0, cache_capacity=16
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestBuildPaths:
    def test_unprepared_predictor_builds_and_serves(self):
        predictor, graph, features = fresh_predictor()
        cluster = (
            ClusterBuilder(predictor, serving_config())
            .graph(graph, features)
            .shards(2)
            .build()
        )
        assert isinstance(cluster, ShardRouter)
        ids = np.arange(0, 48, dtype=np.int64)
        with cluster:
            routed = cluster.submit(ids).result(timeout=30.0)
        oracle = predictor.predict(ids)
        np.testing.assert_array_equal(routed.predictions, oracle.predictions)
        np.testing.assert_array_equal(routed.depths, oracle.depths)

    def test_prepared_predictor_needs_no_graph(self):
        predictor, graph, features = fresh_predictor()
        predictor.prepare(graph, features, ShardConfig(num_shards=2))
        with ClusterBuilder(predictor, serving_config()).build() as cluster:
            assert cluster.predictor is predictor
            assert len(cluster.servers) == 2

    def test_unprepared_without_graph_or_shards_raises(self):
        predictor, graph, features = fresh_predictor()
        with pytest.raises(ConfigurationError):
            ClusterBuilder(predictor).build()
        with pytest.raises(ConfigurationError):
            ClusterBuilder(predictor).graph(graph, features).build()

    def test_prepared_with_graph_raises(self):
        predictor, graph, features = fresh_predictor()
        predictor.prepare(graph, features, ShardConfig(num_shards=2))
        with pytest.raises(ConfigurationError):
            ClusterBuilder(predictor).graph(graph, features).shards(2).build()

    def test_transport_and_replicated_are_mutually_exclusive(self):
        predictor, graph, features = fresh_predictor()
        builder = (
            ClusterBuilder(predictor)
            .graph(graph, features)
            .shards(2)
            .transport(lambda store: LocalTransport(store.shards))
            .replicated(rails=2)
        )
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_build_predictor_skips_routing_and_consumes_the_builder(self):
        predictor, graph, features = fresh_predictor()
        builder = (
            ClusterBuilder(predictor)
            .graph(graph, features)
            .shards(2)
            .replicated(rails=lambda store: [LocalTransport(store.shards)])
        )
        built = builder.build_predictor()
        assert built is predictor
        assert predictor.prepared
        assert len(predictor.store.transport.rails) == 1
        ids = np.arange(0, 32, dtype=np.int64)
        assert predictor.predict(ids).predictions.shape == ids.shape
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_builder_is_single_shot(self):
        predictor, graph, features = fresh_predictor()
        builder = (
            ClusterBuilder(predictor, serving_config())
            .graph(graph, features)
            .shards(2)
        )
        with builder.build():
            pass
        with pytest.raises(ConfigurationError):
            builder.build()


class TestDeclarationWiring:
    def test_transport_callable_receives_the_store(self):
        predictor, graph, features = fresh_predictor()
        cluster = (
            ClusterBuilder(predictor, serving_config())
            .graph(graph, features)
            .shards(2)
            .transport(
                lambda store: FaultInjectingTransport(
                    LocalTransport(store.shards), latency_seconds=0.0
                )
            )
            .build()
        )
        with cluster:
            assert isinstance(cluster.store.transport, FaultInjectingTransport)

    def test_replicated_int_builds_that_many_rails(self):
        predictor, graph, features = fresh_predictor()
        cluster = (
            ClusterBuilder(predictor, serving_config())
            .graph(graph, features)
            .shards(2)
            .replicated(rails=2)
            .build()
        )
        ids = np.arange(0, 48, dtype=np.int64)
        with cluster:
            assert len(cluster.store.transport.rails) == 2
            routed = cluster.submit(ids).result(timeout=30.0)
        oracle = predictor.predict(ids)
        np.testing.assert_array_equal(routed.predictions, oracle.predictions)

    def test_tiered_features_cap_residency(self):
        predictor, graph, features = fresh_predictor()
        budget = features.nbytes // 4
        cluster = (
            ClusterBuilder(predictor, serving_config())
            .graph(graph, features)
            .shards(2)
            .tiered_features(budget)
            .build()
        )
        ids = np.arange(0, 48, dtype=np.int64)
        with cluster:
            routed = cluster.submit(ids).result(timeout=30.0)
            report = cluster.store.memory_report()
        assert report["feature_peak_resident_nbytes"] <= budget
        oracle = predictor.predict(ids)
        np.testing.assert_array_equal(routed.predictions, oracle.predictions)

    def test_wave_sets_the_serving_width(self):
        predictor, graph, features = fresh_predictor()
        cluster = (
            ClusterBuilder(predictor, serving_config())
            .graph(graph, features)
            .shards(2)
            .wave(4)
            .build()
        )
        with cluster:
            assert all(
                server.config.wave_width == 4
                for server in cluster.servers.values()
            )


class TestSupersededMutators:
    @pytest.mark.parametrize(
        "name",
        ["use_transport", "use_tracer", "use_replicated_transport", "use_tiered_features"],
    )
    def test_store_mutators_are_gone(self, name):
        predictor, graph, features = fresh_predictor()
        predictor.prepare(graph, features, ShardConfig(num_shards=2))
        assert not hasattr(predictor.store, name)
