"""One submit surface: ``SubmitOptions`` across server and router.

Both :meth:`repro.serving.InferenceServer.submit` and
:meth:`repro.shard.ShardRouter.submit` accept the same
:class:`~repro.serving.SubmitOptions` — a caller can swap a single server
for a routed fleet without touching call sites.  It is the only way to
pass a per-request timeout, trace parent or tenant.
"""

import numpy as np
import pytest

from repro.core import NAIConfig, ServingConfig, ShardConfig
from repro.core.distance_nap import DistanceNAP
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.models import SGC
from repro.serving import InferenceServer, SubmitOptions
from repro.shard import ShardRouter, ShardedPredictor


@pytest.fixture(scope="module")
def deployed(trained_nai, tiny_dataset):
    predictor = trained_nai.build_predictor(
        policy="distance",
        config=trained_nai.inference_config(
            distance_threshold=trained_nai.suggest_distance_threshold(0.5),
            batch_size=32,
        ),
    )
    predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
    return predictor


@pytest.fixture(scope="module")
def sharded():
    spec = SyntheticGraphSpec(num_nodes=120, num_classes=4, avg_degree=6.0)
    graph, _ = generate_community_graph(spec, rng=3)
    rng = np.random.default_rng(33)
    features = rng.normal(size=(graph.num_nodes, 6)).astype(np.float32)
    classifiers = SGC(6, 4, depth=3, rng=3).make_all_classifiers()
    predictor = ShardedPredictor(
        classifiers,
        policy=DistanceNAP(0.15),
        config=NAIConfig(t_min=1, t_max=3, batch_size=32),
    )
    return predictor.prepare(
        graph,
        features,
        ShardConfig(num_shards=2, strategy="degree_balanced"),
    )


def serving_config(**overrides) -> ServingConfig:
    base = dict(
        num_workers=2, max_batch_size=32, max_wait_ms=1.0, cache_capacity=16
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestServerSubmitOptions:
    def test_tenant_is_echoed_on_the_response(self, deployed):
        ids = np.arange(8)
        with InferenceServer(deployed, serving_config()) as server:
            response = server.submit(
                ids, SubmitOptions(timeout=10.0, tenant="acme")
            ).result(timeout=30.0)
            plain = server.submit(ids).result(timeout=30.0)
        np.testing.assert_array_equal(response.predictions, plain.predictions)
        np.testing.assert_array_equal(response.depths, plain.depths)
        assert response.tenant == "acme"

    def test_tenant_defaults_to_none(self, deployed):
        with InferenceServer(deployed, serving_config()) as server:
            response = server.submit(np.arange(4)).result(timeout=30.0)
        assert response.tenant is None

    def test_options_are_frozen(self):
        options = SubmitOptions(tenant="acme")
        with pytest.raises(AttributeError):
            options.tenant = "other"


class TestRouterSubmitOptions:
    def test_tenant_propagates_to_every_shard_response(self, sharded):
        router = ShardRouter(sharded, serving_config())
        try:
            ids = np.arange(0, 40, dtype=np.int64)
            routed = router.submit(
                ids, SubmitOptions(timeout=10.0, tenant="acme")
            ).result(timeout=30.0)
            oracle = sharded.predict(ids)
        finally:
            router.close()
        np.testing.assert_array_equal(routed.predictions, oracle.predictions)
        assert routed.num_shards_touched == 2
        assert all(
            response.tenant == "acme"
            for response in routed.per_shard.values()
        )
