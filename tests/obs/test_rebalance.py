"""Rebalance advisor proposals, the auto-rebalancer actuator, and the
deterministic observe → alert → rebalance → recover loop end to end."""

import time

import numpy as np
import pytest

from repro.core import MonitorConfig, ServingConfig, ShardConfig
from repro.exceptions import ConfigurationError, ServingError
from repro.obs import (
    FIRING,
    PENDING,
    RESOLVED,
    SLO,
    Alert,
    AutoRebalancer,
    HealthMonitor,
    MemoryAlertSink,
    MetricsRegistry,
    RebalanceAdvisor,
    SLOEngine,
)
from repro.serving import ClusterBuilder, SubmitOptions
from repro.serving.clock import FakeClock
from repro.shard import GraphPartitioner, ShardRouter, ShardedPredictor
from repro.transport import OP_FEATURES, LocalTransport, ShardTransport


@pytest.fixture(scope="module")
def plan(tiny_dataset):
    config = ShardConfig(num_shards=4, strategy="degree_balanced")
    return GraphPartitioner(config).partition(tiny_dataset.graph)


class TestRebalanceAdvisor:
    def test_boosts_the_observed_hottest_shard_with_a_newer_version(self, plan):
        advisor = RebalanceAdvisor(base_replication=1, boost=1, hot_fraction=0.25)
        proposal = advisor.propose(plan, {0: 1.0, 1: 9.0, 2: 2.0, 3: 0.5})
        assert proposal is not None
        assert proposal.plan.version == plan.version + 1
        assert proposal.hot_shards == (1,)
        assert proposal.plan.replicas_of(1) == (0, 1)
        assert proposal.plan.replicas_of(0) == (0,)
        assert proposal.boosted == {1: (1, 2)}
        assert proposal.shed == {}
        # Ownership never moves: replica-only proposals are result-safe.
        np.testing.assert_array_equal(proposal.plan.owner, plan.owner)
        diff = proposal.diff()
        assert diff["hot_shards"] == [1]
        assert diff["boosted"]["1"] == {"from": 1, "to": 2}

    def test_unchanged_placement_returns_none(self, plan):
        advisor = RebalanceAdvisor(base_replication=1, boost=1, hot_fraction=0.25)
        boosted = advisor.propose(plan, {2: 5.0}).plan
        assert advisor.propose(boosted, {2: 5.0}) is None

    def test_sheds_replicas_when_the_heat_moves(self, plan):
        advisor = RebalanceAdvisor(base_replication=1, boost=1, hot_fraction=0.25)
        boosted = advisor.propose(plan, {2: 5.0}).plan
        moved = advisor.propose(boosted, {0: 9.0})
        assert moved.boosted == {0: (1, 2)}
        assert moved.shed == {2: (2, 1)}
        assert moved.plan.version == boosted.version + 1

    def test_missing_and_out_of_range_heat_counts_as_cold(self, plan):
        advisor = RebalanceAdvisor(base_replication=1, boost=1, hot_fraction=0.25)
        proposal = advisor.propose(plan, {3: 1.0, 99: 100.0})
        assert proposal.hot_shards == (3,)

    def test_tied_heat_breaks_to_the_lower_shard_id(self, plan):
        advisor = RebalanceAdvisor(base_replication=1, boost=1, hot_fraction=0.25)
        assert advisor.propose(plan, {}).hot_shards == (0,)

    def test_max_rails_clamps_proposals(self, plan):
        advisor = RebalanceAdvisor(
            base_replication=1, boost=3, hot_fraction=0.25, max_rails=2
        )
        proposal = advisor.propose(plan, {1: 5.0})
        assert proposal.plan.replicas_of(1) == (0, 1)
        assert proposal.plan.max_replication == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RebalanceAdvisor(base_replication=0)
        with pytest.raises(ConfigurationError):
            RebalanceAdvisor(boost=-1)
        with pytest.raises(ConfigurationError):
            RebalanceAdvisor(hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            RebalanceAdvisor(base_replication=2, max_rails=1)


# ---------------------------------------------------------------------- #
# AutoRebalancer over stubs
# ---------------------------------------------------------------------- #
class StubMonitor:
    def __init__(self, heat=None):
        self.heat = heat if heat is not None else {}

    def shard_heat(self):
        return dict(self.heat)


class StubRouter:
    def __init__(self, plan, *, fail_install=False):
        self.predictor = type("P", (), {"store": type("S", (), {"plan": plan})()})()
        self.registry = MetricsRegistry()
        self.fail_install = fail_install
        self.installed = []

    def install_plan(self, predictor):
        if self.fail_install:
            raise ServingError("refused")
        self.installed.append(predictor)
        self.predictor.store.plan = predictor.plan  # mirror the real router
        return predictor.plan.version


class PreparedStub:
    def __init__(self, plan):
        self.plan = plan


def _firing(slo="latency"):
    return Alert(slo=slo, state=FIRING, at=0.0, burn_fast=5.0, burn_slow=5.0)


def make_auto(plan, *, heat=None, clock=None, **kwargs):
    router = StubRouter(plan)
    auto = AutoRebalancer(
        router,
        RebalanceAdvisor(base_replication=1, boost=1, hot_fraction=0.25),
        PreparedStub,
        monitor=StubMonitor(heat),
        clock=clock if clock is not None else FakeClock(),
        **kwargs,
    )
    return router, auto


class TestAutoRebalancer:
    def test_firing_alert_installs_a_boosted_plan(self, plan):
        router, auto = make_auto(plan, heat={1: 9.0})
        auto.notify(_firing())
        assert auto.installs == 1
        (predictor,) = router.installed
        assert predictor.plan.version == plan.version + 1
        assert predictor.plan.replicas_of(1) == (0, 1)
        snap = router.registry.snapshot()
        assert snap["repro_rebalance_installs_total"] == 1
        assert snap["repro_rebalance_last_version"] == 1.0
        assert auto.history[-1]["reason"] == "slo:latency"

    def test_non_firing_transitions_are_ignored(self, plan):
        router, auto = make_auto(plan, heat={1: 9.0})
        for state in (PENDING, RESOLVED):
            auto.notify(
                Alert(slo="latency", state=state, at=0.0, burn_fast=0, burn_slow=0)
            )
        assert auto.installs == 0 and router.installed == []

    def test_watch_filters_unrelated_slos(self, plan):
        _, auto = make_auto(plan, heat={1: 9.0}, watch=("latency",))
        auto.notify(_firing(slo="error_rate"))
        assert auto.installs == 0
        auto.notify(_firing(slo="latency"))
        assert auto.installs == 1

    def test_cooldown_skips_reinstalls(self, plan):
        clock = FakeClock()
        _, auto = make_auto(
            plan, heat={1: 9.0}, clock=clock, cooldown_seconds=100.0
        )
        auto.notify(_firing())
        clock.advance(50.0)
        # New hottest shard, but the cooldown has not elapsed.
        auto.monitor.heat = {2: 9.0}
        auto.notify(_firing())
        assert auto.installs == 1
        assert auto.skips == {"cooldown": 1}
        clock.advance(50.0)
        auto.notify(_firing())
        assert auto.installs == 2

    def test_skips_without_heat_or_without_changes(self, plan):
        _, auto = make_auto(plan, heat={}, cooldown_seconds=0.0)
        assert auto.rebalance_now() is None
        assert auto.skips == {"no_heat": 1}
        auto.monitor.heat = {1: 9.0}
        auto.rebalance_now()
        # Same heat again: the advisor proposes the same replica map.
        assert auto.rebalance_now() is None
        assert auto.skips == {"no_heat": 1, "no_change": 1}

    def test_refused_install_is_tallied_not_raised(self, plan):
        router, auto = make_auto(plan, heat={1: 9.0})
        router.fail_install = True
        assert auto.rebalance_now() is None
        assert auto.skips == {"install_failed": 1}
        assert auto.installs == 0
        description = auto.describe()
        assert description["installs"] == 0
        assert description["skips"] == {"install_failed": 1}

    def test_negative_cooldown_rejected(self, plan):
        with pytest.raises(ConfigurationError):
            make_auto(plan, cooldown_seconds=-1.0)


# ---------------------------------------------------------------------- #
# The whole loop, end to end
# ---------------------------------------------------------------------- #
class ShardDelayTransport(ShardTransport):
    """Injects a fixed per-round service delay on configured shards."""

    def __init__(self, inner, delays, *, ops=(OP_FEATURES,)):
        super().__init__()
        self.inner = inner
        self.delays = {int(s): float(d) for s, d in delays.items()}
        self.ops = set(ops)

    @property
    def num_shards(self):
        return self.inner.num_shards

    def fetch(self, op, requests):
        if op in self.ops:
            delay = max(
                (self.delays.get(int(s), 0.0) for s, _ in requests), default=0.0
            )
            if delay > 0.0:
                time.sleep(delay)
        return self.inner.fetch(op, requests)

    def close(self):
        self.inner.close()


HOT_DELAY = 0.05
SLO_THRESHOLD = 0.025


class TestAutoRebalanceEndToEnd:
    """Skewed workload → burn alert fires → replica-boosted plan rolls out
    through install_plan → windowed p95 recovers → alert resolves.

    The control plane (monitor windows, burn rates, alert lifecycle,
    cooldown) runs on a FakeClock driven inline, so every transition
    happens at an exact virtual instant; the data plane serves for real,
    with an injected per-shard delay that puts phase-one latency above the
    SLO threshold by construction.
    """

    def test_alert_driven_rebalance_restores_the_slo(
        self, trained_nai, tiny_dataset
    ):
        config = trained_nai.inference_config(
            t_min=1,
            t_max=3,
            distance_threshold=trained_nai.suggest_distance_threshold(0.5),
            batch_size=32,
        )
        unsharded = trained_nai.build_predictor(policy="distance", config=config)
        unsharded.prepare(tiny_dataset.graph, tiny_dataset.features)
        shard_config = ShardConfig(num_shards=4, strategy="degree_balanced")
        plan0 = GraphPartitioner(shard_config).partition(tiny_dataset.graph)
        hot = int(np.argmax(plan0.shard_sizes()))

        def build(plan):
            def rails(store):
                return [
                    ShardDelayTransport(LocalTransport(store.shards), {hot: HOT_DELAY}),
                    LocalTransport(store.shards),
                ][: plan.max_replication]

            return (
                ClusterBuilder(ShardedPredictor.from_predictor(unsharded))
                .graph(tiny_dataset.graph, tiny_dataset.features)
                .shards(4, strategy="degree_balanced")
                .plan(plan)
                .replicated(rails, route_by="latency")
                .build_predictor()
            )

        # Zipf-ish skew: 80% of batches target the hot shard's owned nodes.
        rng = np.random.default_rng(7)
        batches = [
            rng.choice(
                plan0.owned[
                    hot if rng.random() < 0.8 else int(rng.integers(0, 4))
                ],
                size=8,
                replace=False,
            )
            for _ in range(140)
        ]

        fake = FakeClock()
        router = ShardRouter(
            build(plan0),
            ServingConfig(
                num_workers=2, max_batch_size=32, max_wait_ms=0.5, cache_capacity=8
            ),
        )
        monitor = HealthMonitor(
            router,
            MonitorConfig(window_seconds=60.0, num_buckets=12, cadence_seconds=1.0),
            clock=fake,
        )
        sink = MemoryAlertSink()
        engine = SLOEngine(
            [
                SLO(
                    name="latency",
                    objective="latency",
                    threshold_seconds=SLO_THRESHOLD,
                    budget_fraction=0.05,
                    fast_window_seconds=60.0,
                    slow_window_seconds=3600.0,
                    for_seconds=0.0,
                    resolve_after_seconds=30.0,
                    min_events=8,
                )
            ],
            sinks=[sink],
            clock=fake,
        )
        auto = AutoRebalancer(
            router,
            RebalanceAdvisor(
                base_replication=1, boost=1, hot_fraction=0.25, max_rails=2
            ),
            build,
            monitor=monitor,
            cooldown_seconds=10_000.0,
            clock=fake,
        )
        engine.add_sink(auto)

        responses = []
        congested_p95 = 0.0
        with router:
            for batch in batches:
                responses.append(
                    router.submit(batch, SubmitOptions(timeout=60.0)).result(timeout=60.0)
                )
                fake.advance(1.0)
                health = monitor.tick()
                if auto.installs == 0:
                    congested_p95 = max(congested_p95, health.latency.p95)
                engine.tick(health)
            rollout = router.rollout_state()  # before retiring drains it
            router.finish_rollout(timeout=60.0)
            final = monitor.tick()

        # The alert fired and the rebalancer answered with exactly one
        # versioned install: the hot shard gained the spare rail.
        assert sink.states("latency") == [PENDING, FIRING, RESOLVED]
        assert auto.installs == 1
        assert router.plan_version == plan0.version + 1
        (install,) = (h for h in auto.history if "version" in h)
        assert install["diff"]["boosted"] == {str(hot): {"from": 1, "to": 2}}
        assert router.registry.snapshot()["repro_rebalance_last_version"] == 1.0

        # Nothing was lost across the rollout, and the congested window
        # breached the SLO while the final window meets it.
        assert sum(row["requests_failed"] for row in rollout) == 0
        assert sum(row["requests_routed"] for row in rollout) == len(batches)
        assert congested_p95 > SLO_THRESHOLD
        assert final.latency.p95 < SLO_THRESHOLD

        # Monitoring and rebalancing never touched an answer: every routed
        # response is bit-identical to the unsharded oracle.
        for batch, response in zip(batches, responses):
            oracle = unsharded.predict(batch)
            np.testing.assert_array_equal(response.predictions, oracle.predictions)
            np.testing.assert_array_equal(response.depths, oracle.depths)
        assert {r.plan_version for r in responses} == {0, 1}
