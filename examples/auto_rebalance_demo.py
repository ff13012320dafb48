"""Observation-driven automatic shard rebalancing, end to end.

One skewed workload, one closed control loop:

* a **hot shard** — most requests target shard nodes owned by one shard,
  and that shard's feature fetches carry an injected 50ms delay (a stand-in
  for a cold cache or a noisy neighbour);
* a **health monitor** tracks fleet and per-shard sliding windows
  (request/node rates, windowed latency percentiles, shard heat);
* an **SLO engine** burns the latency error budget on a fast and a slow
  window (Google-SRE multiwindow alerting) and walks the alert through
  ``pending → firing``;
* an **auto-rebalancer** listening as an alert sink asks the
  ``RebalanceAdvisor`` for a replica-boosted plan and installs it through
  the router's zero-downtime versioned rollout;
* the replicated transport's **latency routing** then drains the hot
  shard's reads onto the spare rail, the windowed p95 recovers below the
  SLO threshold and the alert resolves.

The control plane runs on a ``FakeClock`` advanced one virtual second per
request, so every burn rate and lifecycle transition in the printout is
exactly reproducible; the data plane serves for real.

Run with::

    python examples/auto_rebalance_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import NAI, SGC, load_dataset
from repro.core import (
    DistillationConfig,
    MonitorConfig,
    ServingConfig,
    ShardConfig,
    TrainingConfig,
)
from repro.obs import (
    SLO,
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

HOT_DELAY = 0.05
SLO_THRESHOLD = 0.025
NUM_SHARDS = 4
NUM_REQUESTS = 130


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
                import time

                time.sleep(delay)
        return self.inner.fetch(op, requests)

    def close(self):
        self.inner.close()


def main() -> None:
    dataset = load_dataset("flickr-sim", scale=0.3)
    print("deployment graph:", dataset.summary())

    backbone = SGC(dataset.num_features, dataset.num_classes, depth=3, rng=7)
    nai = NAI(
        backbone,
        distillation_config=DistillationConfig(
            training=TrainingConfig(epochs=40, lr=0.05, patience=15)
        ),
        train_gates=False,
        rng=7,
    ).fit(dataset)
    predictor = nai.build_predictor(
        policy="distance",
        config=nai.inference_config(
            t_min=1,
            t_max=3,
            distance_threshold=nai.suggest_distance_threshold(0.5),
            batch_size=32,
        ),
    )
    predictor.prepare(dataset.graph, dataset.features)

    shard_config = ShardConfig(num_shards=NUM_SHARDS, strategy="degree_balanced")
    plan0 = GraphPartitioner(shard_config).partition(dataset.graph)
    hot = int(np.argmax(plan0.shard_sizes()))
    print(f"hot shard: {hot} (+{HOT_DELAY * 1e3:.0f}ms per feature round)")

    def build(plan):
        """Prepare a generation of the fleet under ``plan``'s replica map."""

        def rails(store):
            return [
                ShardDelayTransport(
                    LocalTransport(store.shards), {hot: HOT_DELAY}
                ),
                LocalTransport(store.shards),
            ][: plan.max_replication]

        return (
            ClusterBuilder(ShardedPredictor.from_predictor(predictor))
            .graph(dataset.graph, dataset.features)
            .shards(NUM_SHARDS)
            .plan(plan)
            .replicated(rails, route_by="latency")
            .build_predictor()
        )

    # 80% of requests target the hot shard's owned nodes.
    rng = np.random.default_rng(7)
    batches = [
        rng.choice(
            plan0.owned[
                hot if rng.random() < 0.8 else int(rng.integers(0, NUM_SHARDS))
            ],
            size=8,
            replace=False,
        )
        for _ in range(NUM_REQUESTS)
    ]

    fake = FakeClock()
    registry = MetricsRegistry()
    router = ShardRouter(
        build(plan0),
        ServingConfig(
            num_workers=2, max_batch_size=32, max_wait_ms=0.5, cache_capacity=0
        ),
        registry=registry,
    )
    monitor = HealthMonitor(
        router,
        MonitorConfig(window_seconds=60.0, num_buckets=12, cadence_seconds=1.0),
        clock=fake,
        registry=registry,
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

    print(f"\nserving {NUM_REQUESTS} skewed requests "
          "(1 virtual second per request)...")
    last_state = engine.state_of("latency")
    with router:
        for index, batch in enumerate(batches):
            router.submit(batch, SubmitOptions(timeout=60.0)).result(timeout=60.0)
            fake.advance(1.0)
            health = monitor.tick()
            engine.tick(health)
            state = engine.state_of("latency")
            if state != last_state:
                burn_fast, burn_slow = engine.burn_rates("latency")
                print(
                    f"  t={fake.now():5.0f}s  latency SLO {last_state} -> "
                    f"{state}  (burn {burn_fast:.1f}x/{burn_slow:.1f}x, "
                    f"windowed p95 {health.latency.p95 * 1e3:.1f}ms)"
                )
                last_state = state
            if auto.installs and "install" not in locals():
                (install,) = (h for h in auto.history if "version" in h)
                print(
                    f"  t={fake.now():5.0f}s  installed plan v"
                    f"{install['version']} (reason {install['reason']}): "
                    f"boosted {install['diff']['boosted']}"
                )
        rollout = router.rollout_state()
        router.finish_rollout(timeout=60.0)
        final = monitor.tick()

        print("\nrollout accounting (per generation):")
        for row in rollout:
            print(
                f"  v{row['version']}: routed {row['requests_routed']}, "
                f"completed {row['requests_completed']}, "
                f"failed {row['requests_failed']}"
            )
        print(
            f"final windowed p95: {final.latency.p95 * 1e3:.2f}ms "
            f"(SLO threshold {SLO_THRESHOLD * 1e3:.0f}ms)"
        )
        print(f"alert lifecycle: {' -> '.join(sink.states('latency'))}")
        print(
            "hot-shard heat ranking:",
            final.hottest_shards(),
            " installs:",
            int(registry.counter("repro_rebalance_installs_total").value),
            " active plan version:",
            int(registry.gauge("repro_rebalance_last_version").value),
        )


if __name__ == "__main__":
    main()
