"""Golden rendering of the serving/fleet stats surface on a fake clock.

One deterministic two-shard scenario — executed batches, result-cache
replays, failures, waves and prefetches, with interval snapshots taken both
with ``reset=False`` and ``reset=True`` — is rendered through every public
stats surface: the cumulative and interval
:class:`~repro.serving.ServingStatsSnapshot`, the merged
:class:`~repro.shard.stats.ShardedStatsSnapshot` and the Prometheus text
the router's registry collector renders through
:func:`~repro.obs.sharded_snapshot_samples`.  ``stats_golden.json`` pins
each output exactly (virtual time and fixed inputs make every value
deterministic); any change to how the accumulators fold or render shows up
as a diff here.
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.core.inference import MACBreakdown, TimingBreakdown
from repro.obs import MetricsRegistry, prometheus_text, sharded_snapshot_samples
from repro.serving import FakeClock, ServingStats, ServingStatsSnapshot
from repro.shard.stats import (
    SUMMED_FIELDS,
    ShardedStatsSnapshot,
    merge_serving_snapshots,
)

GOLDEN = Path(__file__).with_name("stats_golden.json")


def _batch(stats, worker, nodes, latencies, macs):
    stats.record_batch(
        worker_id=worker,
        num_nodes=nodes,
        num_requests=len(latencies),
        macs=MACBreakdown(
            stationary=nodes * 2.0,
            propagation=macs,
            decision=macs / 8,
            classification=nodes * 4.0,
        ),
        timings=TimingBreakdown(
            sampling=0.0625,
            stationary=0.015625,
            propagation=0.125,
            decision=0.03125,
            classification=0.0078125,
        ),
        latencies=list(latencies),
        queue_waits=[latency / 4 for latency in latencies],
    )


def _replay(stats, nodes, latencies, macs):
    stats.record_replayed_batch(
        num_nodes=nodes,
        num_requests=len(latencies),
        macs=MACBreakdown(propagation=macs, classification=nodes * 4.0),
        latencies=list(latencies),
        queue_waits=[0.0] * len(latencies),
    )


def _gauges(shard_id):
    return dict(
        queue_depth=shard_id + 1,
        queue_max_depth=4 + shard_id,
        requests_rejected=shard_id,
        requests_shed=2 * shard_id,
        cache_hits=6 + shard_id,
        cache_misses=2,
        cache_entries=5,
        result_cache_hits=3,
        result_cache_misses=5 + shard_id,
        result_cache_entries=2,
        batch_policy="marginal_latency",
        controller_adjustments=3 * shard_id,
    )


def _scenario():
    clock = FakeClock(start=100.0)
    shards = {shard_id: ServingStats(clock=clock) for shard_id in (0, 1)}
    a, b = shards[0], shards[1]
    a.mark_submission()
    b.mark_submission()
    clock.advance(0.25)
    _batch(a, 0, 8, (0.5, 0.25, 0.125), macs=512.0)
    _batch(b, 0, 4, (0.0625,), macs=128.0)
    a.record_prefetch_issued()
    a.record_prefetch_issued()
    a.record_prefetch_done(fetch_seconds=0.25, overlap_seconds=0.125)
    a.record_prefetch_done(fetch_seconds=0.125, overlap_seconds=0.0)
    a.record_prefetch_cancelled(1)
    a.record_wave(width=2, shared_row_macs=96.0, total_row_macs=384.0)
    clock.advance(0.5)
    _batch(a, 1, 16, (0.75, 0.375), macs=1024.0)
    _replay(b, 4, (0.03125, 0.015625), macs=128.0)
    b.record_failure(2)
    b.record_wave(width=3, shared_row_macs=64.0, total_row_macs=256.0)
    clock.advance(1.0)

    outputs = {"interval_peek": {}, "interval": {}, "after_reset": {}}
    for shard_id, stats in shards.items():
        peek = stats.interval_snapshot(reset=False, **_gauges(shard_id))
        outputs["interval_peek"][str(shard_id)] = peek
        outputs["interval"][str(shard_id)] = stats.interval_snapshot(
            **_gauges(shard_id)
        )

    clock.advance(0.5)
    _batch(a, 0, 2, (0.25,), macs=64.0)
    _replay(a, 2, (0.0078125,), macs=64.0)
    a.record_failure(1)
    _batch(b, 1, 8, (1.5, 0.5, 0.25, 0.125), macs=256.0)
    b.record_wave(width=2, shared_row_macs=32.0, total_row_macs=128.0)
    clock.advance(2.0)
    for shard_id, stats in shards.items():
        outputs["after_reset"][str(shard_id)] = stats.interval_snapshot(
            reset=False, **_gauges(shard_id)
        )

    cumulative = {
        shard_id: stats.snapshot(**_gauges(shard_id))
        for shard_id, stats in shards.items()
    }
    outputs["cumulative"] = {str(k): v for k, v in cumulative.items()}
    # What ShardRouter.stats() does with the merged snapshot.
    fleet = replace(
        merge_serving_snapshots(cumulative),
        plan_version=3,
        transport_retries=5,
        transport_failovers=2,
        transport_health_transitions=1,
    )
    registry = MetricsRegistry()
    registry.register(lambda: sharded_snapshot_samples(fleet))
    return outputs, fleet, registry


def _rendered(outputs, fleet, registry) -> dict:
    rendered = {
        group: {shard: snap.as_dict() for shard, snap in snapshots.items()}
        for group, snapshots in outputs.items()
    }
    rendered["fleet"] = fleet.as_dict()
    rendered["prometheus"] = prometheus_text(registry)
    # JSON-normalised, exactly as the benchmark reports store it.
    return json.loads(json.dumps(rendered))


@pytest.fixture(scope="module")
def scenario():
    return _scenario()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "group", ["cumulative", "interval_peek", "interval", "after_reset"]
)
def test_serving_snapshots_match_golden(scenario, golden, group):
    assert _rendered(*scenario)[group] == golden[group]


def test_fleet_snapshot_matches_golden(scenario, golden):
    assert _rendered(*scenario)["fleet"] == golden["fleet"]


def test_prometheus_text_matches_golden(scenario, golden):
    assert _rendered(*scenario)["prometheus"] == golden["prometheus"]


def _summed_counters() -> list[str]:
    """Integer counters both snapshot types carry: the ones a merge sums."""
    serving = {f.name for f in fields(ServingStatsSnapshot)}
    return [
        f.name
        for f in fields(ShardedStatsSnapshot)
        if f.name in serving and f.type in ("int", int)
    ]


def test_every_summed_counter_is_the_sum_over_its_shards(scenario):
    _, fleet, _ = scenario
    # A counter added to both snapshot types but not to the table would
    # silently read 0 in the fleet view.
    assert sorted(SUMMED_FIELDS) == sorted(_summed_counters())
    for name in SUMMED_FIELDS:
        per_shard = sum(getattr(s, name) for s in fleet.per_shard.values())
        assert getattr(fleet, name) == per_shard, name


def test_every_exported_total_maps_to_a_snapshot_attribute(scenario):
    _, fleet, registry = scenario
    fleet_view = fleet.as_dict()
    totals = [m for m in registry.collect() if m.name.endswith("_total")]
    assert totals
    for metric in totals:
        name = metric.name.removeprefix("repro_").removesuffix("_total")
        labels = dict(metric.labels)
        if "shard" in labels:
            view = fleet.per_shard[int(labels["shard"])].as_dict()
            name = name.removeprefix("shard_")
        else:
            view = fleet_view
        assert name in view, metric.name
        assert metric.value == view[name], metric.name
