"""SlidingWindow semantics and HealthMonitor windowed readings (virtual time)."""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import MonitorConfig
from repro.core.inference import MACBreakdown, TimingBreakdown
from repro.exceptions import ConfigurationError
from repro.obs import HealthMonitor, MetricsRegistry, SlidingWindow
from repro.serving import ServingStats
from repro.serving.clock import FakeClock


class TestSlidingWindow:
    def test_rate_is_total_over_covered_seconds(self):
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=12, clock=clock)
        window.add(2.0)
        clock.advance(10.0)
        window.add(3.0)
        assert window.total() == 5.0
        assert window.covered_seconds() == 10.0
        assert window.rate() == pytest.approx(0.5)

    def test_covered_seconds_ramps_from_one_bucket_to_the_window(self):
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=12, clock=clock)
        # Before any time passes one bucket span (5s) is the floor.
        assert window.covered_seconds() == 5.0
        clock.advance(600.0)
        # At an exact bucket boundary the live ring spans 11 full buckets
        # plus the just-opened (empty) current one: 55s, not the window.
        assert window.covered_seconds() == 55.0
        clock.advance(2.5)
        assert window.covered_seconds() == 57.5

    def test_rate_not_overdivided_right_after_bucket_rollover(self):
        """Events landing late in the ring must divide by the live span.

        Regression: covered_seconds used elapsed-since-start clamped to the
        window, so immediately after a rollover a 6-event burst divided by
        60s instead of the 55s the live buckets actually cover.
        """
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=12, clock=clock)
        clock.advance(57.0)
        window.add(6.0)
        clock.advance(3.0)  # lands exactly on the t=60 bucket boundary
        assert window.total() == 6.0
        assert window.covered_seconds() == 55.0
        assert window.rate() == pytest.approx(6.0 / 55.0)

    def test_covered_seconds_floor_spans_partial_first_bucket(self):
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=12, clock=clock)
        window.add(10.0)
        clock.advance(2.0)  # inside the first bucket span
        assert window.covered_seconds() == 5.0  # floored at one span
        assert window.rate() == pytest.approx(2.0)

    def test_rate_uses_one_consistent_reading(self):
        """rate() must pair total and covered span from the same instant."""
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=12, clock=clock)
        clock.advance(10.0)
        window.add(4.0)
        assert window.rate() == pytest.approx(4.0 / 10.0)
        # Crossing many boundaries expires the events and grows the span.
        clock.advance(100.0)
        assert window.total() == 0.0
        assert window.rate() == 0.0

    def test_old_buckets_expire_by_epoch(self):
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=12, clock=clock)
        window.add(5.0)
        clock.advance(30.0)
        window.add(1.0)
        assert window.total() == 6.0
        # 31 more seconds: the first bucket (epoch 0) is now outside the
        # 12-bucket horizon, the second is still in.
        clock.advance(31.0)
        assert window.total() == 1.0
        clock.advance(60.0)
        assert window.total() == 0.0

    def test_ring_slot_is_reclaimed_in_place(self):
        clock = FakeClock()
        window = SlidingWindow(4.0, num_buckets=2, clock=clock)
        window.add(1.0)
        # Epoch 2 maps onto the same slot as epoch 0 — old content must go.
        clock.advance(4.0)
        window.add(10.0)
        assert window.total() == 10.0

    def test_observe_mean_count_and_summary(self):
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=6, clock=clock)
        for value in (0.010, 0.020, 0.030, 0.100):
            window.observe(value)
            clock.advance(1.0)
        assert window.count() == 4
        assert window.mean() == pytest.approx(0.04)
        summary = window.summary()
        assert summary.count == 4
        assert summary.max == pytest.approx(0.100)
        assert summary.p50 == pytest.approx(0.025)

    def test_sample_cap_keeps_counting_but_drops_samples(self):
        clock = FakeClock()
        window = SlidingWindow(10.0, num_buckets=2, clock=clock, sample_cap=2)
        # Cap is per bucket: max(1, 2 // 2) = 1 retained sample per bucket.
        for value in (1.0, 2.0, 3.0):
            window.observe(value)
        assert window.count() == 3
        assert window.mean() == pytest.approx(2.0)
        assert window.dropped_samples == 2
        assert window.summary().count == 1

    def test_reset_forgets_everything_and_restarts_coverage(self):
        clock = FakeClock()
        window = SlidingWindow(60.0, num_buckets=12, clock=clock)
        window.add(100.0)
        window.observe(1.0)
        clock.advance(30.0)
        window.reset()
        assert window.total() == 0.0
        assert window.count() == 0
        assert window.covered_seconds() == 5.0  # one bucket span again
        assert window.summary().count == 0

    def test_empty_window_reads_zeros(self):
        window = SlidingWindow(60.0, clock=FakeClock())
        assert window.total() == 0.0
        assert window.rate() == 0.0
        assert window.mean() == 0.0
        assert window.summary().p95 == 0.0

    def test_negative_delta_rejected(self):
        window = SlidingWindow(60.0, clock=FakeClock())
        with pytest.raises(ConfigurationError, match="negative"):
            window.add(-1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingWindow(0.0)
        with pytest.raises(ConfigurationError):
            SlidingWindow(60.0, num_buckets=0)
        with pytest.raises(ConfigurationError):
            SlidingWindow(60.0, sample_cap=0)


# ---------------------------------------------------------------------- #
# HealthMonitor over a scripted stub router
# ---------------------------------------------------------------------- #
def _interval(completed=0, failed=0, nodes=0, depth=0, samples=()):
    return SimpleNamespace(
        requests_completed=completed,
        requests_failed=failed,
        nodes_completed=nodes,
        queue_depth=depth,
        latency_samples=tuple(samples),
    )


class StubRouter:
    """Replays scripted interval deltas and cumulative transport totals."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.intervals: dict[int, SimpleNamespace] = {}
        self.plan_version = 0
        self.transport_retries = 0
        self.transport_failovers = 0
        self.remote_bytes = 0

    def interval_stats(self, *, reset=True):
        return dict(self.intervals)

    def stats(self):
        return SimpleNamespace(
            plan_version=self.plan_version,
            transport_retries=self.transport_retries,
            transport_failovers=self.transport_failovers,
        )

    def traffic(self):
        return {
            "shard_traffic": {
                "0": {"remote_bytes": self.remote_bytes, "local_rows": 0}
            }
        }


CONFIG = MonitorConfig(window_seconds=60.0, num_buckets=12, cadence_seconds=5.0)


class TestHealthMonitor:
    def test_windowed_rates_are_exact_in_virtual_time(self):
        clock = FakeClock()
        router = StubRouter()
        monitor = HealthMonitor(router, CONFIG, clock=clock)
        router.intervals = {
            0: _interval(completed=4, nodes=40, samples=(0.010, 0.020))
        }
        clock.advance(10.0)
        health = monitor.tick()
        shard = health.per_shard[0]
        # Per-shard windows open at the shard's first tick, so their
        # coverage is still the one-bucket floor (5s): 4 requests / 5s.
        assert shard.request_rate == pytest.approx(0.8)
        assert shard.node_rate == pytest.approx(8.0)
        assert shard.heat == pytest.approx(8.0)
        # Fleet windows open with the monitor (t=0): 4 requests / 10s.
        assert health.request_rate == pytest.approx(0.4)
        assert health.interval_completed == 4
        assert health.interval_latency_samples == (0.010, 0.020)
        assert health.latency.max == pytest.approx(0.020)

    def test_heat_ranks_hottest_shards_first(self):
        clock = FakeClock()
        router = StubRouter()
        monitor = HealthMonitor(router, CONFIG, clock=clock)
        router.intervals = {
            0: _interval(nodes=10),
            1: _interval(nodes=90),
            2: _interval(nodes=10),
        }
        clock.advance(10.0)
        health = monitor.tick()
        assert health.hottest_shards() == [1, 0, 2]
        heat = monitor.shard_heat()
        assert heat[1] > heat[0] == heat[2]

    def test_maybe_tick_honours_the_cadence(self):
        clock = FakeClock()
        router = StubRouter()
        monitor = HealthMonitor(router, CONFIG, clock=clock)
        assert monitor.maybe_tick() is not None  # first tick always fires
        clock.advance(1.0)
        assert monitor.maybe_tick() is None  # cadence is 5s
        clock.advance(4.0)
        assert monitor.maybe_tick() is not None
        assert monitor.ticks == 2

    def test_transport_deltas_are_baselined_at_the_first_tick(self):
        clock = FakeClock()
        router = StubRouter()
        monitor = HealthMonitor(router, CONFIG, clock=clock)
        router.transport_retries = 100  # pre-existing total
        clock.advance(10.0)
        health = monitor.tick()
        assert health.transport_retry_rate == 0.0  # baseline, not a burst
        router.transport_retries = 106
        router.remote_bytes = 3000
        clock.advance(10.0)
        health = monitor.tick()
        # 6 retries over the 20s covered window.
        assert health.transport_retry_rate == pytest.approx(6 / 20)
        assert health.remote_byte_rate == pytest.approx(3000 / 20)

    def test_tick_readings_are_exported_through_the_router_registry(self):
        clock = FakeClock()
        router = StubRouter()
        monitor = HealthMonitor(router, CONFIG, clock=clock)
        assert router.registry.snapshot() == {}  # nothing before a tick
        router.intervals = {0: _interval(completed=4, nodes=40, samples=(0.010,))}
        clock.advance(10.0)
        monitor.tick()
        snap = router.registry.snapshot()
        assert snap["repro_request_rate_window"] == pytest.approx(0.4)
        # The shard window's coverage floor is 5s.
        assert snap["repro_shard_heat_window{shard=0}"] == pytest.approx(8.0)
        assert snap["repro_latency_p95_window_seconds"] == pytest.approx(0.010)
        assert (
            router.registry.help_text("repro_shard_heat_window")
            == "Windowed rows served per second, the rebalance ranking key"
        )

    def test_failure_rate_and_queue_depth_percentile(self):
        clock = FakeClock()
        router = StubRouter()
        monitor = HealthMonitor(router, CONFIG, clock=clock)
        for depth, failed in ((2, 0), (10, 3)):
            router.intervals = {0: _interval(completed=5, failed=failed, depth=depth)}
            clock.advance(10.0)
            health = monitor.tick()
        shard = health.per_shard[0]
        # The shard's windows opened at its first tick (t=10): 10s covered.
        assert shard.failure_rate == pytest.approx(3 / 10)
        assert shard.queue_depth == 10.0
        assert shard.queue_depth_p95 > 2.0
        assert health.as_dict()["per_shard"]["0"]["queue_depth"] == 10.0

    def test_describe_reports_ticks_and_shards(self):
        clock = FakeClock()
        router = StubRouter()
        monitor = HealthMonitor(router, CONFIG, clock=clock)
        router.intervals = {0: _interval(), 1: _interval()}
        monitor.tick()
        description = monitor.describe()
        assert description["ticks"] == 1
        assert description["shards"] == [0, 1]
        assert description["window_seconds"] == 60.0


# ---------------------------------------------------------------------- #
# HealthMonitor over live ServingStats accumulators
# ---------------------------------------------------------------------- #
class StatsRouter:
    """Serves real per-shard ``ServingStats`` intervals to the monitor."""

    def __init__(self, shards):
        self.registry = MetricsRegistry()
        self.shards = shards

    def interval_stats(self, *, reset=True):
        return {
            shard_id: stats.interval_snapshot(reset=reset)
            for shard_id, stats in self.shards.items()
        }

    def stats(self):
        return SimpleNamespace(
            plan_version=0, transport_retries=0, transport_failovers=0
        )

    def traffic(self):
        return {}


def test_ticks_see_every_latency_sample_of_every_counted_request():
    """Regression: a batch landing between two reads lost its latencies.

    The monitor read an interval's latency samples and its counters in two
    lock holds; a batch completing in between was counted by the second
    read and then discarded by its reset, so the latency SLO never saw it.
    Worker threads (more than cores) record batches while ticks run; over
    all ticks, samples seen must equal requests counted.
    """
    clock = FakeClock()
    shards = {0: ServingStats(clock=clock), 1: ServingStats(clock=clock)}
    monitor = HealthMonitor(StatsRouter(shards), CONFIG, clock=clock)
    batches_per_thread, requests_per_batch = 3000, 3

    def record(stats, worker_id):
        for _ in range(batches_per_thread):
            stats.record_batch(
                worker_id=worker_id,
                num_nodes=requests_per_batch,
                num_requests=requests_per_batch,
                macs=MACBreakdown(),
                timings=TimingBreakdown(),
                latencies=[0.001] * requests_per_batch,
                queue_waits=[0.0] * requests_per_batch,
            )

    threads = [
        threading.Thread(target=record, args=(shards[i % 2], i), daemon=True)
        for i in range(4)
    ]
    seen_samples = seen_completed = 0
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            health = monitor.tick()
            seen_samples += len(health.interval_latency_samples)
            seen_completed += health.interval_completed
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    health = monitor.tick()  # the tail after the last worker finished
    seen_samples += len(health.interval_latency_samples)
    seen_completed += health.interval_completed
    assert seen_completed == len(threads) * batches_per_thread * requests_per_batch
    assert seen_samples == seen_completed
