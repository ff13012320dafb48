"""Interval (delta) windows on ServingStats, driven in virtual time."""

import pytest

from repro.core.inference import MACBreakdown, TimingBreakdown
from repro.serving import FakeClock, ServingStats


def _record(stats, *, nodes=10, requests=2, latencies=(0.01, 0.02), macs=100.0):
    stats.record_batch(
        worker_id=0,
        num_nodes=nodes,
        num_requests=requests,
        macs=MACBreakdown(propagation=macs),
        timings=TimingBreakdown(propagation=0.001),
        latencies=list(latencies),
        queue_waits=[0.001] * len(latencies),
    )


class TestIntervalSnapshot:
    def test_interval_counters_and_throughput_are_exact(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        _record(stats, nodes=10, requests=2, latencies=(0.01, 0.02))
        _record(stats, nodes=30, requests=4, latencies=(0.03, 0.04, 0.05, 0.06))
        clock.advance(8.0)
        interval = stats.interval_snapshot()
        assert interval.requests_completed == 6
        assert interval.nodes_completed == 40
        assert interval.batches_dispatched == 2
        assert interval.avg_batch_nodes == pytest.approx(20.0)
        assert interval.avg_batch_requests == pytest.approx(3.0)
        assert interval.throughput_nodes_per_second == pytest.approx(40 / 8)
        assert interval.latency.count == 6
        assert interval.latency.max == pytest.approx(0.06)
        assert interval.macs.total == pytest.approx(200.0)

    def test_reset_true_makes_back_to_back_calls_a_delta_stream(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        _record(stats, nodes=10)
        clock.advance(5.0)
        first = stats.interval_snapshot()
        assert first.nodes_completed == 10
        # The default reset opened a fresh window at t=5: only what lands
        # after that shows up in the next interval.
        _record(stats, nodes=7, requests=1, latencies=(0.09,))
        clock.advance(2.0)
        second = stats.interval_snapshot()
        assert second.nodes_completed == 7
        assert second.latency.count == 1
        assert second.throughput_nodes_per_second == pytest.approx(7 / 2)

    def test_reset_false_keeps_the_window_open(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        _record(stats, nodes=10)
        clock.advance(5.0)
        peek = stats.interval_snapshot(reset=False)
        again = stats.interval_snapshot(reset=False)
        assert peek.nodes_completed == again.nodes_completed == 10
        assert again.throughput_nodes_per_second == pytest.approx(2.0)

    def test_empty_window_reads_zeros_not_division_errors(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        interval = stats.interval_snapshot()  # zero elapsed, zero events
        assert interval.requests_completed == 0
        assert interval.batches_dispatched == 0
        assert interval.avg_batch_nodes == 0.0
        assert interval.throughput_nodes_per_second == 0.0
        assert interval.latency.count == 0
        assert interval.latency.p95 == 0.0
        assert interval.macs.total == 0.0

    def test_reset_window_is_idempotent_and_clears_pending_deltas(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        _record(stats, nodes=10)
        clock.advance(3.0)
        stats.reset_window()
        stats.reset_window()
        clock.advance(1.0)
        interval = stats.interval_snapshot()
        assert interval.nodes_completed == 0
        assert interval.throughput_nodes_per_second == 0.0

    def test_cumulative_snapshot_is_untouched_by_interval_resets(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        _record(stats, nodes=10, requests=2)
        clock.advance(5.0)
        stats.interval_snapshot()
        stats.reset_window()
        cumulative = stats.snapshot()
        assert cumulative.requests_completed == 2
        assert cumulative.nodes_completed == 10
        assert cumulative.macs.total == pytest.approx(100.0)
        assert cumulative.latency.count == 2

    def test_failures_and_replays_are_interval_accounted(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        stats.record_failure(3)
        stats.record_replayed_batch(
            num_nodes=5,
            num_requests=1,
            macs=MACBreakdown(propagation=50.0),
            latencies=[0.002],
            queue_waits=[0.0],
        )
        clock.advance(1.0)
        interval = stats.interval_snapshot()
        assert interval.requests_failed == 3
        assert interval.requests_replayed == 1
        assert interval.nodes_replayed == 5
        assert interval.batches_replayed == 1
        # Replays complete requests but execute no worker MACs.
        assert interval.requests_completed == 1
        assert interval.macs.total == 0.0
        assert interval.replayed_macs.total == pytest.approx(50.0)
        follow_up = stats.interval_snapshot()
        assert follow_up.requests_failed == 0
        assert follow_up.requests_replayed == 0

    def test_interval_snapshot_carries_its_latency_samples(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        _record(stats, latencies=(0.01, 0.02))
        peek = stats.interval_snapshot(reset=False)
        assert peek.latency_samples == (0.01, 0.02)
        clock.advance(1.0)
        assert stats.interval_snapshot().latency_samples == (0.01, 0.02)
        assert stats.interval_snapshot().latency_samples == ()  # consumed
        # The cumulative snapshot summarises its samples but exports none.
        assert stats.snapshot().latency_samples == ()
