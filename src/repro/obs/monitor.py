"""Sliding-window health monitoring over the sharded serving fleet.

PR 7's observability layer is cumulative: every counter in
:class:`~repro.obs.registry.MetricsRegistry` is a since-start total, which
answers "how much" but never "how fast *right now*" — the question both an
operator dashboard and the auto-rebalance loop actually ask.  This module
adds the windowed view:

* :class:`SlidingWindow` — a ring of time-bucketed sub-windows on the
  injectable :class:`~repro.serving.clock.Clock`, giving
  rate/p50/p95/p99-over-the-last-N-seconds readings.  Expiry is by bucket
  (span ``window_seconds / num_buckets``), so reads are O(num_buckets)
  and writes O(1); under a :class:`~repro.serving.clock.FakeClock` the
  whole window is deterministic virtual time.
* :class:`HealthMonitor` — snapshots a :class:`~repro.shard.router.
  ShardRouter`'s stats, traffic and interval windows on a cadence and
  derives per-shard windowed load (request/node/failure rates, latency
  percentiles, queue depth) from the existing exact accumulators: serving
  counters arrive as per-tick interval deltas
  (:meth:`~repro.serving.stats.ServingStats.interval_snapshot`), transport
  and traffic counters as deltas of their cumulative totals.  Every
  reading is republished into the registry as a ``*_window`` gauge and
  bundled into a :class:`FleetHealth` — the input of the SLO engine
  (:mod:`repro.obs.slo`) and the rebalance advisor
  (:mod:`repro.obs.rebalance`).

The monitor only *reads*: attaching one changes no prediction, depth or
MAC anywhere (the bit-equality clauses of the monitor benchmark), and a
deployment without one pays nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.config import MonitorConfig
from ..exceptions import ConfigurationError
from ..metrics.timing import LatencySummary, latency_summary
from ..serving.clock import MONOTONIC_CLOCK, Clock
from .registry import MetricsRegistry


class _Bucket:
    """One sub-window of a :class:`SlidingWindow` ring slot."""

    __slots__ = ("epoch", "count", "total", "samples")

    def __init__(self) -> None:
        self.epoch: int | None = None
        self.count = 0
        self.total = 0.0
        self.samples: list[float] = []


class SlidingWindow:
    """Rate and percentile readings over the last ``window_seconds``.

    A ring of ``num_buckets`` time buckets: a write lands in the bucket of
    the current epoch (``now // bucket_span``), reclaiming the slot in
    place when its previous epoch has rotated out — no timers, no
    background sweep.  Reads aggregate only buckets whose epoch is still
    inside the window, so data older than ``window_seconds`` (rounded up
    to one bucket span) simply stops counting.

    Two write paths:

    * :meth:`add` folds a counter *delta* into the window (``total`` /
      :meth:`rate` readings — events per second);
    * :meth:`observe` records one sample of a distribution (``count``,
      ``mean`` and the :meth:`summary` percentiles).  At most
      ``sample_cap`` samples are retained across the window (per-bucket
      slices); overflow keeps counting in ``count``/``total`` but drops
      the sample, tallied in :attr:`dropped_samples`.
    """

    def __init__(
        self,
        window_seconds: float,
        *,
        num_buckets: int = 12,
        clock: Clock | None = None,
        sample_cap: int = 4096,
    ) -> None:
        if window_seconds <= 0:
            raise ConfigurationError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        if num_buckets < 1:
            raise ConfigurationError(
                f"num_buckets must be positive, got {num_buckets}"
            )
        if sample_cap < 1:
            raise ConfigurationError(f"sample_cap must be positive, got {sample_cap}")
        self.window_seconds = float(window_seconds)
        self.num_buckets = int(num_buckets)
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._span = self.window_seconds / self.num_buckets
        self._bucket_cap = max(1, int(sample_cap) // self.num_buckets)
        self._lock = threading.Lock()
        self._buckets = [_Bucket() for _ in range(self.num_buckets)]
        self._started = self.clock.now()
        self.dropped_samples = 0

    # ------------------------------------------------------------------ #
    def _bucket_locked(self, now: float) -> _Bucket:
        epoch = int(now // self._span)
        bucket = self._buckets[epoch % self.num_buckets]
        if bucket.epoch != epoch:
            bucket.epoch = epoch
            bucket.count = 0
            bucket.total = 0.0
            bucket.samples = []
        return bucket

    def _live_locked(self, now: float) -> list[_Bucket]:
        min_epoch = int(now // self._span) - self.num_buckets + 1
        return [
            bucket
            for bucket in self._buckets
            if bucket.epoch is not None and bucket.epoch >= min_epoch
        ]

    # ------------------------------------------------------------------ #
    def add(self, amount: float) -> None:
        """Fold a counter delta (e.g. requests completed this tick) in."""
        if amount < 0:
            raise ConfigurationError(f"cannot add a negative delta ({amount})")
        now = self.clock.now()
        with self._lock:
            self._bucket_locked(now).total += float(amount)

    def observe(self, value: float) -> None:
        """Record one distribution sample (latency, queue depth, ...)."""
        now = self.clock.now()
        with self._lock:
            bucket = self._bucket_locked(now)
            bucket.count += 1
            bucket.total += float(value)
            if len(bucket.samples) < self._bucket_cap:
                bucket.samples.append(float(value))
            else:
                self.dropped_samples += 1

    def reset(self) -> None:
        """Forget everything; the window restarts at the current instant."""
        now = self.clock.now()
        with self._lock:
            for bucket in self._buckets:
                bucket.epoch = None
                bucket.count = 0
                bucket.total = 0.0
                bucket.samples = []
            self._started = now
            self.dropped_samples = 0

    # ------------------------------------------------------------------ #
    def total(self) -> float:
        """Sum of everything recorded inside the window."""
        now = self.clock.now()
        with self._lock:
            return sum(bucket.total for bucket in self._live_locked(now))

    def count(self) -> int:
        """Number of :meth:`observe` samples inside the window."""
        now = self.clock.now()
        with self._lock:
            return sum(bucket.count for bucket in self._live_locked(now))

    def _covered_locked(self, now: float) -> float:
        """Span actually covered by the live buckets at ``now``.

        The ring holds the buckets of epochs ``[current - num_buckets + 1,
        current]``, and the current epoch's bucket is only *partially*
        elapsed — right after a rollover the oldest full bucket has just
        been reclaimed, so the live span is ``now`` minus the start of the
        oldest live epoch, not the full ``window_seconds``.  Dividing by
        the window there over-divides every rate by up to one bucket span
        (the pre-fix bug).  Floored at one span so a reading taken moments
        after start/reset is a per-bucket average, not a spike.
        """
        window_start = (
            int(now // self._span) - self.num_buckets + 1
        ) * self._span
        covered = now - max(self._started, window_start)
        return min(self.window_seconds, max(covered, self._span))

    def covered_seconds(self) -> float:
        """Wall span the window currently covers (ramps up after start)."""
        now = self.clock.now()
        with self._lock:
            return self._covered_locked(now)

    def rate(self) -> float:
        """Windowed total per second of covered window span.

        Total and covered span are read under one lock at one ``now`` —
        two separate reads could straddle a bucket rollover and pair a new
        window's total with the old window's span.
        """
        now = self.clock.now()
        with self._lock:
            total = sum(bucket.total for bucket in self._live_locked(now))
            return total / self._covered_locked(now)

    def mean(self) -> float:
        """Mean of the observed samples inside the window (0 when empty)."""
        now = self.clock.now()
        with self._lock:
            live = self._live_locked(now)
            count = sum(bucket.count for bucket in live)
            if count == 0:
                return 0.0
            return sum(bucket.total for bucket in live) / count

    def summary(self) -> LatencySummary:
        """p50/p95/p99 summary of the retained samples inside the window."""
        now = self.clock.now()
        with self._lock:
            samples: list[float] = []
            for bucket in self._live_locked(now):
                samples.extend(bucket.samples)
        return latency_summary(samples)


# ---------------------------------------------------------------------- #
# Health readings
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardHealth:
    """One shard's windowed load at a monitor tick."""

    shard_id: int
    request_rate: float
    node_rate: float
    failure_rate: float
    latency: LatencySummary
    queue_depth: float
    queue_depth_p95: float
    #: The advisor's ranking key: windowed rows served per second — the
    #: live analogue of the degree mass the partitioner boosts on.
    heat: float

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "request_rate": self.request_rate,
            "node_rate": self.node_rate,
            "failure_rate": self.failure_rate,
            "latency_p95_seconds": self.latency.p95,
            "queue_depth": self.queue_depth,
            "queue_depth_p95": self.queue_depth_p95,
            "heat": self.heat,
        }


@dataclass(frozen=True)
class FleetHealth:
    """The whole fleet's windowed state at one monitor tick.

    ``interval_*`` fields cover only the tick just consumed (the delta
    stream the SLO engine folds into its own burn windows); the windowed
    fields aggregate the monitor's full ``window_seconds``.
    """

    at: float
    plan_version: int
    per_shard: dict[int, ShardHealth]
    latency: LatencySummary
    request_rate: float
    failure_rate: float
    transport_retry_rate: float
    transport_failover_rate: float
    remote_byte_rate: float
    interval_latency_samples: tuple[float, ...]
    interval_completed: int
    interval_failed: int

    def hottest_shards(self) -> list[int]:
        """Shard ids by descending heat, ties to the lower id."""
        return [
            shard_id
            for shard_id, _ in sorted(
                self.per_shard.items(), key=lambda item: (-item[1].heat, item[0])
            )
        ]

    def as_dict(self) -> dict:
        return {
            "at": self.at,
            "plan_version": self.plan_version,
            "latency_p95_seconds": self.latency.p95,
            "request_rate": self.request_rate,
            "failure_rate": self.failure_rate,
            "transport_retry_rate": self.transport_retry_rate,
            "transport_failover_rate": self.transport_failover_rate,
            "remote_byte_rate": self.remote_byte_rate,
            "interval_completed": self.interval_completed,
            "interval_failed": self.interval_failed,
            "per_shard": {
                str(shard): health.as_dict()
                for shard, health in sorted(self.per_shard.items())
            },
        }


class _ShardWindows:
    """The per-shard window set behind :class:`ShardHealth`."""

    def __init__(self, config: MonitorConfig, clock: Clock) -> None:
        def window() -> SlidingWindow:
            return SlidingWindow(
                config.window_seconds,
                num_buckets=config.num_buckets,
                clock=clock,
                sample_cap=config.sample_cap,
            )

        self.requests = window()
        self.failures = window()
        self.nodes = window()
        self.latency = window()
        self.queue_depth = window()


class HealthMonitor:
    """Cadenced windowed view over a :class:`~repro.shard.router.ShardRouter`.

    The monitor is pull-based and explicit: :meth:`tick` takes one
    snapshot *now*, :meth:`maybe_tick` honours ``config.cadence_seconds``
    — there is no background thread, so under a
    :class:`~repro.serving.clock.FakeClock` the whole monitoring loop is
    deterministic and tests drive it inline with the workload.

    Each tick consumes the router's interval windows (per-shard serving
    deltas since the previous tick), folds them into the per-shard and
    fleet :class:`SlidingWindow` sets, diffs the cumulative
    transport/traffic counters, publishes every reading as a ``*_window``
    gauge in the registry, and returns the assembled
    :class:`FleetHealth`.
    """

    def __init__(
        self,
        router,
        config: MonitorConfig | None = None,
        *,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.router = router
        self.config = config if config is not None else MonitorConfig()
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        if registry is not None:
            self.registry = registry
        else:
            self.registry = getattr(router, "registry", None) or MetricsRegistry()
        self._lock = threading.Lock()
        self._shards: dict[int, _ShardWindows] = {}
        self._fleet_latency = self._window()
        self._fleet_requests = self._window()
        self._fleet_failures = self._window()
        self._retries = self._window()
        self._failovers = self._window()
        self._remote_bytes = self._window()
        self._last_transport: dict[str, float] | None = None
        self._last_tick: float | None = None
        self.ticks = 0
        self.last_health: FleetHealth | None = None

    def _window(self) -> SlidingWindow:
        return SlidingWindow(
            self.config.window_seconds,
            num_buckets=self.config.num_buckets,
            clock=self.clock,
            sample_cap=self.config.sample_cap,
        )

    # ------------------------------------------------------------------ #
    def maybe_tick(self) -> FleetHealth | None:
        """:meth:`tick` if the cadence has elapsed since the last one."""
        with self._lock:
            due = (
                self._last_tick is None
                or self.clock.now() - self._last_tick >= self.config.cadence_seconds
            )
        return self.tick() if due else None

    def tick(self) -> FleetHealth:
        """Take one monitoring snapshot and publish the windowed gauges."""
        with self._lock:
            return self._tick_locked()

    def _tick_locked(self) -> FleetHealth:
        now = self.clock.now()
        intervals = self.router.interval_stats()
        snapshot = self.router.stats()
        traffic = self.router.traffic()

        interval_samples: list[float] = []
        interval_completed = 0
        interval_failed = 0
        per_shard: dict[int, ShardHealth] = {}
        for shard_id, interval in sorted(intervals.items()):
            windows = self._shards.get(shard_id)
            if windows is None:
                windows = self._shards[shard_id] = _ShardWindows(
                    self.config, self.clock
                )
            windows.requests.add(interval.requests_completed)
            windows.failures.add(interval.requests_failed)
            windows.nodes.add(interval.nodes_completed)
            windows.queue_depth.observe(float(interval.queue_depth))
            for sample in interval.latency_samples:
                windows.latency.observe(sample)
                self._fleet_latency.observe(sample)
                interval_samples.append(sample)
            interval_completed += interval.requests_completed
            interval_failed += interval.requests_failed
            per_shard[shard_id] = ShardHealth(
                shard_id=shard_id,
                request_rate=windows.requests.rate(),
                node_rate=windows.nodes.rate(),
                failure_rate=windows.failures.rate(),
                latency=windows.latency.summary(),
                queue_depth=float(interval.queue_depth),
                queue_depth_p95=windows.queue_depth.summary().p95,
                heat=windows.nodes.rate(),
            )
        self._fleet_requests.add(interval_completed)
        self._fleet_failures.add(interval_failed)

        # Transport/traffic counters have no interval surface; window them
        # as deltas of the cumulative totals, baselined at the first tick.
        shard_traffic = traffic.get("shard_traffic", {})
        remote_bytes = sum(
            detail.get("remote_bytes", 0)
            for detail in shard_traffic.values()
            if isinstance(detail, dict)
        )
        current = {
            "retries": float(snapshot.transport_retries),
            "failovers": float(snapshot.transport_failovers),
            "remote_bytes": float(remote_bytes),
        }
        if self._last_transport is not None:
            self._retries.add(
                max(current["retries"] - self._last_transport["retries"], 0.0)
            )
            self._failovers.add(
                max(current["failovers"] - self._last_transport["failovers"], 0.0)
            )
            self._remote_bytes.add(
                max(
                    current["remote_bytes"] - self._last_transport["remote_bytes"],
                    0.0,
                )
            )
        self._last_transport = current

        health = FleetHealth(
            at=now,
            plan_version=snapshot.plan_version,
            per_shard=per_shard,
            latency=self._fleet_latency.summary(),
            request_rate=self._fleet_requests.rate(),
            failure_rate=self._fleet_failures.rate(),
            transport_retry_rate=self._retries.rate(),
            transport_failover_rate=self._failovers.rate(),
            remote_byte_rate=self._remote_bytes.rate(),
            interval_latency_samples=tuple(interval_samples),
            interval_completed=interval_completed,
            interval_failed=interval_failed,
        )
        self._publish(health)
        self._last_tick = now
        self.ticks += 1
        self.last_health = health
        return health

    # ------------------------------------------------------------------ #
    def _publish(self, health: FleetHealth) -> None:
        registry = self.registry
        registry.set_help(
            "repro_request_rate_window",
            "Completed requests per second over the monitor window",
        )
        registry.set_help(
            "repro_latency_p95_window_seconds",
            "p95 request latency over the monitor window",
        )
        registry.set_help(
            "repro_shard_heat_window",
            "Windowed rows served per second, the rebalance ranking key",
        )
        registry.gauge("repro_request_rate_window").set(health.request_rate)
        registry.gauge("repro_failure_rate_window").set(health.failure_rate)
        registry.gauge("repro_latency_p50_window_seconds").set(health.latency.p50)
        registry.gauge("repro_latency_p95_window_seconds").set(health.latency.p95)
        registry.gauge("repro_latency_p99_window_seconds").set(health.latency.p99)
        registry.gauge("repro_transport_retry_rate_window").set(
            health.transport_retry_rate
        )
        registry.gauge("repro_transport_failover_rate_window").set(
            health.transport_failover_rate
        )
        registry.gauge("repro_remote_byte_rate_window").set(health.remote_byte_rate)
        for shard_id, shard in health.per_shard.items():
            labels = {"shard": str(shard_id)}
            registry.gauge("repro_shard_request_rate_window", **labels).set(
                shard.request_rate
            )
            registry.gauge("repro_shard_node_rate_window", **labels).set(
                shard.node_rate
            )
            registry.gauge("repro_shard_failure_rate_window", **labels).set(
                shard.failure_rate
            )
            registry.gauge("repro_shard_latency_p95_window_seconds", **labels).set(
                shard.latency.p95
            )
            registry.gauge("repro_shard_queue_depth_window", **labels).set(
                shard.queue_depth
            )
            registry.gauge("repro_shard_heat_window", **labels).set(shard.heat)

    # ------------------------------------------------------------------ #
    def shard_heat(self) -> dict[int, float]:
        """Windowed heat per shard (empty before the first tick)."""
        with self._lock:
            return {
                shard_id: windows.nodes.rate()
                for shard_id, windows in sorted(self._shards.items())
            }

    def describe(self) -> dict:
        """Monitor configuration and tick accounting."""
        with self._lock:
            return {
                "window_seconds": self.config.window_seconds,
                "num_buckets": self.config.num_buckets,
                "cadence_seconds": self.config.cadence_seconds,
                "ticks": self.ticks,
                "last_tick_at": self._last_tick,
                "shards": sorted(self._shards),
            }
