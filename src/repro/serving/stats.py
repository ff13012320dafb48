"""Observability surface of the serving subsystem.

:class:`ServingStats` accumulates per-request latencies, per-worker
MAC/timing breakdowns and batch/cache/queue counters as responses complete;
:meth:`ServingStats.snapshot` renders them into an immutable
:class:`ServingStatsSnapshot` with the numbers an operator watches: nodes/s
throughput, p50/p95/p99 latency, cache hit rate, queue depth and
backpressure counts.

The per-worker breakdowns exist for more than dashboards: summing them must
reproduce the sequential accounting exactly (MACs are deterministic per
batch), which is how the serving benchmark proves the pool computes the same
work as ``NAIPredictor.predict`` — see ``tests/core/test_breakdowns.py``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from ..core.inference import MACBreakdown, TimingBreakdown
from ..metrics.timing import LatencySummary, latency_summary
from .clock import MONOTONIC_CLOCK, Clock


@dataclass
class WorkerStats:
    """Work attributed to one pool worker."""

    batches: int = 0
    nodes: int = 0
    macs: MACBreakdown = field(default_factory=MACBreakdown)
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)


@dataclass(frozen=True)
class ServingStatsSnapshot:
    """Immutable view of the serving metrics at one instant."""

    requests_completed: int
    requests_failed: int
    requests_rejected: int
    requests_shed: int
    nodes_completed: int
    batches_dispatched: int
    avg_batch_nodes: float
    avg_batch_requests: float
    #: Distribution of dispatched batch widths (nodes per micro-batch) and
    #: the batching controller's activity: which policy steered the batcher
    #: and how many times it moved the limits.  Static policies report zero
    #: adjustments by construction.
    batch_width_p50: float
    batch_width_p95: float
    batch_policy: str
    controller_adjustments: int
    throughput_nodes_per_second: float
    latency: LatencySummary
    queue_wait: LatencySummary
    queue_depth: int
    queue_max_depth: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    cache_entries: int
    macs: MACBreakdown
    timings: TimingBreakdown
    per_worker: dict[int, WorkerStats]
    #: Result-cache replay accounting.  ``macs`` above counts only work that
    #: actually executed on a worker; ``replayed_macs`` is the recorded cost
    #: of the batches answered from the result cache instead — kept separate
    #: so cached deployments cannot inflate their computed-MAC savings.
    requests_replayed: int = 0
    nodes_replayed: int = 0
    batches_replayed: int = 0
    replayed_macs: MACBreakdown = field(default_factory=MACBreakdown)
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    result_cache_hit_rate: float = 0.0
    result_cache_entries: int = 0
    #: Prefetch-pipeline accounting (``ServingConfig.prefetch_depth > 0``).
    #: ``prefetch_hits`` counts completed prefetches whose fetch overlapped
    #: nonzero compute busy time — the stalls the pipeline actually hid;
    #: ``prefetch_overlap_seconds`` is that overlap integrated over all
    #: fetches, against ``prefetch_fetch_seconds`` of total fetch wall time.
    prefetch_issued: int = 0
    prefetch_completed: int = 0
    prefetch_cancelled: int = 0
    prefetch_hits: int = 0
    prefetch_fetch_seconds: float = 0.0
    prefetch_overlap_seconds: float = 0.0
    #: Wave-scheduler accounting (``ServingConfig.wave_width > 1``).  A wave
    #: fuses ``wave_width_p50``-ish micro-batches into one union sweep;
    #: ``shared_row_fraction`` is the MAC-weighted fraction of propagation
    #: row work that two or more members needed (the deduplicated share),
    #: and ``macs_per_request`` divides the computed MAC total over the
    #: computed (non-replayed) requests — the wave bench's headline number.
    waves_dispatched: int = 0
    wave_members: int = 0
    wave_width_p50: float = 0.0
    wave_width_p95: float = 0.0
    shared_row_fraction: float = 0.0
    cache_subset_hits: int = 0
    macs_per_request: float = 0.0
    #: Raw numerator/denominator behind ``shared_row_fraction`` — the fleet
    #: merge needs them to recompute the ratio exactly across shards.
    wave_shared_row_macs: float = 0.0
    wave_total_row_macs: float = 0.0

    def as_dict(self) -> dict:
        """JSON-ready dictionary (used by the serving benchmark report)."""
        return {
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "requests_rejected": self.requests_rejected,
            "requests_shed": self.requests_shed,
            "nodes_completed": self.nodes_completed,
            "batches_dispatched": self.batches_dispatched,
            "avg_batch_nodes": self.avg_batch_nodes,
            "avg_batch_requests": self.avg_batch_requests,
            "batch_width_p50": self.batch_width_p50,
            "batch_width_p95": self.batch_width_p95,
            "batch_policy": self.batch_policy,
            "controller_adjustments": self.controller_adjustments,
            "throughput_nodes_per_second": self.throughput_nodes_per_second,
            "latency_ms": self.latency.scaled(1e3).as_dict(),
            "queue_wait_ms": self.queue_wait.scaled(1e3).as_dict(),
            "queue_depth": self.queue_depth,
            "queue_max_depth": self.queue_max_depth,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_entries": self.cache_entries,
            "sampling_seconds": self.timings.sampling,
            "total_seconds": self.timings.total,
            "requests_replayed": self.requests_replayed,
            "nodes_replayed": self.nodes_replayed,
            "batches_replayed": self.batches_replayed,
            "computed_macs": self.macs.total,
            "replayed_macs": self.replayed_macs.total,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "result_cache_hit_rate": self.result_cache_hit_rate,
            "result_cache_entries": self.result_cache_entries,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_completed": self.prefetch_completed,
            "prefetch_cancelled": self.prefetch_cancelled,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_fetch_seconds": self.prefetch_fetch_seconds,
            "prefetch_overlap_seconds": self.prefetch_overlap_seconds,
            "waves_dispatched": self.waves_dispatched,
            "wave_members": self.wave_members,
            "wave_width_p50": self.wave_width_p50,
            "wave_width_p95": self.wave_width_p95,
            "shared_row_fraction": self.shared_row_fraction,
            "cache_subset_hits": self.cache_subset_hits,
            "macs_per_request": self.macs_per_request,
            "wave_shared_row_macs": self.wave_shared_row_macs,
            "wave_total_row_macs": self.wave_total_row_macs,
            "per_worker": {
                str(worker): {"batches": stats.batches, "nodes": stats.nodes}
                for worker, stats in sorted(self.per_worker.items())
            },
        }


def _gauge_fields(
    *,
    queue_depth: int = 0,
    queue_max_depth: int = 0,
    requests_rejected: int = 0,
    requests_shed: int = 0,
    cache_hits: int = 0,
    cache_misses: int = 0,
    cache_entries: int = 0,
    cache_subset_hits: int = 0,
    result_cache_hits: int = 0,
    result_cache_misses: int = 0,
    result_cache_entries: int = 0,
    batch_policy: str = "static",
    controller_adjustments: int = 0,
) -> dict:
    """Snapshot fields for the instantaneous queue/cache levels.

    The one place the gauges are named, so the cumulative and the interval
    snapshot cannot drift apart on which of them they report.
    """
    lookups = cache_hits + cache_misses
    result_lookups = result_cache_hits + result_cache_misses
    return dict(
        queue_depth=queue_depth,
        queue_max_depth=queue_max_depth,
        requests_rejected=requests_rejected,
        requests_shed=requests_shed,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        cache_hit_rate=cache_hits / lookups if lookups else 0.0,
        cache_entries=cache_entries,
        cache_subset_hits=cache_subset_hits,
        result_cache_hits=result_cache_hits,
        result_cache_misses=result_cache_misses,
        result_cache_hit_rate=result_cache_hits / result_lookups if result_lookups else 0.0,
        result_cache_entries=result_cache_entries,
        batch_policy=batch_policy,
        controller_adjustments=controller_adjustments,
    )


class ServingStats:
    """Mutable, thread-safe accumulator behind the snapshot surface."""

    def __init__(
        self, latency_sample_cap: int = 100_000, *, clock: Clock | None = None
    ) -> None:
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=latency_sample_cap)
        self._queue_waits: deque[float] = deque(maxlen=latency_sample_cap)
        self._batch_widths: deque[int] = deque(maxlen=latency_sample_cap)
        self._per_worker: dict[int, WorkerStats] = {}
        self._macs = MACBreakdown()
        self._timings = TimingBreakdown()
        self.requests_completed = 0
        self.requests_failed = 0
        self.nodes_completed = 0
        self.batches_dispatched = 0
        self.batch_requests_total = 0
        self.requests_replayed = 0
        self.nodes_replayed = 0
        self.batches_replayed = 0
        self._replayed_macs = MACBreakdown()
        self.prefetch_issued = 0
        self.prefetch_completed = 0
        self.prefetch_cancelled = 0
        self.prefetch_hits = 0
        self._prefetch_fetch_seconds = 0.0
        self._prefetch_overlap_seconds = 0.0
        self.waves_dispatched = 0
        self.wave_members = 0
        self._wave_widths: deque[int] = deque(maxlen=latency_sample_cap)
        self._wave_shared_row_macs = 0.0
        self._wave_total_row_macs = 0.0
        self._first_activity: float | None = None
        self._last_activity: float | None = None
        self._reset_window_locked(self.clock.now())

    def _reset_window_locked(self, now: float) -> None:
        self._win_opened = now
        self._win_latencies: list[float] = []
        self._win_queue_waits: list[float] = []
        self._win_widths: list[int] = []
        self._win_macs = MACBreakdown()
        self._win_replayed_macs = MACBreakdown()
        self._win_timings = TimingBreakdown()
        self._win_requests_completed = 0
        self._win_requests_failed = 0
        self._win_nodes_completed = 0
        self._win_batches_dispatched = 0
        self._win_batch_requests = 0
        self._win_requests_replayed = 0
        self._win_nodes_replayed = 0
        self._win_batches_replayed = 0

    def reset_window(self) -> None:
        """Open a fresh interval window (see :meth:`interval_snapshot`).

        The cumulative accumulators — and the since-first-request
        throughput window of :meth:`snapshot` — are untouched; only the
        interval state is cleared.
        """
        now = self.clock.now()
        with self._lock:
            self._reset_window_locked(now)

    def mark_submission(self) -> None:
        """Open the throughput window at the first accepted request."""
        now = self.clock.now()
        with self._lock:
            if self._first_activity is None:
                self._first_activity = now

    def record_batch(
        self,
        *,
        worker_id: int,
        num_nodes: int,
        num_requests: int,
        macs: MACBreakdown,
        timings: TimingBreakdown,
        latencies: list[float],
        queue_waits: list[float],
    ) -> None:
        """Fold one completed micro-batch into the accumulators."""
        now = self.clock.now()
        with self._lock:
            worker = self._per_worker.setdefault(worker_id, WorkerStats())
            worker.batches += 1
            worker.nodes += num_nodes
            worker.macs = worker.macs.merged_with(macs)
            worker.timings = worker.timings.merged_with(timings)
            self._macs = self._macs.merged_with(macs)
            self._timings = self._timings.merged_with(timings)
            self.batches_dispatched += 1
            self.batch_requests_total += num_requests
            self.requests_completed += num_requests
            self.nodes_completed += num_nodes
            self._batch_widths.append(num_nodes)
            self._latencies.extend(latencies)
            self._queue_waits.extend(queue_waits)
            self._win_macs = self._win_macs.merged_with(macs)
            self._win_timings = self._win_timings.merged_with(timings)
            self._win_batches_dispatched += 1
            self._win_batch_requests += num_requests
            self._win_requests_completed += num_requests
            self._win_nodes_completed += num_nodes
            self._win_widths.append(num_nodes)
            self._win_latencies.extend(latencies)
            self._win_queue_waits.extend(queue_waits)
            if self._first_activity is None:
                self._first_activity = now
            self._last_activity = now

    def record_replayed_batch(
        self,
        *,
        num_nodes: int,
        num_requests: int,
        macs: MACBreakdown,
        latencies: list[float],
        queue_waits: list[float],
    ) -> None:
        """Fold one result-cache replay into the accumulators.

        Replays complete requests (their latencies count) but execute no
        worker MACs; the recorded breakdown of the original execution lands
        in the *replayed* accumulator so computed-MAC totals stay honest.
        """
        now = self.clock.now()
        with self._lock:
            self.batches_replayed += 1
            self.requests_replayed += num_requests
            self.nodes_replayed += num_nodes
            self.requests_completed += num_requests
            self.nodes_completed += num_nodes
            # A replayed batch was still *formed* by the batcher — its width
            # belongs in the controller's batch-width distribution.
            self._batch_widths.append(num_nodes)
            self._replayed_macs = self._replayed_macs.merged_with(macs)
            self._latencies.extend(latencies)
            self._queue_waits.extend(queue_waits)
            self._win_batches_replayed += 1
            self._win_requests_replayed += num_requests
            self._win_nodes_replayed += num_nodes
            self._win_requests_completed += num_requests
            self._win_nodes_completed += num_nodes
            self._win_widths.append(num_nodes)
            self._win_replayed_macs = self._win_replayed_macs.merged_with(macs)
            self._win_latencies.extend(latencies)
            self._win_queue_waits.extend(queue_waits)
            if self._first_activity is None:
                self._first_activity = now
            self._last_activity = now

    def record_prefetch_issued(self) -> None:
        """Count one micro-batch handed to the prefetch pipeline."""
        with self._lock:
            self.prefetch_issued += 1

    def record_prefetch_done(
        self, *, fetch_seconds: float, overlap_seconds: float
    ) -> None:
        """Fold one completed prefetch in; positive overlap is a hit.

        Prefetch accounting is cumulative only (it has no interval window):
        the pipeline is an execution detail, not a per-tick load signal.
        """
        with self._lock:
            self.prefetch_completed += 1
            self._prefetch_fetch_seconds += fetch_seconds
            self._prefetch_overlap_seconds += overlap_seconds
            if overlap_seconds > 0:
                self.prefetch_hits += 1

    def record_prefetch_cancelled(self, count: int) -> None:
        """Count prefetches cancelled by pipeline shutdown."""
        with self._lock:
            self.prefetch_cancelled += count

    def record_wave(
        self, *, width: int, shared_row_macs: float, total_row_macs: float
    ) -> None:
        """Fold one dispatched wave into the accumulators.

        Like prefetch accounting this is cumulative only: the member
        micro-batches themselves still flow through :meth:`record_batch`
        (with their attributed MAC shares), so every interval-window number
        keeps its meaning; the wave counters describe how the members were
        *grouped*.
        """
        with self._lock:
            self.waves_dispatched += 1
            self.wave_members += width
            self._wave_widths.append(width)
            self._wave_shared_row_macs += shared_row_macs
            self._wave_total_row_macs += total_row_macs

    def record_failure(self, num_requests: int) -> None:
        with self._lock:
            self.requests_failed += num_requests
            self._win_requests_failed += num_requests
            self._last_activity = self.clock.now()

    def interval_latency_samples(self) -> tuple[float, ...]:
        """Raw per-request latencies of the current interval window.

        Non-destructive — pair with :meth:`interval_snapshot` (or
        :meth:`reset_window`) to consume the interval.
        """
        with self._lock:
            return tuple(self._win_latencies)

    def interval_snapshot(self, *, reset: bool = True, **gauges) -> ServingStatsSnapshot:
        """Render the window opened by the last :meth:`reset_window`.

        Counters, latency/queue-wait summaries and MAC totals cover only
        the interval; throughput is interval nodes over interval wall time
        (``now - window opened``), so an empty window reports zeros instead
        of dividing by nothing.  ``reset=True`` (default) opens a fresh
        window afterwards, making back-to-back calls a delta stream with no
        external bookkeeping.  ``gauges`` are instantaneous levels, passed
        through exactly as in :meth:`snapshot` (see :func:`_gauge_fields`).
        """
        now = self.clock.now()
        with self._lock:
            window = max(now - self._win_opened, 0.0)
            batches = self._win_batches_dispatched
            width_summary = latency_summary(self._win_widths)
            snapshot = ServingStatsSnapshot(
                **_gauge_fields(**gauges),
                requests_completed=self._win_requests_completed,
                requests_failed=self._win_requests_failed,
                nodes_completed=self._win_nodes_completed,
                batches_dispatched=batches,
                avg_batch_nodes=(
                    self._win_nodes_completed / batches if batches else 0.0
                ),
                avg_batch_requests=(
                    self._win_batch_requests / batches if batches else 0.0
                ),
                batch_width_p50=width_summary.p50,
                batch_width_p95=width_summary.p95,
                throughput_nodes_per_second=(
                    self._win_nodes_completed / window if window > 0 else 0.0
                ),
                latency=latency_summary(self._win_latencies),
                queue_wait=latency_summary(self._win_queue_waits),
                macs=self._win_macs.merged_with(MACBreakdown()),
                timings=self._win_timings.merged_with(TimingBreakdown()),
                per_worker={},
                requests_replayed=self._win_requests_replayed,
                nodes_replayed=self._win_nodes_replayed,
                batches_replayed=self._win_batches_replayed,
                replayed_macs=self._win_replayed_macs.merged_with(MACBreakdown()),
            )
            if reset:
                self._reset_window_locked(now)
            return snapshot

    def snapshot(self, **gauges) -> ServingStatsSnapshot:
        """Render the current counters (plus queue/cache ``gauges``) immutably."""
        with self._lock:
            if self._first_activity is not None and self._last_activity is not None:
                window = self._last_activity - self._first_activity
            else:
                window = 0.0
            throughput = self.nodes_completed / window if window > 0 else 0.0
            batches = self.batches_dispatched
            width_summary = latency_summary(self._batch_widths)
            wave_width_summary = latency_summary(self._wave_widths)
            computed_requests = self.requests_completed - self.requests_replayed
            per_worker = {
                worker: WorkerStats(
                    batches=stats.batches,
                    nodes=stats.nodes,
                    macs=stats.macs.merged_with(MACBreakdown()),
                    timings=stats.timings.merged_with(TimingBreakdown()),
                )
                for worker, stats in self._per_worker.items()
            }
            return ServingStatsSnapshot(
                **_gauge_fields(**gauges),
                requests_completed=self.requests_completed,
                requests_failed=self.requests_failed,
                nodes_completed=self.nodes_completed,
                batches_dispatched=batches,
                avg_batch_nodes=self.nodes_completed / batches if batches else 0.0,
                avg_batch_requests=(
                    self.batch_requests_total / batches if batches else 0.0
                ),
                batch_width_p50=width_summary.p50,
                batch_width_p95=width_summary.p95,
                throughput_nodes_per_second=throughput,
                latency=latency_summary(self._latencies),
                queue_wait=latency_summary(self._queue_waits),
                macs=self._macs.merged_with(MACBreakdown()),
                timings=self._timings.merged_with(TimingBreakdown()),
                per_worker=per_worker,
                requests_replayed=self.requests_replayed,
                nodes_replayed=self.nodes_replayed,
                batches_replayed=self.batches_replayed,
                replayed_macs=self._replayed_macs.merged_with(MACBreakdown()),
                prefetch_issued=self.prefetch_issued,
                prefetch_completed=self.prefetch_completed,
                prefetch_cancelled=self.prefetch_cancelled,
                prefetch_hits=self.prefetch_hits,
                prefetch_fetch_seconds=self._prefetch_fetch_seconds,
                prefetch_overlap_seconds=self._prefetch_overlap_seconds,
                waves_dispatched=self.waves_dispatched,
                wave_members=self.wave_members,
                wave_width_p50=wave_width_summary.p50,
                wave_width_p95=wave_width_summary.p95,
                shared_row_fraction=(
                    self._wave_shared_row_macs / self._wave_total_row_macs
                    if self._wave_total_row_macs
                    else 0.0
                ),
                macs_per_request=(
                    self._macs.total / computed_requests
                    if computed_requests > 0
                    else 0.0
                ),
                wave_shared_row_macs=self._wave_shared_row_macs,
                wave_total_row_macs=self._wave_total_row_macs,
            )
