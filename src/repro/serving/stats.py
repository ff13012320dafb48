"""Observability surface of the serving subsystem.

:class:`ServingStats` accumulates per-request latencies, per-worker
MAC/timing breakdowns and batch/cache/queue counters as responses complete,
folding each completion into two tallies of the same shape: a cumulative
one and an interval one that the monitor consumes tick by tick.
:meth:`ServingStats.snapshot` and :meth:`ServingStats.interval_snapshot`
render them through one renderer into an immutable
:class:`ServingStatsSnapshot` with the numbers an operator watches: nodes/s
throughput, p50/p95/p99 latency, cache hit rate, queue depth and
backpressure counts.

The per-worker breakdowns exist for more than dashboards: summing them must
reproduce the sequential accounting exactly (MACs are deterministic per
batch), which is how the serving benchmark proves the pool computes the same
work as ``NAIPredictor.predict`` — see ``tests/core/test_breakdowns.py``.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from dataclasses import dataclass, field, fields

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
    macs_per_request: float = 0.0
    #: Raw numerator/denominator behind ``shared_row_fraction`` — the fleet
    #: merge needs them to recompute the ratio exactly across shards.
    wave_shared_row_macs: float = 0.0
    wave_total_row_macs: float = 0.0
    #: Raw per-request latencies of an *interval* snapshot (empty on the
    #: cumulative one), captured in the same lock hold as its counters so
    #: the monitor never counts a request whose latency it did not see.
    latency_samples: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready dictionary (used by the serving benchmark report).

        Every scalar field under its own name, plus the structured ones
        flattened to the keys below; the raw samples are not exported.
        """
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in _STRUCTURED_FIELDS
        }
        out.update(
            latency_ms=self.latency.scaled(1e3).as_dict(),
            queue_wait_ms=self.queue_wait.scaled(1e3).as_dict(),
            sampling_seconds=self.timings.sampling,
            total_seconds=self.timings.total,
            computed_macs=self.macs.total,
            replayed_macs=self.replayed_macs.total,
            per_worker={
                str(worker): {"batches": stats.batches, "nodes": stats.nodes}
                for worker, stats in sorted(self.per_worker.items())
            },
        )
        return out


#: Snapshot fields ``as_dict`` flattens into other keys (or leaves out).
_STRUCTURED_FIELDS = frozenset({
    "latency", "queue_wait", "timings", "macs", "replayed_macs", "per_worker",
    "latency_samples",
})


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or ``0.0`` for an empty denominator."""
    return numerator / denominator if denominator > 0 else 0.0


#: The instantaneous queue/cache levels both snapshots report, at their
#: values for a server without a queue reading or cache.
_GAUGE_DEFAULTS = dict(
    queue_depth=0,
    queue_max_depth=0,
    requests_rejected=0,
    requests_shed=0,
    cache_hits=0,
    cache_misses=0,
    cache_entries=0,
    result_cache_hits=0,
    result_cache_misses=0,
    result_cache_entries=0,
    batch_policy="static",
    controller_adjustments=0,
)


def _gauge_fields(**gauges) -> dict:
    """Snapshot fields for the instantaneous queue/cache levels.

    The one place the gauges are named, so the cumulative and the interval
    snapshot cannot drift apart on which of them they report.
    """
    out = {**_GAUGE_DEFAULTS, **gauges}
    out["cache_hit_rate"] = ratio(out["cache_hits"], out["cache_hits"] + out["cache_misses"])
    out["result_cache_hit_rate"] = ratio(
        out["result_cache_hits"], out["result_cache_hits"] + out["result_cache_misses"]
    )
    return out


#: Samples (latencies, queue waits, batch and wave widths) the cumulative
#: snapshot summarises: the most recent ones; its counters stay exact.
LATENCY_SAMPLE_CAP = 100_000


class _Tally:
    """Counters, breakdowns and sample buffers of one stats window.

    :class:`ServingStats` folds every completion into two of these: the
    cumulative tally (capped sample deques) and the interval tally (plain
    lists), which :meth:`ServingStats.reset_window` swaps for a fresh one.
    """

    def __init__(self, opened: float, new_buffer=list) -> None:
        self.opened = opened
        self.latencies = new_buffer()
        self.queue_waits = new_buffer()
        self.batch_widths = new_buffer()
        self.macs = MACBreakdown()
        self.replayed_macs = MACBreakdown()
        self.timings = TimingBreakdown()
        self.requests_completed = 0
        self.requests_failed = 0
        self.nodes_completed = 0
        self.batches_dispatched = 0
        self.batch_requests = 0
        self.requests_replayed = 0
        self.nodes_replayed = 0
        self.batches_replayed = 0

    def add_batch(self, num_nodes, num_requests, macs, timings, latencies, queue_waits):
        self.macs = self.macs.merged_with(macs)
        self.timings = self.timings.merged_with(timings)
        self.batches_dispatched += 1
        self.batch_requests += num_requests
        self._complete(num_nodes, num_requests, latencies, queue_waits)

    def add_replay(self, num_nodes, num_requests, macs, latencies, queue_waits):
        self.replayed_macs = self.replayed_macs.merged_with(macs)
        self.batches_replayed += 1
        self.requests_replayed += num_requests
        self.nodes_replayed += num_nodes
        self._complete(num_nodes, num_requests, latencies, queue_waits)

    def _complete(self, num_nodes, num_requests, latencies, queue_waits):
        self.requests_completed += num_requests
        self.nodes_completed += num_nodes
        # A replayed batch was still *formed* by the batcher — its width
        # belongs in the controller's batch-width distribution.
        self.batch_widths.append(num_nodes)
        self.latencies.extend(latencies)
        self.queue_waits.extend(queue_waits)

    def render(self, throughput: float, gauges: dict, **extras) -> ServingStatsSnapshot:
        """The snapshot of this window; ``extras`` are window-specific fields."""
        batches = self.batches_dispatched
        widths = latency_summary(self.batch_widths)
        return ServingStatsSnapshot(
            **_gauge_fields(**gauges),
            requests_completed=self.requests_completed,
            requests_failed=self.requests_failed,
            nodes_completed=self.nodes_completed,
            batches_dispatched=batches,
            avg_batch_nodes=ratio(self.nodes_completed, batches),
            avg_batch_requests=ratio(self.batch_requests, batches),
            batch_width_p50=widths.p50,
            batch_width_p95=widths.p95,
            throughput_nodes_per_second=throughput,
            latency=latency_summary(self.latencies),
            queue_wait=latency_summary(self.queue_waits),
            macs=self.macs.merged_with(MACBreakdown()),
            timings=self.timings.merged_with(TimingBreakdown()),
            requests_replayed=self.requests_replayed,
            nodes_replayed=self.nodes_replayed,
            batches_replayed=self.batches_replayed,
            replayed_macs=self.replayed_macs.merged_with(MACBreakdown()),
            **extras,
        )


class ServingStats:
    """Mutable, thread-safe accumulator behind the snapshot surface."""

    def __init__(self, *, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._lock = threading.Lock()
        now = self.clock.now()
        self._total = _Tally(now, lambda: deque(maxlen=LATENCY_SAMPLE_CAP))
        self._window = _Tally(now)
        self._per_worker: dict[int, WorkerStats] = {}
        # Cumulative-only counters, keyed by their snapshot field names.
        self._prefetch = dict(
            prefetch_issued=0,
            prefetch_completed=0,
            prefetch_cancelled=0,
            prefetch_hits=0,
            prefetch_fetch_seconds=0.0,
            prefetch_overlap_seconds=0.0,
        )
        self._waves = dict(
            waves_dispatched=0,
            wave_members=0,
            wave_shared_row_macs=0.0,
            wave_total_row_macs=0.0,
        )
        self._wave_widths: deque[int] = deque(maxlen=LATENCY_SAMPLE_CAP)
        self._first_activity: float | None = None
        self._last_activity: float | None = None

    def reset_window(self) -> None:
        """Open a fresh interval window (see :meth:`interval_snapshot`).

        The cumulative accumulators — and the since-first-request
        throughput window of :meth:`snapshot` — are untouched; only the
        interval state is cleared.
        """
        now = self.clock.now()
        with self._lock:
            self._window = _Tally(now)

    def mark_submission(self) -> None:
        """Open the throughput window at the first accepted request."""
        now = self.clock.now()
        with self._lock:
            if self._first_activity is None:
                self._first_activity = now

    def _touch_locked(self, now: float) -> None:
        if self._first_activity is None:
            self._first_activity = now
        self._last_activity = now

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
            for tally in (self._total, self._window):
                tally.add_batch(
                    num_nodes, num_requests, macs, timings, latencies, queue_waits
                )
            self._touch_locked(now)

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
            for tally in (self._total, self._window):
                tally.add_replay(num_nodes, num_requests, macs, latencies, queue_waits)
            self._touch_locked(now)

    def record_prefetch_issued(self) -> None:
        """Count one micro-batch handed to the prefetch pipeline."""
        with self._lock:
            self._prefetch["prefetch_issued"] += 1

    def record_prefetch_done(
        self, *, fetch_seconds: float, overlap_seconds: float
    ) -> None:
        """Fold one completed prefetch in; positive overlap is a hit.

        Prefetch accounting is cumulative only (it has no interval window):
        the pipeline is an execution detail, not a per-tick load signal.
        """
        with self._lock:
            prefetch = self._prefetch
            prefetch["prefetch_completed"] += 1
            prefetch["prefetch_fetch_seconds"] += fetch_seconds
            prefetch["prefetch_overlap_seconds"] += overlap_seconds
            if overlap_seconds > 0:
                prefetch["prefetch_hits"] += 1

    def record_prefetch_cancelled(self, count: int) -> None:
        """Count prefetches cancelled by pipeline shutdown."""
        with self._lock:
            self._prefetch["prefetch_cancelled"] += count

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
            waves = self._waves
            waves["waves_dispatched"] += 1
            waves["wave_members"] += width
            waves["wave_shared_row_macs"] += shared_row_macs
            waves["wave_total_row_macs"] += total_row_macs
            self._wave_widths.append(width)

    def record_failure(self, num_requests: int) -> None:
        with self._lock:
            self._total.requests_failed += num_requests
            self._window.requests_failed += num_requests
            self._last_activity = self.clock.now()

    def interval_snapshot(self, *, reset: bool = True, **gauges) -> ServingStatsSnapshot:
        """Render the window opened by the last :meth:`reset_window`.

        Counters, latency/queue-wait summaries and MAC totals cover only
        the interval, and ``latency_samples`` carries its raw per-request
        latencies — all read in one lock hold, so nothing recorded between
        two reads can be counted without its samples.  Throughput is
        interval nodes over interval wall time (``now - window opened``),
        so an empty window reports zeros instead of dividing by nothing.
        ``reset=True`` (default) opens a fresh window afterwards, making
        back-to-back calls a delta stream with no external bookkeeping.
        ``gauges`` are instantaneous levels, passed through exactly as in
        :meth:`snapshot` (see :func:`_gauge_fields`).
        """
        now = self.clock.now()
        with self._lock:
            window = self._window
            if reset:
                self._window = _Tally(now)
            return window.render(
                ratio(window.nodes_completed, now - window.opened),
                gauges,
                per_worker={},
                latency_samples=tuple(window.latencies),
            )

    def snapshot(self, **gauges) -> ServingStatsSnapshot:
        """Render the current counters (plus queue/cache ``gauges``) immutably."""
        with self._lock:
            total = self._total
            elapsed = 0.0
            if self._first_activity is not None and self._last_activity is not None:
                elapsed = self._last_activity - self._first_activity
            wave_widths = latency_summary(self._wave_widths)
            waves = self._waves
            return total.render(
                ratio(total.nodes_completed, elapsed),
                gauges,
                per_worker=copy.deepcopy(self._per_worker),
                wave_width_p50=wave_widths.p50,
                wave_width_p95=wave_widths.p95,
                shared_row_fraction=ratio(
                    waves["wave_shared_row_macs"], waves["wave_total_row_macs"]
                ),
                macs_per_request=ratio(
                    total.macs.total,
                    total.requests_completed - total.requests_replayed,
                ),
                **waves,
                **self._prefetch,
            )
