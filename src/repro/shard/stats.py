"""Cross-shard merging of serving statistics and MAC breakdowns.

Each shard's :class:`~repro.serving.InferenceServer` keeps its own
:class:`~repro.serving.ServingStatsSnapshot`; the router merges them into a
fleet view.  Additive quantities — request/node/batch counters, cache
counters and the MAC/timing breakdowns — sum exactly (MACs are deterministic
per batch, so the merged totals reproduce what one big server would have
accounted).  Latency *percentiles* do not compose across shards — the exact
mixture percentile needs the raw samples — so the merged snapshot reports
the worst per-shard percentile at each level (what an operator alarms on)
alongside the untouched per-shard summaries for anyone who needs the real
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce

from ..core.inference import MACBreakdown, TimingBreakdown
from ..metrics.timing import LatencySummary
from ..serving.stats import ServingStatsSnapshot, ratio


def merge_latency_summaries(summaries: list[LatencySummary]) -> LatencySummary:
    """Conservative fleet summary: count-weighted mean, max percentiles."""
    present = [s for s in summaries if s.count > 0]
    if not present:
        return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
    total = sum(s.count for s in present)
    return LatencySummary(
        count=total,
        mean=sum(s.mean * s.count for s in present) / total,
        p50=max(s.p50 for s in present),
        p95=max(s.p95 for s in present),
        p99=max(s.p99 for s in present),
        max=max(s.max for s in present),
    )


@dataclass(frozen=True)
class ShardedStatsSnapshot:
    """Fleet-level view over per-shard serving snapshots."""

    per_shard: dict[int, ServingStatsSnapshot]
    requests_completed: int
    requests_failed: int
    requests_rejected: int
    requests_shed: int
    requests_replayed: int
    nodes_completed: int
    batches_dispatched: int
    #: Fleet batching-controller view: adjustments sum across shards (each
    #: shard runs its own controller); the width percentiles are the worst
    #: per-shard values, mirroring the latency merge below.
    batch_policy: str
    controller_adjustments: int
    batch_width_p50: float
    batch_width_p95: float
    macs: MACBreakdown
    replayed_macs: MACBreakdown
    timings: TimingBreakdown
    latency: LatencySummary
    cache_hits: int
    cache_misses: int
    result_cache_hits: int
    result_cache_misses: int
    #: Which :class:`~repro.shard.partitioner.ShardPlan` version answered
    #: (the active generation's at snapshot time; see ``rollout_state()``
    #: for per-version accounting during a live rollout).
    plan_version: int = 0
    #: Replication-layer counters, folded in from the store transport's
    #: :class:`~repro.transport.TransportStats` when the fetch path runs
    #: through a :class:`~repro.transport.ReplicatedTransport` (zero on
    #: plain backends).
    transport_retries: int = 0
    transport_failovers: int = 0
    transport_health_transitions: int = 0
    #: Wave-scheduler counters (``ServingConfig.wave_width > 1``): waves and
    #: their members sum across shards; the width percentile is the worst
    #: per-shard value (same convention as the batch widths above);
    #: ``shared_row_fraction``/``macs_per_request`` are fleet-wide ratios
    #: recomputed from the summed numerators/denominators, not averages of
    #: per-shard ratios.
    waves_dispatched: int = 0
    wave_members: int = 0
    wave_width_p50: float = 0.0
    shared_row_fraction: float = 0.0
    macs_per_request: float = 0.0

    @property
    def num_shards(self) -> int:
        return len(self.per_shard)

    @property
    def cache_hit_rate(self) -> float:
        return ratio(self.cache_hits, self.cache_hits + self.cache_misses)

    def as_dict(self) -> dict:
        out = {"num_shards": self.num_shards}
        out.update(
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in _STRUCTURED_FIELDS
        )
        out.update(
            computed_macs=self.macs.total,
            replayed_macs=self.replayed_macs.total,
            total_seconds=self.timings.total,
            latency_ms=self.latency.scaled(1e3).as_dict(),
            cache_hit_rate=self.cache_hit_rate,
            per_shard={
                str(shard): snapshot.as_dict()
                for shard, snapshot in sorted(self.per_shard.items())
            },
        )
        return out


#: Snapshot fields ``as_dict`` flattens into other keys.
_STRUCTURED_FIELDS = frozenset({"per_shard", "macs", "replayed_macs", "timings", "latency"})

#: Counters the fleet view sums over its shards.
SUMMED_FIELDS = (
    "requests_completed",
    "requests_failed",
    "requests_rejected",
    "requests_shed",
    "requests_replayed",
    "nodes_completed",
    "batches_dispatched",
    "controller_adjustments",
    "cache_hits",
    "cache_misses",
    "result_cache_hits",
    "result_cache_misses",
    "waves_dispatched",
    "wave_members",
)
#: Width percentiles the fleet view reports as the worst shard's value.
WORST_SHARD_FIELDS = ("batch_width_p50", "batch_width_p95", "wave_width_p50")


def merge_serving_snapshots(
    snapshots: dict[int, ServingStatsSnapshot],
) -> ShardedStatsSnapshot:
    """Fold per-shard snapshots into one :class:`ShardedStatsSnapshot`."""
    shards = list(snapshots.values())

    def total(name: str):
        return sum(getattr(shard, name) for shard in shards)

    macs = reduce(MACBreakdown.merged_with, (s.macs for s in shards), MACBreakdown())
    return ShardedStatsSnapshot(
        per_shard=dict(snapshots),
        **{name: total(name) for name in SUMMED_FIELDS},
        **{
            name: max((getattr(s, name) for s in shards), default=0.0)
            for name in WORST_SHARD_FIELDS
        },
        batch_policy=next((s.batch_policy for s in shards), "static"),
        macs=macs,
        replayed_macs=reduce(
            MACBreakdown.merged_with, (s.replayed_macs for s in shards), MACBreakdown()
        ),
        timings=reduce(
            TimingBreakdown.merged_with, (s.timings for s in shards), TimingBreakdown()
        ),
        latency=merge_latency_summaries([s.latency for s in shards]),
        shared_row_fraction=ratio(
            total("wave_shared_row_macs"), total("wave_total_row_macs")
        ),
        macs_per_request=ratio(
            macs.total, total("requests_completed") - total("requests_replayed")
        ),
    )
