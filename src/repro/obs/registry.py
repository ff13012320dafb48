"""Unified metrics registry: one scrape surface over the live accumulators.

Before this module every layer grew its own counter plumbing
(``ServingStats``, ``ShardTraffic``, ``TransportStats``); the registry is
the single surface an operator reads — one snapshot, or one Prometheus
scrape (:func:`repro.obs.export.prometheus_text`) — instead of four
bespoke dicts.  The accumulators stay the only source of truth (they are
exact and already tested): the registry holds no values of its own, only
*collectors*, zero-argument callables it calls at scrape time and that
return the current :class:`Sample`\\ s.  Nothing is cached, so a series the
fleet no longer has (a shard a rollout retired) disappears from the next
scrape.

:func:`sharded_snapshot_samples` and :func:`transport_traffic_samples` are
the pure mappings the router's collector uses.  Metric identity is
``(name, sorted labels)``, Prometheus-style.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, NamedTuple

LabelKey = tuple[tuple[str, str], ...]


class Sample(NamedTuple):
    """One metric reading: ``kind`` is ``"counter"`` or ``"gauge"``."""

    name: str
    kind: str
    labels: LabelKey
    value: float


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def counter(name: str, value: float, **labels) -> Sample:
    """A monotone total read from an accumulator."""
    return Sample(name, "counter", _label_key(labels), float(value))


def gauge(name: str, value: float, **labels) -> Sample:
    """A point-in-time level (hit rate, percentile, plan version)."""
    return Sample(name, "gauge", _label_key(labels), float(value))


Collector = Callable[[], Iterable[Sample]]


class MetricsRegistry:
    """The collectors of one deployment, read at scrape time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectors: list[Collector] = []
        self._help: dict[str, str] = {}

    def register(
        self, collector: Collector, *, help_texts: dict[str, str] | None = None
    ) -> None:
        """Add ``collector``; ``help_texts`` maps names to ``# HELP`` lines."""
        with self._lock:
            self._collectors.append(collector)
            self._help.update(help_texts or {})

    def help_text(self, name: str) -> str | None:
        """The help text registered for ``name``, or ``None``."""
        with self._lock:
            return self._help.get(name)

    def collect(self) -> list[Sample]:
        """Every collector's current samples, sorted by (name, labels).

        A later sample with the same identity replaces an earlier one.
        """
        with self._lock:
            collectors = list(self._collectors)
        samples = {
            (sample.name, sample.labels): sample
            for collector in collectors
            for sample in collector()
        }
        return [samples[key] for key in sorted(samples)]

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{labels} -> value`` dict."""
        out: dict[str, float] = {}
        for sample in self.collect():
            label_text = ",".join(f"{k}={v}" for k, v in sample.labels)
            suffix = f"{{{label_text}}}" if label_text else ""
            out[f"{sample.name}{suffix}"] = sample.value
        return out


# ---------------------------------------------------------------------- #
# Pure mappings from the exact accumulators onto samples.
# ---------------------------------------------------------------------- #
_SNAPSHOT_COUNTERS = (
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
    "transport_retries",
    "transport_failovers",
    "transport_health_transitions",
)


def sharded_snapshot_samples(snapshot) -> list[Sample]:
    """Samples of a :class:`~repro.shard.stats.ShardedStatsSnapshot`."""
    samples = [
        counter(f"repro_{name}_total", getattr(snapshot, name))
        for name in _SNAPSHOT_COUNTERS
    ]
    samples += [
        counter("repro_computed_macs_total", snapshot.macs.total),
        gauge("repro_plan_version", snapshot.plan_version),
        gauge("repro_cache_hit_rate", snapshot.cache_hit_rate),
        gauge("repro_batch_width_p50", snapshot.batch_width_p50),
        gauge("repro_batch_width_p95", snapshot.batch_width_p95),
        gauge("repro_latency_p95_seconds", snapshot.latency.p95),
        gauge("repro_latency_p99_seconds", snapshot.latency.p99),
    ]
    for shard, view in snapshot.per_shard.items():
        samples += [
            counter("repro_shard_requests_completed_total", view.requests_completed, shard=shard),
            counter("repro_shard_nodes_completed_total", view.nodes_completed, shard=shard),
            gauge("repro_shard_latency_p95_seconds", view.latency.p95, shard=shard),
        ]
    return samples


def transport_traffic_samples(traffic, transport_stats) -> list[Sample]:
    """Samples of a store's :class:`~repro.shard.store.ShardTraffic` and
    its transport's :class:`~repro.transport.TransportStats`."""
    total_bytes = traffic.bytes_local + traffic.bytes_remote
    samples = [
        gauge(
            "repro_remote_byte_fraction",
            traffic.bytes_remote / total_bytes if total_bytes else 0.0,
        ),
        counter("repro_transport_rounds_total", transport_stats.rounds),
    ]
    samples += [
        counter("repro_transport_requests_total", count, op=op)
        for op, count in dict(transport_stats.requests).items()
    ]
    return samples
