"""Observability: request tracing, a unified metrics registry, exporters.

The serving stack (`repro.serving`), shard router (`repro.shard`) and
transports (`repro.transport`) emit **spans** — timed, attributed tree
nodes — through a :class:`Tracer` into a bounded :class:`TraceRecorder`,
and register collectors on a :class:`MetricsRegistry` that reads their
aggregate counters at scrape time.
Exporters turn recorded spans into JSON-lines dumps, Chrome trace-event
files (openable in Perfetto / ``chrome://tracing``) and Prometheus-style
text; :class:`CriticalPathAnalyzer` decomposes per-request latency into
queue / coalesce / fetch / compute / scatter components and ranks shards
by attributed load — the signal the auto-rebalancer roadmap item needs.

Everything is off by default: a ``tracer=None`` anywhere in the stack
means the exact pre-observability code path runs, with zero per-request
allocations.  All span timestamps come from the injectable
:class:`~repro.serving.clock.Clock`, so tests on a
:class:`~repro.serving.clock.FakeClock` assert exact virtual-time span
trees.  See ``docs/observability.md``.

On top of the passive layer sits the *active* loop:
:class:`SlidingWindow`/:class:`HealthMonitor` derive windowed (last-N-
seconds) per-shard load from the cumulative accumulators,
:class:`SLOEngine` evaluates declarative :class:`SLO` specs as
multi-window burn rates and emits :class:`Alert` lifecycle transitions
through :class:`AlertSink`\\ s, and :class:`RebalanceAdvisor`/
:class:`AutoRebalancer` turn a firing burn alert into a versioned
replica-boosted plan rollout — observation-driven rebalancing with the
bit-identical-results guarantee intact.
"""

from .analysis import CriticalPathAnalyzer, RequestBreakdown, ShardLoad
from .export import (
    chrome_trace,
    load_spans_jsonl,
    prometheus_text,
    spans_to_dicts,
    write_chrome_trace,
    write_spans_jsonl,
)
from .monitor import FleetHealth, HealthMonitor, ShardHealth, SlidingWindow
from .rebalance import AutoRebalancer, RebalanceAdvisor, RebalanceProposal
from .registry import (
    MetricsRegistry,
    Sample,
    sharded_snapshot_samples,
    transport_traffic_samples,
)
from .slo import (
    FIRING,
    PENDING,
    RESOLVED,
    SLO,
    Alert,
    AlertSink,
    LogAlertSink,
    MemoryAlertSink,
    SLOEngine,
    slos_from_config,
)
from .trace import NULL_TRACER, Span, TraceContext, Tracer, TraceRecorder

__all__ = [
    "SlidingWindow",
    "HealthMonitor",
    "ShardHealth",
    "FleetHealth",
    "SLO",
    "SLOEngine",
    "Alert",
    "AlertSink",
    "LogAlertSink",
    "MemoryAlertSink",
    "slos_from_config",
    "PENDING",
    "FIRING",
    "RESOLVED",
    "RebalanceAdvisor",
    "RebalanceProposal",
    "AutoRebalancer",
    "Span",
    "TraceContext",
    "TraceRecorder",
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Sample",
    "sharded_snapshot_samples",
    "transport_traffic_samples",
    "CriticalPathAnalyzer",
    "RequestBreakdown",
    "ShardLoad",
    "spans_to_dicts",
    "write_spans_jsonl",
    "load_spans_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
]
