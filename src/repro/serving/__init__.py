"""Online serving subsystem for node-adaptive inference.

The paper's deployment scenario (Sec. V) is *online*: latency-critical
services must classify unseen nodes as they arrive.  This package turns the
offline :class:`~repro.core.NAIPredictor` into that service:

* :class:`RequestQueue` — bounded FIFO with configurable backpressure
  (block / reject / shed-oldest);
* :class:`MicroBatcher` — dynamic micro-batching under a latency budget
  (``max_batch_size`` nodes, ``max_wait_ms`` of the oldest request);
* :class:`BatchController` — the adaptive-batching policy surface
  (:class:`StaticPolicy`, :class:`MarginalLatencyPolicy`) that moves those
  limits with measured service time;
* :class:`SubgraphCache` — LRU reuse of supporting-subgraph bundles across
  recurring batches of a streaming workload;
* :class:`WorkerPool` — worker threads, each owning a private
  :class:`~repro.core.inference.BatchEngine`;
* :class:`PrefetchPipeline` — background fetchers that overlap a sharded
  deployment's cross-shard support fetch rounds with the pool's compute
  (``ServingConfig.prefetch_depth``; see ``docs/prefetch.md``);
* :class:`InferenceServer` — the glue, exposing ``submit`` / ``result``
  semantics plus a :class:`ServingStatsSnapshot` observability surface
  (throughput, p50/p95/p99 latency, cache hit rate, queue depth).

Every knob lives in :class:`~repro.core.config.ServingConfig`; see
``docs/serving.md`` for a guided tour and ``benchmarks/bench_serving.py``
for the throughput/equivalence benchmark behind ``BENCH_serving.json``.
"""

from .batcher import MicroBatch, MicroBatcher
from .cache import CacheCounters, CachedResult, ResultCache, SubgraphCache
from .clock import MONOTONIC_CLOCK, Clock, FakeClock, MonotonicClock
from .prefetch import BusyTracker, PrefetchPipeline
from .controller import (
    BatchController,
    BatchLimits,
    MarginalLatencyPolicy,
    StaticPolicy,
    build_controller,
)
from .queue import (
    NEW_TRACE,
    InferenceRequest,
    RequestQueue,
    ServingResponse,
    SubmitOptions,
)
from .server import InferenceServer
from .cluster import ClusterBuilder
from .wave import WaveAttribution, WaveResult, attribute_wave_macs, execute_wave
from .simulator import (
    LinearServiceModel,
    SimulationReport,
    ramp_arrivals,
    simulate_policy,
)
from .stats import ServingStats, ServingStatsSnapshot, WorkerStats
from .worker import WorkerPool, WorkItem, WorkOutput

__all__ = [
    "MONOTONIC_CLOCK",
    "NEW_TRACE",
    "BatchController",
    "BatchLimits",
    "BusyTracker",
    "CacheCounters",
    "CachedResult",
    "Clock",
    "ClusterBuilder",
    "FakeClock",
    "InferenceRequest",
    "InferenceServer",
    "LinearServiceModel",
    "MarginalLatencyPolicy",
    "MicroBatch",
    "MicroBatcher",
    "MonotonicClock",
    "PrefetchPipeline",
    "RequestQueue",
    "ResultCache",
    "ServingResponse",
    "ServingStats",
    "ServingStatsSnapshot",
    "SimulationReport",
    "StaticPolicy",
    "SubgraphCache",
    "SubmitOptions",
    "WaveAttribution",
    "WaveResult",
    "WorkItem",
    "WorkOutput",
    "WorkerPool",
    "WorkerStats",
    "attribute_wave_macs",
    "build_controller",
    "execute_wave",
    "ramp_arrivals",
    "simulate_policy",
]
