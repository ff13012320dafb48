"""Sharded graph store and shard-parallel inference.

The paper's online setting assumes one process holds the whole graph's
state; this package removes that ceiling while keeping every output
bit-identical to the single-process :class:`~repro.core.NAIPredictor`:

* :class:`GraphPartitioner` — deterministic edge-cut partitioning (hash or
  degree-balanced) into a :class:`ShardPlan`;
* :class:`ShardedGraphStore` / :class:`GraphShard` — per-shard local CSR
  blocks (raw + normalized rows, features, degrees) with halo/ghost maps;
  :class:`ShardRowSource` binds the store to a home shard as the row source
  the one support builder
  (:func:`~repro.graph.sampling.build_support_bundle`) reads;
* :class:`ShardedStationaryState` — the O(n) stationary state computed
  shard-locally and reduced with the exact accumulator of
  :mod:`repro.core.reduction` (partition-independent bit for bit);
* :class:`ShardedPredictor` — the coordinator surface mirroring
  ``NAIPredictor.prepare``/``predict``; each of its engines is a plain
  :class:`~repro.core.inference.BatchEngine` over a :class:`ShardRowSource`;
* :class:`ShardRouter` — one :class:`~repro.serving.InferenceServer` worker
  group per shard, ownership routing, fan-out of mixed-shard requests and
  fleet-level stats merging (:class:`ShardedStatsSnapshot`).

See ``docs/sharding.md`` for the guided tour and
``benchmarks/bench_sharding.py`` for the equivalence/memory/traffic numbers
behind ``BENCH_sharding.json``.
"""

from .partitioner import GraphPartitioner, ShardPlan, plan_replicas_for_load
from .predictor import ShardServingView, ShardedPredictor
from .router import RoutedRequest, RoutedResponse, ShardRouter
from .stationary import (
    ShardedStationaryState,
    compute_shard_stationary_partial,
    compute_sharded_stationary,
)
from .stats import ShardedStatsSnapshot, merge_latency_summaries, merge_serving_snapshots
from .feature_store import TieredFeatureRows, TieredFeatureStore
from .store import GraphShard, ShardRowSource, ShardTraffic, ShardedGraphStore

__all__ = [
    "GraphPartitioner",
    "GraphShard",
    "RoutedRequest",
    "RoutedResponse",
    "TieredFeatureRows",
    "TieredFeatureStore",
    "ShardPlan",
    "plan_replicas_for_load",
    "ShardRouter",
    "ShardRowSource",
    "ShardServingView",
    "ShardTraffic",
    "ShardedGraphStore",
    "ShardedPredictor",
    "ShardedStationaryState",
    "ShardedStatsSnapshot",
    "compute_shard_stationary_partial",
    "compute_sharded_stationary",
    "merge_latency_summaries",
    "merge_serving_snapshots",
]
