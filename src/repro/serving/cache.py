"""LRU cache of supporting-subgraph bundles for streaming workloads.

Consecutive batches of a streaming workload often repeat: recommendation
sessions re-score the same item sets, fraud services re-check the same
account cohorts, dashboards re-issue identical queries.  The sampling
products of such a batch — the k-hop BFS ordering, the local normalized
adjacency in raw CSR form and the gathered hop-0 feature rows, packaged as a
:class:`~repro.graph.sampling.SupportBundle` — depend only on the node
*multiset* and the deployment (hop order is sorted, BFS starts from the
unique targets), so one cached bundle per node-set serves every permutation
of it; only the per-occurrence ``target_local`` map is order-specific, and
it is rebased per use.

A :class:`SubgraphCache` hit removes the *entire* sampling stage from a
served batch while every MAC-counted operation (propagation, exit decisions,
classification) still executes, so predictions, depth distributions and MAC
accounting are bit-identical to a cold run; only ``timings.sampling`` (and
wall-clock) shrink.  Keys are canonical — sorted node ids plus depth (see
:func:`~repro.graph.sampling.support_cache_key`) — so permuted repeats of
the same node-set hit too; the dispatcher stores one bundle per node-set
(built in canonical order) and rebases its ``target_local`` per use through
:meth:`~repro.graph.sampling.SupportBundle.with_target_order`.

:class:`ResultCache` goes one step further, for deployments that opt in: it
replays the *recorded results* of a previously served canonical node-set, so
a hit skips propagation and classification entirely.  Because per-node
predictions and exit depths are batch-order independent, replayed responses
are bit-identical to recomputed ones — but the replayed MACs were not
executed, so the serving stats account them separately from computed MACs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.inference import MACBreakdown, TimingBreakdown
from ..exceptions import ConfigurationError
from ..graph.sampling import support_cache_key


@dataclass(frozen=True)
class CacheCounters:
    """One consistent reading of a cache's counters, taken under its lock.

    Reading ``hits``, ``misses`` and ``len(cache)`` as three separate
    attribute accesses lets concurrent lookups advance the counters between
    reads, producing snapshots where e.g. ``hits + misses`` disagrees with
    the hit rate that was ever true at any instant.  :meth:`_LruCache.
    counters` takes all of them atomically; the serving stats snapshot
    consumes this instead of piecewise reads.
    """

    hits: int
    misses: int
    evictions: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _LruCache:
    """Thread-safe LRU with hit/miss/eviction accounting (shared machinery).

    Both serving caches key on the canonical batch identity
    (:func:`~repro.graph.sampling.support_cache_key`) and differ only in
    what they store, so the LRU mechanics live here exactly once.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"{type(self).__name__} capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[bytes, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_for(node_ids: np.ndarray, depth: int) -> bytes:
        """Canonical cache key of a batch (order-insensitive; see module docstring)."""
        return support_cache_key(node_ids, depth)

    def get(self, key: bytes):
        """Look up an entry, refreshing its recency; counts the hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: bytes, entry) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry beyond capacity.

        Concurrent workers may race to insert the same key after missing
        together; the second insert simply refreshes the first — entries for
        the same key are interchangeable by construction.
        """
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def peek(self, key: bytes):
        """Like :meth:`get` but without hit/miss accounting.

        The prefetch pipeline re-checks keys whose miss the dispatcher
        already counted (a sibling fetch may have inserted the bundle in the
        meantime); counting that second lookup would double-book the stats
        relative to serialized execution.  Recency is still refreshed — the
        entry is about to be used.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def counters(self) -> CacheCounters:
        """All counters in one consistent reading (see :class:`CacheCounters`)."""
        with self._lock:
            return CacheCounters(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class SubgraphCache(_LruCache):
    """Thread-safe LRU of ``key -> SupportBundle`` with hit/miss accounting."""

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the cached bundles."""
        with self._lock:
            return sum(bundle.nbytes for bundle in self._entries.values())


@dataclass(frozen=True)
class CachedResult:
    """Recorded outcome of one served node-set, stored in canonical order.

    ``predictions``/``depths`` are indexed by the canonical (sorted) batch
    position; a replay for any permutation of the set gathers them through
    the ``rank`` permutation of :func:`~repro.graph.sampling.canonical_order`.
    ``macs``/``timings`` are the breakdowns of the recorded execution — work
    that a replay does *not* perform, reported separately by the stats.
    """

    predictions: np.ndarray
    depths: np.ndarray
    macs: MACBreakdown
    timings: TimingBreakdown

    @property
    def num_nodes(self) -> int:
        return int(self.predictions.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.predictions.nbytes + self.depths.nbytes)


class ResultCache(_LruCache):
    """Thread-safe LRU of ``canonical key -> CachedResult`` (opt-in replay).

    Enabled by ``ServingConfig.result_cache_capacity > 0``.  Only exact
    canonical node-set repeats hit — a batch containing one extra node is a
    miss, because its predictions would require real propagation.
    """
