"""The shard router: one serving worker group per shard, ownership routing.

:class:`ShardRouter` fronts a :class:`~repro.shard.predictor.ShardedPredictor`
with one :class:`~repro.serving.InferenceServer` per shard — each with its
own request queue, micro-batcher, caches and worker pool, all homed on that
shard so halo traffic is attributed correctly.  A submitted request is split
by node ownership: a single-owner request is forwarded whole; a mixed-shard
request fans out one sub-request per owning shard, and the returned
:class:`RoutedResponse` stitches the per-shard answers back into request
order.

Routing never changes per-node results: predictions and exit depths are
independent of batch composition (the property micro-batching already
relies on), so a routed response is bit-identical to the unsharded
predictor's answer for the same nodes.  Batch *compositions* do change, so
MAC totals follow serving semantics (shared supporting subgraphs), exactly
as unsharded micro-batching does; the offline bit-equality oracle for MAC
totals is :meth:`ShardedPredictor.predict`.

Versioned rollout
-----------------
The router holds its serving state in **generations**, one per installed
:class:`~repro.shard.partitioner.ShardPlan` version.  :meth:`ShardRouter.
install_plan` accepts a second *prepared* predictor whose plan carries a
strictly newer version, spins up its per-shard servers, and atomically makes
it the active generation: new submissions route on the new plan immediately,
while requests already accepted by the old generation's servers keep
draining there — nothing is cancelled, nothing is re-routed mid-flight, and
per-version traffic accounting (:meth:`rollout_state`) shows exactly which
version answered what.  :meth:`finish_rollout` then drains and retires the
old generations.  Because every generation's results are bit-identical to
the unsharded predictor, a rollout can change *placement* but never
*answers* — the property the rollout tests pin down.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.config import ServingConfig
from ..exceptions import ConfigurationError, ServingError
from ..obs.export import prometheus_text
from ..obs.registry import (
    MetricsRegistry,
    publish_sharded_snapshot,
    publish_transport_traffic,
)
from ..serving.clock import Clock
from ..serving.controller import build_controller
from ..serving.queue import (
    NEW_TRACE,
    InferenceRequest,
    ServingResponse,
    SubmitOptions,
    checked_node_ids,
)
from ..serving.server import InferenceServer
from ..serving.stats import ServingStatsSnapshot
from .predictor import ShardedPredictor
from .stats import ShardedStatsSnapshot, merge_serving_snapshots


@dataclass(frozen=True)
class RoutedResponse:
    """Per-request outcome reassembled from the owning shards.

    ``predictions``/``depths`` cover ``node_ids`` in request order.
    ``per_shard`` maps each participating shard to the
    :class:`~repro.serving.ServingResponse` of its sub-request;
    ``latency_seconds`` is the slowest sub-request (the caller-visible
    latency of the fan-out).  ``plan_version`` names the plan generation
    that routed the request.
    """

    node_ids: np.ndarray
    predictions: np.ndarray
    depths: np.ndarray
    latency_seconds: float
    per_shard: dict[int, ServingResponse]
    plan_version: int = 0

    @property
    def num_shards_touched(self) -> int:
        return len(self.per_shard)


class RoutedRequest:
    """Handle over the per-shard sub-requests of one routed submission."""

    def __init__(
        self,
        node_ids: np.ndarray,
        parts: list[tuple[int, np.ndarray, InferenceRequest]],
        *,
        plan_version: int = 0,
        tracer=None,
        trace=None,
        submitted_at: float | None = None,
    ) -> None:
        self.node_ids = node_ids
        self.plan_version = plan_version
        self._parts = parts
        #: Router-level :class:`~repro.obs.TraceContext` (``None`` untraced);
        #: the ``route`` span is emitted when :meth:`result` first gathers
        #: every shard's answer, so its end stamp is the fan-in instant.
        self._tracer = tracer
        self._trace = trace
        self._submitted_at = submitted_at
        self._route_emitted = False

    def done(self) -> bool:
        """Whether every sub-request has completed (or failed)."""
        return all(handle.done() for _, _, handle in self._parts)

    def result(self, timeout: float | None = None) -> RoutedResponse:
        """Block for every shard's answer and reassemble request order.

        ``timeout`` bounds the whole fan-in, not each part: every part
        waits only for what remains of one deadline taken on entry.
        """
        predictions = np.empty(self.node_ids.shape[0], dtype=np.int64)
        depths = np.empty(self.node_ids.shape[0], dtype=np.int64)
        per_shard: dict[int, ServingResponse] = {}
        latency = 0.0
        # Handles wait on threading events, which run on the monotonic
        # wall clock whatever clock the servers stamp with.
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard_id, positions, handle in self._parts:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            response = handle.result(timeout=remaining)
            predictions[positions] = response.predictions
            depths[positions] = response.depths
            per_shard[shard_id] = response
            latency = max(latency, response.latency_seconds)
        if (
            self._tracer is not None
            and self._trace is not None
            and not self._route_emitted
        ):
            self._route_emitted = True
            self._tracer.emit(
                "route",
                self._trace,
                self._submitted_at,
                self._tracer.clock.now(),
                plan_version=self.plan_version,
                num_shards=len(per_shard),
                num_nodes=int(self.node_ids.shape[0]),
            )
        return RoutedResponse(
            node_ids=self.node_ids,
            predictions=predictions,
            depths=depths,
            latency_seconds=latency,
            per_shard=per_shard,
            plan_version=self.plan_version,
        )


@dataclass
class _Generation:
    """One plan version's serving state: predictor, controllers, servers."""

    version: int
    predictor: ShardedPredictor
    controllers: dict[int, object]
    servers: dict[int, InferenceServer]
    requests_routed: int = 0
    draining: bool = False
    _route_lock: threading.Lock = field(default_factory=threading.Lock)

    def count_routed(self) -> None:
        with self._route_lock:
            self.requests_routed += 1

    def drain(self, timeout: float | None = None) -> None:
        for server in self.servers.values():
            server.drain(timeout=timeout)

    def close(self) -> None:
        for server in self.servers.values():
            server.close()

    def snapshot(self) -> dict:
        """Per-version accounting row for :meth:`ShardRouter.rollout_state`.

        ``requests_routed`` counts router-level submissions;
        ``requests_completed``/``failed`` count per-shard *sub*-requests
        (a mixed-owner submission fans out to several servers).
        """
        stats = merge_serving_snapshots(
            {shard_id: server.stats() for shard_id, server in self.servers.items()}
        )
        return {
            "version": self.version,
            "draining": self.draining,
            "num_shards": self.predictor.num_shards,
            "requests_routed": self.requests_routed,
            "requests_completed": stats.requests_completed,
            "requests_failed": stats.requests_failed,
            "nodes_completed": stats.nodes_completed,
        }


class ShardRouter:
    """Routes requests to per-shard inference servers and merges their stats."""

    def __init__(
        self,
        predictor: ShardedPredictor,
        config: ServingConfig | None = None,
        *,
        clock: Clock | None = None,
        tracer=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ServingConfig()
        self._clock = clock
        #: Optional :class:`~repro.obs.Tracer` threaded through every
        #: generation's servers, stores and transports; ``None`` keeps the
        #: whole fleet on the zero-cost untraced path.
        self.tracer = tracer
        #: The fleet's :class:`~repro.obs.MetricsRegistry`; :meth:`stats`
        #: republishes every snapshot into it so one scrape surface covers
        #: serving, traffic and transport counters.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._plan_lock = threading.Lock()
        self._closed = False
        self._retired: list[_Generation] = []
        self._active = self._build_generation(predictor)

    def _build_generation(self, predictor: ShardedPredictor) -> _Generation:
        if not predictor.prepared:
            raise ServingError(
                "prepare the ShardedPredictor before routing requests to it"
            )
        # One controller *per shard*: a hot shard widens its batches toward
        # the ceilings independently, while a cold one stays at the idle
        # operating point — adaptive batching must not couple shard loads.
        controllers = {
            shard_id: build_controller(self.config)
            for shard_id in range(predictor.num_shards)
        }
        if self.tracer is not None:
            # One tracer for the whole generation: per-shard servers, the
            # store's fetch rounds and the transport's wire frames all stamp
            # spans into the same recorder under the same clock.
            predictor.store._set_tracer(self.tracer)
        servers = {
            shard_id: InferenceServer(
                predictor.shard_view(shard_id),
                self.config,
                clock=self._clock,
                controller=controllers[shard_id],
                tracer=self.tracer,
            )
            for shard_id in range(predictor.num_shards)
        }
        return _Generation(
            version=int(predictor.store.plan.version),
            predictor=predictor,
            controllers=controllers,
            servers=servers,
        )

    # ------------------------------------------------------------------ #
    # Active-generation surface (the pre-rollout API, unchanged)
    # ------------------------------------------------------------------ #
    @property
    def predictor(self) -> ShardedPredictor:
        return self._active.predictor

    @property
    def store(self):
        """The active generation's :class:`~repro.shard.ShardedGraphStore`."""
        return self._active.predictor.store

    @property
    def controllers(self) -> dict:
        return self._active.controllers

    @property
    def servers(self) -> dict[int, InferenceServer]:
        return self._active.servers

    @property
    def plan_version(self) -> int:
        return self._active.version

    # ------------------------------------------------------------------ #
    # Versioned rollout
    # ------------------------------------------------------------------ #
    def install_plan(self, predictor: ShardedPredictor) -> int:
        """Atomically make ``predictor`` (a newer plan version) active.

        ``predictor`` must be prepared onto a plan whose ``version`` is
        strictly greater than the active one (see
        :meth:`~repro.shard.partitioner.ShardPlan.with_version` and
        ``ShardedPredictor.prepare(..., plan=...)``).  New submissions route
        on it from the moment this returns; requests already accepted by the
        previous generation's servers finish there.  Call
        :meth:`finish_rollout` to drain and retire the old generation.
        Returns the now-active version.
        """
        if not predictor.prepared:
            raise ServingError("install_plan needs a prepared ShardedPredictor")
        new_version = int(predictor.store.plan.version)
        with self._plan_lock:
            if self._closed:
                raise ServingError("the shard router is closed")
            if new_version <= self._active.version:
                raise ConfigurationError(
                    f"install_plan needs a newer plan version: active is "
                    f"{self._active.version}, offered {new_version}"
                )
            # Build the successor's servers *before* the swap so the active
            # generation keeps serving until the new one can.
            generation = self._build_generation(predictor)
            old = self._active
            old.draining = True
            self._retired.append(old)
            self._active = generation
        return new_version

    def finish_rollout(self, timeout: float | None = None) -> int:
        """Drain and close every retired generation; returns how many."""
        with self._plan_lock:
            retiring = list(self._retired)
            self._retired = []
        for generation in retiring:
            generation.drain(timeout=timeout)
            generation.close()
        return len(retiring)

    def rollout_state(self) -> list[dict]:
        """Per-version traffic accounting, oldest generation first.

        Each row reports the version, whether it is draining, and its
        routed/completed/failed request counts — during a rollout the old
        version's completed count catches up to its routed count while the
        new version takes all fresh routing.
        """
        with self._plan_lock:
            generations = [*self._retired, self._active]
        return [generation.snapshot() for generation in generations]

    # ------------------------------------------------------------------ #
    def submit(
        self,
        node_ids: np.ndarray,
        options: SubmitOptions | None = None,
    ) -> RoutedRequest:
        """Split ``node_ids`` by owner and enqueue on the owning servers.

        Accepts the same :class:`~repro.serving.queue.SubmitOptions` as
        :meth:`repro.serving.InferenceServer.submit` — swap a single
        server for a routed fleet without touching call sites.
        ``options.trace_parent`` nests the router's ``route`` span under an
        upstream context (``None`` opts the whole fan-out out of tracing).
        """
        if options is None:
            options = SubmitOptions()
        # Every plan partitions the same graph, so any generation's store
        # bounds the ids; a rejected request is never counted as routed.
        node_ids = checked_node_ids(node_ids, self._active.predictor.store.num_nodes)
        with self._plan_lock:
            if self._closed:
                raise ServingError("the shard router is closed")
            # Pin the generation under the lock: a concurrent install_plan
            # swaps the active pointer, but this request keeps routing (and
            # draining) on the generation it was admitted to.
            generation = self._active
            generation.count_routed()
        owners = generation.predictor.store.owner_of(node_ids)
        route_ctx = None
        submitted_at = None
        if self.tracer is not None and options.trace_parent is not None:
            # The router-level root: per-shard server requests become its
            # children via ``trace_parent``, so one trace tree covers the
            # whole fan-out (an unsampled request stays fully untraced —
            # the servers never see a parent and allocate nothing).
            route_ctx = (
                self.tracer.new_trace()
                if options.trace_parent is NEW_TRACE
                else self.tracer.child(options.trace_parent)
            )
            if route_ctx is not None:
                submitted_at = self.tracer.clock.now()
        parts: list[tuple[int, np.ndarray, InferenceRequest]] = []
        for shard_id in np.unique(owners):
            shard_id = int(shard_id)
            positions = np.flatnonzero(owners == shard_id)
            handle = generation.servers[shard_id].submit(
                node_ids[positions],
                SubmitOptions(
                    timeout=options.timeout,
                    trace_parent=route_ctx,
                    tenant=options.tenant,
                ),
            )
            parts.append((shard_id, positions, handle))
        return RoutedRequest(
            node_ids,
            parts,
            plan_version=generation.version,
            tracer=self.tracer,
            trace=route_ctx,
            submitted_at=submitted_at,
        )

    def predict_many(
        self,
        batches,
        *,
        timeout: float | None = None,
    ) -> list[RoutedResponse]:
        """Submit every batch, then gather responses in submission order.

        ``timeout`` bounds each step — every sub-request's submit (a full
        shard queue under the ``"block"`` policy raises instead of waiting
        forever) and every result gather.
        """
        options = SubmitOptions(timeout=timeout)
        handles = [self.submit(batch, options) for batch in batches]
        return [handle.result(timeout=timeout) for handle in handles]

    def drain(self, timeout: float | None = None) -> None:
        """Block until every generation's servers answered their requests."""
        with self._plan_lock:
            generations = [*self._retired, self._active]
        for generation in generations:
            generation.drain(timeout=timeout)

    def stats(self) -> ShardedStatsSnapshot:
        """Merged fleet statistics plus the untouched per-shard snapshots.

        Covers the *active* generation's servers (use :meth:`rollout_state`
        for per-version rows during a rollout), stamped with the active plan
        version and the replication counters of the store's transport.
        """
        generation = self._active
        merged = merge_serving_snapshots(
            {
                shard_id: server.stats()
                for shard_id, server in generation.servers.items()
            }
        )
        transport_stats = generation.predictor.store.transport.stats
        snapshot = replace(
            merged,
            plan_version=generation.version,
            transport_retries=transport_stats.retries,
            transport_failovers=transport_stats.failovers,
            transport_health_transitions=transport_stats.health_transitions,
        )
        # Re-sync the registry from the authoritative accumulators: counters
        # move to the snapshot totals (never replayed as deltas), gauges take
        # the latest reading — one scrape surface for the whole fleet.
        publish_sharded_snapshot(self.registry, snapshot)
        publish_transport_traffic(self.registry, self.traffic())
        return snapshot

    def interval_stats(
        self, *, reset: bool = True
    ) -> dict[int, ServingStatsSnapshot]:
        """Per-shard statistics since the last interval reset.

        The windowed-delta surface behind
        :class:`~repro.obs.monitor.HealthMonitor`: each call returns what
        each active-generation server did since the previous call (with
        ``reset=True``, the default), raw ``latency_samples`` included.
        During a rollout the freshly installed generation starts with empty
        intervals; the draining generation's tail is accounted in
        :meth:`rollout_state`, not here.
        """
        return {
            shard_id: server.interval_stats(reset=reset)
            for shard_id, server in self._active.servers.items()
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the fleet's metrics registry.

        Refreshes the registry from a fresh :meth:`stats` snapshot first, so
        the scrape always reflects the current counters.
        """
        self.stats()
        return prometheus_text(self.registry)

    def controller_state(self) -> dict[int, dict]:
        """Per-shard batching-controller state (policy, level, adjustments)."""
        return {
            shard_id: controller.describe()
            for shard_id, controller in self._active.controllers.items()
        }

    def traffic(self) -> dict:
        """Cross-shard fetch traffic (rows and bytes) of the routed fleet.

        Every per-shard server's engines fetch through the store's
        :class:`~repro.transport.ShardTransport`; this surfaces the
        row/byte counters plus the transport's own round/byte stats — the
        measurement surface the locality-aware-routing follow-up needs.
        """
        store = self._active.predictor.store
        return {
            "shard_traffic": store.traffic.as_dict(),
            "transport": store.transport.stats.as_dict(),
        }

    def close(self) -> None:
        """Drain and stop every generation's servers."""
        with self._plan_lock:
            if self._closed:
                return
            self._closed = True
            generations = [*self._retired, self._active]
            self._retired = []
        for generation in generations:
            generation.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
