"""The online inference server: queue → micro-batcher → dispatch pipeline → stats.

:class:`InferenceServer` turns a prepared :class:`~repro.core.NAIPredictor`
into a service.  Callers :meth:`~InferenceServer.submit` node-id arrays and
receive a request handle whose :meth:`~repro.serving.queue.InferenceRequest.
result` blocks for the :class:`~repro.serving.queue.ServingResponse`.

One dispatcher thread drains the bounded request queue through the dynamic
micro-batcher and pushes every :class:`DispatchUnit` through the same four
stages (``docs/serving.md``, "Dispatch pipeline"):

1. **form** — the first coalesced micro-batch plus a zero-wait drain of up to
   ``wave_width - 1`` already-ready ones;
2. **resolve support** — exact subgraph-cache hit, else build; a miss runs
   the same function on the dispatcher (``prefetch_depth == 0``) or on a
   prefetch fetcher thread;
3. **submit** — one work item per unit to the worker pool;
4. **complete** — scatter the sweep into per-request responses, stats and
   spans; a unit of two or more members first splits the sweep's MACs exactly
   (:func:`~repro.serving.wave.attribute_wave_macs`).

A failure in any stage reaches the one :meth:`InferenceServer._fail`.  Served
predictions are bit-identical to ``NAIPredictor.predict``: batching and fusing
change *which* supporting subgraph is propagated, never the per-node result,
and cache replays skip only MAC-free sampling work.

    >>> from repro.core import ServingConfig
    >>> from repro.serving import InferenceServer
    >>> with InferenceServer(predictor, ServingConfig()) as server:  # doctest: +SKIP
    ...     handles = [server.submit(ids) for ids in request_stream]
    ...     responses = [h.result() for h in handles]
    ...     print(server.stats().throughput_nodes_per_second)
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..core.config import ServingConfig
from ..core.inference import NAIPredictor
from ..exceptions import ConfigurationError, ServingError
from ..graph.sampling import SupportBundle, canonical_order
from .batcher import MicroBatch, MicroBatcher
from .cache import CachedResult, ResultCache, SubgraphCache
from .clock import MONOTONIC_CLOCK, Clock
from .controller import BatchController, build_controller
from .prefetch import BusyTracker, PrefetchPipeline
from .queue import (
    NEW_TRACE,
    InferenceRequest,
    RequestQueue,
    ServingResponse,
    SubmitOptions,
    checked_node_ids,
)
from .stats import ServingStats, ServingStatsSnapshot
from .wave import attribute_wave_macs, split_timings
from .worker import WorkerPool, WorkItem, WorkOutput


@dataclass
class DispatchUnit:
    """What one engine sweep serves: 1 to ``wave_width`` micro-batches.

    The stages fill the fields in order, so whichever thread runs the next stage
    (dispatcher, fetcher, worker callback) picks up everything the previous one resolved.
    """

    members: list[MicroBatch]
    #: The members' node ids concatenated in member order — the member's own
    #: array, uncopied, for a unit of one.
    node_ids: np.ndarray | None = None
    #: Canonical (sorted) ids and the permutation back to batch order: both
    #: caches key on them, so permuted repeats of a node-set share an entry.
    sorted_ids: np.ndarray | None = None
    rank: np.ndarray | None = None
    #: Batch-level spans hang off the first traced member request; ``None``
    #: (tracing off or nothing sampled) keeps every tracing site dormant.
    batch_ctx: object | None = None
    cache_key: bytes | None = None
    result_key: bytes | None = None
    bundle: SupportBundle | None = None
    cache_hit: bool = False
    bundle_is_fresh: bool = False
    dispatched_at: float = 0.0
    #: Per member, per request: dispatch time minus enqueue time.
    queue_waits: list[list[float]] | None = None

    @property
    def batch_id(self) -> int:
        return self.members[0].batch_id

    @property
    def num_requests(self) -> int:
        return sum(mb.num_requests for mb in self.members)

    def requests(self) -> Iterator[tuple[MicroBatch, InferenceRequest]]:
        return ((mb, request) for mb in self.members for request in mb.requests)


class InferenceServer:
    """Request queue + dynamic micro-batching + worker pool + subgraph cache."""

    def __init__(
        self,
        predictor: NAIPredictor,
        config: ServingConfig | None = None,
        *,
        clock: Clock | None = None,
        controller: BatchController | None = None,
        tracer=None,
    ) -> None:
        if not predictor.prepared:
            raise ServingError("prepare the predictor (NAIPredictor.prepare) before serving it")
        self.predictor = predictor
        self.config = config if config is not None else ServingConfig()
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        #: Optional :class:`~repro.obs.Tracer`.  ``None`` (the default) is
        #: the zero-cost path: every tracing site guards on this attribute,
        #: so no span, context, or closure is ever allocated per request.
        self.tracer = tracer
        self.queue = RequestQueue(
            self.config.queue_capacity, self.config.overflow_policy, clock=self.clock
        )
        # A request failed by load shedding gives its in-flight slot back.
        self.queue.on_shed = lambda request: self._release(1)
        #: The batching policy (``config.batch_policy`` unless an explicit controller is
        #: injected — tests and the shard router use that to share or pre-wire policies).
        self.controller = controller if controller is not None else build_controller(self.config)
        self.batcher = MicroBatcher(self.queue, controller=self.controller, clock=self.clock)
        self.cache: SubgraphCache | None = None
        if self.config.cache_capacity > 0:
            self.cache = SubgraphCache(self.config.cache_capacity)
        if self.config.prefetch_depth > 0 and self.cache is None:
            raise ConfigurationError(
                "prefetch_depth > 0 requires the supporting-subgraph cache "
                "(cache_capacity > 0)"
            )
        # The opt-in result cache replays recorded per-node outputs for exact
        # canonical node-set repeats.
        self.result_cache: ResultCache | None = None
        if self.config.result_cache_capacity > 0:
            self.result_cache = ResultCache(self.config.result_cache_capacity)
        self.pool = WorkerPool(predictor, num_workers=self.config.num_workers, tracer=tracer)
        # Dispatcher-owned engine: builds bundles for inline misses
        # (build_support touches no propagation buffers) and holds the
        # policy/classifier state the attribution replay reads.  Its row
        # source also bounds the ids submit accepts.
        needs_sampler = self.cache is not None or self.config.wave_width > 1
        sampler = predictor.make_engine()
        self._sampler = sampler if needs_sampler else None
        self._num_nodes = sampler.rows.num_nodes
        self._stats = ServingStats(clock=self.clock)
        # prefetch_depth > 0: cache misses are resolved by background fetchers,
        # so unit N+1's transport rounds overlap unit N's compute; the busy
        # tracker measures that overlap.
        self._busy: BusyTracker | None = None
        self._prefetch: PrefetchPipeline | None = None
        if self.config.prefetch_depth > 0:
            self._busy = BusyTracker(self.clock)
            self._prefetch = PrefetchPipeline(
                make_engine=predictor.make_engine, execute=self._fetch, cancel=self._fail,
                depth=self.config.prefetch_depth,
            )
        self._request_ids = itertools.count()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._accepting = True
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="nai-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        node_ids: np.ndarray,
        options: SubmitOptions | None = None,
    ) -> InferenceRequest:
        """Enqueue one request; returns its handle immediately.

        Per-request options travel in one :class:`~repro.serving.queue.
        SubmitOptions` — the same object :meth:`repro.shard.ShardRouter.
        submit` accepts, so call sites survive a single-server-to-fleet
        swap unchanged.

        Raises :class:`~repro.exceptions.ConfigurationError` for an empty
        request or an id outside the graph, and
        :class:`~repro.exceptions.BackpressureError` under the
        ``"reject"`` overflow policy (or after ``options.timeout`` under
        ``"block"``) when the queue is full.  ``options.trace_parent`` nests
        the request's trace under an existing context (the shard router's
        ``route`` span) instead of starting a fresh sampled trace; pass an
        explicit ``None`` to mark the request as sampled out upstream.
        """
        if options is None:
            options = SubmitOptions()
        if not self._accepting:
            raise ServingError("the server is closed to new requests")
        node_ids = checked_node_ids(node_ids, self._num_nodes)
        trace = None
        if self.tracer is not None:
            trace = (
                self.tracer.new_trace()
                if options.trace_parent is NEW_TRACE
                else self.tracer.child(options.trace_parent)
            )
        request = InferenceRequest(
            next(self._request_ids), node_ids,
            enqueued_at=self.clock.now(), trace=trace, tenant=options.tenant,
        )
        self._stats.mark_submission()
        with self._inflight_lock:
            self._inflight += 1
        try:
            self.queue.put(request, timeout=options.timeout)
        except BaseException:
            self._release(1)
            raise
        return request

    def predict_many(
        self, batches: Iterable[np.ndarray], *, timeout: float | None = None
    ) -> list[ServingResponse]:
        """Submit every batch, then gather the responses in submission order.

        ``timeout`` bounds each step: the submit (a full queue under the
        ``"block"`` policy raises after waiting this long) and each result.
        """
        options = SubmitOptions(timeout=timeout)
        handles = [self.submit(batch, options) for batch in batches]
        return [handle.result(timeout=timeout) for handle in handles]

    def drain(self, timeout: float | None = None) -> None:
        """Block until every accepted request has been answered."""
        deadline = None if timeout is None else self.clock.now() + timeout
        with self._inflight_lock:
            while self._inflight > 0:
                wait = None if deadline is None else deadline - self.clock.now()
                if wait is not None and wait <= 0:
                    raise ServingError(
                        f"{self._inflight} requests still in flight after {timeout}s"
                    )
                self.clock.wait_on(self._idle, wait)

    def _gauges(self) -> dict:
        """The instantaneous queue/cache levels both snapshots report."""
        # One consistent counter reading per cache (hits/misses/entries move
        # together under the cache lock) instead of racy piecewise reads.
        cache = self.cache.counters() if self.cache else None
        results = self.result_cache.counters() if self.result_cache else None
        return dict(
            queue_depth=self.queue.depth,
            queue_max_depth=self.queue.max_depth,
            requests_rejected=self.queue.rejected,
            requests_shed=self.queue.shed,
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
            cache_entries=cache.entries if cache else 0,
            result_cache_hits=results.hits if results else 0,
            result_cache_misses=results.misses if results else 0,
            result_cache_entries=results.entries if results else 0,
            batch_policy=self.controller.name,
            controller_adjustments=self.controller.adjustments,
        )

    def stats(self) -> ServingStatsSnapshot:
        """Current throughput/latency/cache/queue statistics."""
        return self._stats.snapshot(**self._gauges())

    def interval_stats(self, *, reset: bool = True) -> ServingStatsSnapshot:
        """Statistics since the last interval reset (then reset by default).

        Counters, summaries and the raw ``latency_samples`` cover only the
        interval window; the queue/cache gauges are the same instantaneous
        levels as :meth:`stats`.
        """
        return self._stats.interval_snapshot(reset=reset, **self._gauges())

    def close(self, *, abort: bool = False) -> None:
        """Serve everything already accepted, then stop all machinery.

        ``abort=True`` skips the drain: requests still queued — including
        units whose support fetch is waiting in the prefetch pipeline — are
        *failed* with :class:`~repro.exceptions.ServingError` instead of
        served.  Units already fetching or computing complete normally, so
        every accepted request is answered one way or the other; nothing
        strands.
        """
        if self._closed:
            return
        self._accepting = False
        try:
            if not abort:
                self.drain()
        finally:
            self._closed = True
            self.queue.close()
            # A submit racing close() can slip into the queue after drain()
            # returned; drain_pending fails it *and* we release its in-flight
            # slot so a later drain() cannot wait on it forever.
            stranded = self.queue.drain_pending(ServingError("server shut down before dispatch"))
            if stranded:
                self._release(len(stranded))
            self._dispatcher.join()
            # Stop the prefetch pipeline after the dispatcher (its last submitter)
            # and before the pool (its downstream): in-flight fetches finish and
            # submit, queued units go through _fail, releasing their slots.
            if self._prefetch is not None:
                cancelled = self._prefetch.stop(
                    ServingError("server shut down before prefetch dispatch")
                )
                self._stats.record_prefetch_cancelled(cancelled)
            self.pool.shutdown()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _release(self, num_requests: int) -> None:
        """Return answered requests' in-flight slots; wake ``drain`` at zero."""
        with self._inflight_lock:
            self._inflight -= num_requests
            if self._inflight <= 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------ #
    # Stages 1–3: form, resolve support, submit
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while not (self._closed and self.queue.depth == 0):
            first = self.batcher.next_batch(poll_timeout=0.02)
            if first is None:
                if self.queue.is_closed:
                    break
                continue
            # Form: fuse micro-batches that are *already ready*.  The zero
            # poll never delays the first member, so an idle server behaves
            # exactly like wave_width=1; only a backed-up queue widens units.
            members = [first]
            while len(members) < self.config.wave_width:
                extra = self.batcher.next_batch(poll_timeout=0.0)
                if extra is None:
                    break
                members.append(extra)
            unit = DispatchUnit(members)
            try:
                self._dispatch(unit)
            except BaseException as error:  # noqa: BLE001 - forwarded per request
                # E.g. out-of-range node ids surfacing in the BFS: fail this
                # unit's requests only — the dispatcher outlives them.
                self._fail(unit, error)

    def _dispatch(self, unit: DispatchUnit) -> None:
        """Resolve one formed unit and submit it, or hand its miss to a fetcher.

        The exact-key lookup always runs here, on the dispatcher: hits are
        counted once and dispatched in arrival order, and an inline miss is
        built and inserted *before* dispatch, so an identical unit behind
        this one hits deterministically.
        """
        members = unit.members
        fused = len(members) > 1
        unit.node_ids = (
            np.concatenate([mb.node_ids for mb in members]) if fused else members[0].node_ids
        )
        if self.tracer is not None:
            self._open_batch_trace(unit)
        # A fused unit always needs its executed bundle here — the attribution
        # replay walks it; a unit of one only when the subgraph cache keys on
        # it (otherwise the worker samples for itself).
        resolve = self.cache is not None or fused
        if resolve or self.result_cache is not None:
            unit.sorted_ids, unit.rank = canonical_order(unit.node_ids)
        depth = self.predictor.config.t_max
        if self.result_cache is not None and not fused:
            unit.result_key = self.result_cache.key_for(unit.sorted_ids, depth)
            recorded = self.result_cache.get(unit.result_key)
            if recorded is not None:
                self._replay(unit, recorded)
                return
        if self.cache is not None:
            unit.cache_key = self.cache.key_for(unit.sorted_ids, depth)
            unit.bundle = self.cache.get(unit.cache_key)
            unit.cache_hit = unit.bundle is not None
        if resolve and unit.bundle is None:
            if self._prefetch is not None:
                # Move straight on to forming the next unit: this one's
                # transport rounds overlap the pool's compute (and each
                # other, at depth > 1).  The fetcher submits it.
                self._stats.record_prefetch_issued()
                self._prefetch.submit(unit)
                return
            self._resolve_miss(unit, self._sampler)
        self._submit(unit)

    def _open_batch_trace(self, unit: DispatchUnit) -> None:
        """Emit the members' coalesce spans; allocate the batch context."""
        primary = next((r.trace for _, r in unit.requests() if r.trace is not None), None)
        if primary is None:
            return
        for mb in unit.members:
            if mb.started_at is not None:
                self.tracer.emit_under(
                    "batch.coalesce", primary, mb.started_at, mb.formed_at,
                    batch_id=mb.batch_id, num_requests=mb.num_requests, num_nodes=mb.num_nodes,
                )
        unit.batch_ctx = self.tracer.child(primary)

    def _resolve_miss(self, unit: DispatchUnit, sampler) -> None:
        """Build the support — on the dispatcher or a fetcher thread.

        Leaves the canonical-order bundle on the unit and, unless a sibling
        fetch got there first, in the cache under the unit's exact key.
        """
        if self.cache is not None:
            # A sibling fetch may have inserted this key since the dispatcher's
            # counted miss (never true inline); peek() skips the double-booked
            # hit/miss accounting.
            unit.bundle = self.cache.peek(unit.cache_key)
            unit.cache_hit = unit.bundle is not None
        if not unit.cache_hit:
            unit.bundle = self._build_bundle(unit, sampler)
            unit.bundle_is_fresh = True
            if self.cache is not None:
                self.cache.put(unit.cache_key, unit.bundle)

    def _build_bundle(self, unit: DispatchUnit, sampler) -> SupportBundle:
        """Build the canonical-order support bundle (traced when sampled)."""
        if unit.batch_ctx is None:
            return sampler.build_support(unit.sorted_ids)
        # The build's fetch rounds (sharded stores) nest under this span via
        # the activated context.
        build_ctx = self.tracer.child(unit.batch_ctx)
        build_start = self.clock.now()
        with self.tracer.activate(build_ctx):
            bundle = sampler.build_support(unit.sorted_ids)
        self.tracer.emit(
            "support.build", build_ctx, build_start, self.clock.now(),
            batch_id=unit.batch_id, num_targets=int(unit.sorted_ids.shape[0]),
            num_support=int(bundle.support.node_ids.shape[0]),
        )
        return bundle

    def _fetch(self, unit: DispatchUnit, sampler) -> None:
        """Resolve a handed-off miss on a fetcher thread, then submit it."""
        fetch_start = self.clock.now()
        busy_before = self._busy.busy_seconds()
        self._resolve_miss(unit, sampler)
        fetch_end = self.clock.now()
        fetch_seconds = fetch_end - fetch_start
        # Compute busy time elapsed during this fetch = the stall the pipeline
        # hid; clamp against wall in case of clock coarseness.
        overlap = max(0.0, min(self._busy.busy_seconds() - busy_before, fetch_seconds))
        self._stats.record_prefetch_done(fetch_seconds=fetch_seconds, overlap_seconds=overlap)
        if unit.batch_ctx is not None:
            self.tracer.emit_under(
                "prefetch.fetch", unit.batch_ctx, fetch_start, fetch_end,
                batch_id=unit.batch_id, cache_hit=unit.cache_hit, overlap_seconds=overlap,
            )
        self._submit(unit)

    def _submit(self, unit: DispatchUnit) -> None:
        """Hand a resolved unit to the pool (dispatcher or fetcher thread)."""
        if unit.bundle is not None and not np.array_equal(unit.sorted_ids, unit.node_ids):
            # The cache keeps the canonical bundle; the engine and the
            # attribution replay walk the batch-order view.
            unit.bundle = unit.bundle.with_target_order(unit.rank)
        unit.dispatched_at = now = self.clock.now()
        unit.queue_waits = [
            [now - request.enqueued_at for request in mb.requests] for mb in unit.members
        ]
        compute_ctx = None
        if unit.batch_ctx is not None:
            compute_ctx = self.tracer.child(unit.batch_ctx)
            self._emit_queue_waits(unit, now)
        # Every unit brackets its pool compute, so a fetcher's overlap credit
        # counts fused units and units of one alike.
        if self._busy is not None:
            self._busy.enter()
        try:
            self.pool.submit(
                WorkItem(
                    batch_id=unit.batch_id, node_ids=unit.node_ids,
                    bundle=unit.bundle, bundle_is_fresh=unit.bundle_is_fresh,
                    callback=lambda output: self._complete(unit, output), trace=compute_ctx,
                )
            )
        except BaseException:
            if self._busy is not None:
                self._busy.exit()
            raise

    # ------------------------------------------------------------------ #
    # Stage 4: complete (worker threads); replay; the one failure path
    # ------------------------------------------------------------------ #
    def _complete(self, unit: DispatchUnit, output: WorkOutput) -> None:
        """Scatter one sweep back into per-member, per-request responses."""
        if self._busy is not None:
            self._busy.exit()
        members = unit.members
        width = len(members)
        result, error = output.result, output.error
        if error is None and result is None:
            error = ServingError(f"micro-batch {unit.batch_id} produced no result")
        attribution = None
        if error is None and width > 1:
            # Replay the union sweep's control flow and split its MACs exactly
            # across the members (a unit of one owns its whole breakdown:
            # nothing to split, no replay).  A reconciliation mismatch raises
            # and fails the unit rather than shipping wrong accounting.
            offsets = np.cumsum([0] + [mb.num_nodes for mb in members])
            try:
                attribution = attribute_wave_macs(self._sampler, unit.bundle, offsets, result)
            except BaseException as attribution_error:  # noqa: BLE001
                error = attribution_error
        if error is not None:
            self._fail(unit, error)
            return
        num_requests = unit.num_requests
        num_nodes = int(unit.node_ids.shape[0])
        try:
            if unit.result_key is not None:
                # Record in canonical order (inverse of ``rank`` by scatter) so
                # any permutation of this node-set replays with one gather.
                predictions = np.empty_like(result.predictions)
                depths = np.empty_like(result.depths)
                predictions[unit.rank] = result.predictions
                depths[unit.rank] = result.depths
                recorded = CachedResult(predictions, depths, result.macs, result.timings)
                self.result_cache.put(unit.result_key, recorded)
            completed_at = self.clock.now()
            # One controller cost sample per sweep: dispatch-to-completion is
            # the service time the adaptive policies model.
            self.controller.observe_batch(
                num_nodes=num_nodes, num_requests=num_requests,
                service_seconds=completed_at - unit.dispatched_at, queue_depth=self.queue.depth,
            )
            if attribution is None:
                shares = [(result.macs, result.timings)]
            else:
                member_macs = attribution.member_macs
                weights = [macs.total for macs in member_macs]
                shares = zip(member_macs, split_timings(result.timings, weights))
            base = 0
            for mb, waits, (macs, timings) in zip(members, unit.queue_waits, shares):
                latencies = self._scatter(
                    mb, result.predictions, result.depths, base, completed_at, waits,
                    cache_hit=unit.cache_hit, worker_id=output.worker_id,
                    batch_macs=macs, batch_timings=timings, wave_width=width,
                )
                self._stats.record_batch(
                    worker_id=output.worker_id, num_nodes=mb.num_nodes,
                    num_requests=mb.num_requests, macs=macs, timings=timings,
                    latencies=latencies, queue_waits=waits,
                )
                base += mb.num_nodes
            if attribution is not None:
                self._stats.record_wave(
                    width=width, shared_row_macs=attribution.shared_row_macs,
                    total_row_macs=attribution.total_row_macs,
                )
            if unit.batch_ctx is not None:
                # The scatter span covers the fulfil loop above; batch.execute
                # is the dispatch-to-completion region whose children (compute,
                # fetch rounds, scatter) explain it.
                self.tracer.emit_under(
                    "scatter", unit.batch_ctx, completed_at, self.clock.now(),
                    batch_id=unit.batch_id, num_requests=num_requests, wave_width=width,
                )
                self.tracer.emit(
                    "batch.execute", unit.batch_ctx, unit.dispatched_at, completed_at,
                    batch_id=unit.batch_id, num_requests=num_requests, num_nodes=num_nodes,
                    worker_id=output.worker_id, cache_hit=unit.cache_hit, wave_width=width,
                    macs=int(result.macs.total),
                )
                self._emit_request_spans(unit, completed_at)
        finally:
            self._release(num_requests)

    def _scatter(
        self, mb: MicroBatch, predictions, depths, base: int, completed_at: float,
        queue_waits: list[float], **fields,
    ) -> list[float]:
        """Fulfil ``mb``'s requests from rows ``base + request_slice``; returns latencies."""
        latencies = []
        for index, request in enumerate(mb.requests):
            inner = mb.request_slice(index)
            rows = slice(base + inner.start, base + inner.stop)
            latency = completed_at - request.enqueued_at
            latencies.append(latency)
            request._fulfill(
                ServingResponse(
                    request_id=request.request_id, node_ids=request.node_ids,
                    predictions=predictions[rows], depths=depths[rows],
                    latency_seconds=latency,
                    queue_seconds=queue_waits[index],
                    batch_id=mb.batch_id, batch_num_nodes=mb.num_nodes,
                    batch_num_requests=mb.num_requests, tenant=request.tenant, **fields,
                )
            )
        return latencies

    def _replay(self, unit: DispatchUnit, recorded: CachedResult) -> None:
        """Answer a unit of one from the result cache, bypassing the pool.

        Per-node outputs are independent of batch order and composition, so
        gathering the recorded canonical-order arrays through ``rank``
        reproduces exactly what a worker would compute.  The recorded
        MAC/timing breakdowns describe the original execution — the stats fold
        them into the *replayed* accumulators, never into the computed ones.
        """
        micro_batch = unit.members[0]
        completed_at = self.clock.now()
        # A replay is answered at dispatch, so the full latency *is* the queue wait.
        waits = [completed_at - request.enqueued_at for request in micro_batch.requests]
        latencies = self._scatter(
            micro_batch, recorded.predictions[unit.rank], recorded.depths[unit.rank],
            0, completed_at, waits,
            cache_hit=False, worker_id=-1, result_cache_hit=True,
            batch_macs=recorded.macs, batch_timings=recorded.timings,
        )
        if unit.batch_ctx is not None:
            # A replay is answered at dispatch: zero-duration compute.
            self.tracer.emit(
                "batch.replay", unit.batch_ctx, completed_at, completed_at,
                batch_id=micro_batch.batch_id, num_nodes=micro_batch.num_nodes,
            )
            self._emit_queue_waits(unit, completed_at)
            self._emit_request_spans(unit, completed_at, result_cache_hit=True)
        self._stats.record_replayed_batch(
            num_nodes=micro_batch.num_nodes, num_requests=micro_batch.num_requests,
            macs=recorded.macs, latencies=latencies, queue_waits=latencies,
        )
        self._release(micro_batch.num_requests)

    def _fail(self, unit: DispatchUnit, error: BaseException) -> None:
        """Fail every request of a unit, whichever stage gave up on it."""
        for _, request in unit.requests():
            request._fail(error)
        if self.tracer is not None:
            self._emit_request_spans(unit, self.clock.now(), status="failed", error=str(error))
        self._stats.record_failure(unit.num_requests)
        self._release(unit.num_requests)

    def _emit_queue_waits(self, unit: DispatchUnit, end: float) -> None:
        """One ``queue.wait`` span per traced member request, ending at ``end``."""
        for mb, request in unit.requests():
            if request.trace is not None:
                self.tracer.emit_under(
                    "queue.wait", request.trace, request.enqueued_at, end, batch_id=mb.batch_id
                )

    def _emit_request_spans(self, unit: DispatchUnit, end: float, **attributes) -> None:
        """Close the root ``request`` span of every traced member request."""
        for mb, request in unit.requests():
            if request.trace is not None:
                self.tracer.emit(
                    "request", request.trace, request.enqueued_at, end,
                    request_id=request.request_id, num_nodes=request.num_nodes,
                    batch_id=mb.batch_id, **attributes,
                )
