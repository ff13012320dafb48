"""Bounded request queue with backpressure for the online serving layer.

Requests enter through :meth:`RequestQueue.put`, which enforces the
:class:`~repro.core.config.ServingConfig` overflow policy: ``"block"`` makes
the submitter wait for space, ``"reject"`` raises
:class:`~repro.exceptions.BackpressureError` at the submitter, and
``"shed_oldest"`` admits the new request by failing the oldest queued one.
The dynamic micro-batcher (:mod:`repro.serving.batcher`) drains the queue in
FIFO order.

A request doubles as the caller's handle on the eventual result:
:meth:`InferenceRequest.result` blocks until the serving pipeline fulfils or
fails it.

All timestamps and bounded waits go through an injectable
:class:`~repro.serving.clock.Clock`, so tests drive the queue on a
:class:`~repro.serving.clock.FakeClock` without real sleeps.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.inference import MACBreakdown, TimingBreakdown
from ..exceptions import BackpressureError, ConfigurationError, ServingError
from .clock import MONOTONIC_CLOCK, Clock

#: Sentinel for "start a fresh trace" — distinct from ``None`` (explicitly
#: untraced), so callers can still opt a request out of tracing entirely.
NEW_TRACE = object()


@dataclass(frozen=True)
class SubmitOptions:
    """Uniform per-request options of every ``submit`` surface.

    Accepted identically by :meth:`repro.serving.InferenceServer.submit`
    and :meth:`repro.shard.ShardRouter.submit`, so a caller can swap a
    single server for a routed fleet (or back) without touching call
    sites.

    Attributes
    ----------
    timeout:
        Bound on the submitter's wait for queue admission under the
        ``"block"`` overflow policy (not on serving itself).
    trace_parent:
        ``NEW_TRACE`` (default) starts a fresh trace per request when the
        target is traced; ``None`` opts the request out of tracing; any
        :class:`~repro.obs.TraceContext` makes the request a child span of
        it (the router threads its route context through this).
    tenant:
        Opaque tenant tag echoed on the request and its response —
        the hook for per-tenant accounting and QoS layers.
    """

    timeout: float | None = None
    trace_parent: object = NEW_TRACE
    tenant: str | None = None


@dataclass(frozen=True)
class ServingResponse:
    """Per-request outcome of one served inference.

    ``predictions``/``depths`` cover exactly the request's ``node_ids`` (in
    request order), sliced out of the micro-batch the request rode in.  The
    ``batch_*`` fields describe that micro-batch: its MAC/timing breakdowns
    are *shared* by every request it carried, so aggregations must deduplicate
    by ``batch_id`` (sum over distinct batches) rather than over responses.
    """

    request_id: int
    node_ids: np.ndarray
    predictions: np.ndarray
    depths: np.ndarray
    latency_seconds: float
    queue_seconds: float
    cache_hit: bool
    worker_id: int
    batch_id: int
    batch_num_nodes: int
    batch_num_requests: int
    batch_macs: MACBreakdown
    batch_timings: TimingBreakdown
    #: True when the batch was answered from the result cache: ``batch_macs``
    #: then describes the *recorded* execution being replayed, not work done
    #: for this response (``worker_id`` is -1 — no worker ran).
    result_cache_hit: bool = False
    #: Tenant tag of the originating request (see :class:`SubmitOptions`).
    tenant: str | None = None
    #: Number of micro-batches fused into the wave this response's batch
    #: rode in (1 = no wave; ``batch_macs`` is then the full batch cost,
    #: otherwise it is this batch's exact attributed share of the union
    #: sweep — distinct batch ids still sum to the executed total).
    wave_width: int = 1


def checked_node_ids(node_ids, num_nodes: int | None = None) -> np.ndarray:
    """``node_ids`` as a non-empty 1-D int64 array, each id in ``[0, num_nodes)``.

    The front doors (:meth:`repro.serving.InferenceServer.submit`,
    :meth:`repro.shard.ShardRouter.submit`) check the range before a request
    is queued, so a bad id fails its own request with a
    :class:`~repro.exceptions.ConfigurationError` and never the batch it
    would have joined.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.ndim != 1 or node_ids.size == 0:
        raise ConfigurationError(
            "an inference request needs a non-empty 1-D array of node ids"
        )
    if num_nodes is not None and (node_ids.min() < 0 or node_ids.max() >= num_nodes):
        raise ConfigurationError(
            f"node ids must lie in [0, {num_nodes}), got "
            f"[{int(node_ids.min())}, {int(node_ids.max())}]"
        )
    return node_ids


class InferenceRequest:
    """One queued inference request and the caller's future on its response."""

    def __init__(
        self,
        request_id: int,
        node_ids: np.ndarray,
        *,
        enqueued_at: float | None = None,
        trace=None,
        tenant: str | None = None,
    ) -> None:
        self.request_id = request_id
        self.node_ids = checked_node_ids(node_ids)
        #: Root :class:`~repro.obs.TraceContext` of this request, or ``None``
        #: when untraced (tracing off, or the sampler skipped it).
        self.trace = trace
        #: Tenant tag from :class:`SubmitOptions`, echoed on the response.
        self.tenant = tenant
        # The server stamps requests with its clock; standalone construction
        # falls back to real time so batcher deadlines still make sense.
        self.enqueued_at = (
            MONOTONIC_CLOCK.now() if enqueued_at is None else enqueued_at
        )
        self._done = threading.Event()
        self._response: ServingResponse | None = None
        self._error: BaseException | None = None

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    # -- caller side ----------------------------------------------------- #
    def done(self) -> bool:
        """Whether a response (or failure) is available without blocking."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServingResponse:
        """Block until the request is served; raise its failure if it failed."""
        if not self._done.wait(timeout):
            raise ServingError(
                f"request {self.request_id} not completed within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    # -- serving side ---------------------------------------------------- #
    def _fulfill(self, response: ServingResponse) -> None:
        self._response = response
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


class RequestQueue:
    """Thread-safe bounded FIFO of :class:`InferenceRequest` objects."""

    def __init__(
        self,
        capacity: int,
        overflow_policy: str = "block",
        *,
        clock: Clock | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity must be positive, got {capacity}")
        if overflow_policy not in ("block", "reject", "shed_oldest"):
            raise ConfigurationError(
                f"unknown overflow policy {overflow_policy!r}"
            )
        self.capacity = capacity
        self.overflow_policy = overflow_policy
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._items: deque[InferenceRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.submitted = 0
        self.rejected = 0
        self.shed = 0
        self.max_depth = 0
        #: Optional hook invoked (outside the failing path, inside the lock)
        #: with each shed request — the server uses it to release in-flight
        #: accounting for requests that never reach a worker.
        self.on_shed: callable | None = None

    # -- producer side --------------------------------------------------- #
    def put(self, request: InferenceRequest, timeout: float | None = None) -> None:
        """Enqueue ``request``, applying the overflow policy when full.

        Under the ``"block"`` policy, ``timeout`` bounds the *total* wait: a
        wakeup that finds the queue refilled by a competing producer resumes
        waiting for the remaining time only, and raises
        :class:`~repro.exceptions.BackpressureError` once the deadline
        passes.
        """
        deadline = None if timeout is None else self.clock.now() + timeout
        with self._lock:
            if self._closed:
                raise ServingError("the request queue is closed")
            while len(self._items) >= self.capacity:
                if self.overflow_policy == "reject":
                    self.rejected += 1
                    raise BackpressureError(
                        f"request queue full ({self.capacity} requests); "
                        f"request {request.request_id} rejected"
                    )
                if self.overflow_policy == "shed_oldest":
                    victim = self._items.popleft()
                    victim._fail(
                        BackpressureError(
                            f"request {victim.request_id} shed to admit "
                            f"request {request.request_id}"
                        )
                    )
                    self.shed += 1
                    if self.on_shed is not None:
                        self.on_shed(victim)
                    continue
                remaining = None if deadline is None else deadline - self.clock.now()
                if remaining is not None and remaining <= 0:
                    self.rejected += 1
                    raise BackpressureError(
                        f"request queue stayed full for {timeout}s; "
                        f"request {request.request_id} rejected"
                    )
                self.clock.wait_on(self._not_full, remaining)
                if self._closed:
                    raise ServingError("the request queue is closed")
            self._items.append(request)
            self.submitted += 1
            self.max_depth = max(self.max_depth, len(self._items))
            self._not_empty.notify()

    # -- consumer side --------------------------------------------------- #
    def pop(self, timeout: float | None = None) -> InferenceRequest | None:
        """Pop the head request; ``None`` on timeout or when closed and empty."""
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                if not self.clock.wait_on(self._not_empty, timeout):
                    return None
            request = self._items.popleft()
            self._not_full.notify()
            return request

    def pop_within(
        self, node_budget: int, timeout: float | None = None
    ) -> tuple[str, InferenceRequest | None]:
        """Pop the head request only if it fits within ``node_budget`` nodes.

        Returns ``("ok", request)`` when the head fits, ``("too_big", None)``
        when it exists but would overflow the budget (FIFO order is never
        violated to reach a smaller request further back), and
        ``("empty", None)`` after an empty-queue timeout or queue closure.
        """
        with self._lock:
            while not self._items:
                if self._closed:
                    return "empty", None
                if not self.clock.wait_on(self._not_empty, timeout):
                    return "empty", None
            head = self._items[0]
            if head.num_nodes > node_budget:
                return "too_big", None
            self._items.popleft()
            self._not_full.notify()
            return "ok", head

    # -- lifecycle -------------------------------------------------------- #
    @property
    def is_closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def close(self) -> None:
        """Stop accepting requests and wake every waiting producer/consumer.

        Already-queued requests stay poppable — a dispatcher draining the
        queue after close still serves them; anything it does not drain must
        be released with :meth:`drain_pending` so waiting callers fail fast
        instead of timing out.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def drain_pending(
        self, error: BaseException | None = None
    ) -> list[InferenceRequest]:
        """Remove everything still queued, failing each request (shutdown path).

        Every drained request is failed with ``error`` (or a descriptive
        :class:`~repro.exceptions.ServingError` naming the request and the
        shutdown) so callers blocked in ``result(timeout=...)`` wake
        immediately with the real reason instead of running out their
        timeout.  Returns the drained requests for accounting.
        """
        with self._lock:
            pending = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
        for request in pending:
            request._fail(
                error
                if error is not None
                else ServingError(
                    f"request {request.request_id} dropped: the request queue "
                    "was shut down before the request was dispatched"
                )
            )
        return pending
