"""Parallel worker pool executing micro-batches on private batch engines.

Each worker owns one :class:`~repro.core.inference.BatchEngine` — its own
grow-only double buffers and raw-CSR scratch state — while sharing the
prepared read-only deployment (features, normalized adjacency, stationary
vectors, classifiers) with every sibling.  Independent micro-batches
therefore run concurrently without contention, and the per-worker
MAC/timing breakdowns merge into exactly the sequential accounting.

One Python thread per worker: the propagation hot path spends its time in
scipy's compiled ``csr_matvecs`` and numpy kernels, which run outside the
interpreter lock, so threads overlap on multi-core machines while sharing
the deployment state — and pre-built support bundles — zero-copy.
"""

from __future__ import annotations

import threading
import queue as _queue_mod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.inference import InferenceResult, NAIPredictor
from ..exceptions import ConfigurationError, ServingError
from ..graph.sampling import SupportBundle


@dataclass
class WorkItem:
    """One micro-batch handed to the pool.

    ``bundle`` carries the sampling products when the dispatcher resolved
    them (from the subgraph cache, or freshly built on a miss);
    ``bundle_is_fresh`` marks the latter so the worker folds the build cost
    into the result's sampling time, keeping the merged accounting equal to
    a sequential run.  A cache *hit* contributes no sampling time — that is
    the saving the cache exists for.
    """

    batch_id: int
    node_ids: np.ndarray
    bundle: SupportBundle | None
    bundle_is_fresh: bool
    callback: Callable[["WorkOutput"], None]
    #: Pre-allocated ``engine.compute`` trace context (``None`` untraced).
    #: The worker emits the span at this exact id and activates it around
    #: ``run_batch``, so in-engine fetch rounds nest under the compute span.
    trace: object | None = None


@dataclass
class WorkOutput:
    """Completion record delivered to the :class:`WorkItem` callback."""

    batch_id: int
    result: InferenceResult | None
    worker_id: int
    error: BaseException | None


_SHUTDOWN = object()


class WorkerPool:
    """Fans independent micro-batches out across worker threads."""

    def __init__(self, predictor: NAIPredictor, *, num_workers: int, tracer=None) -> None:
        if num_workers < 1:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        if not predictor.prepared:
            raise ServingError(
                "the predictor must be prepared before building a WorkerPool"
            )
        self.predictor = predictor
        self.num_workers = num_workers
        #: Optional :class:`~repro.obs.Tracer` for per-batch compute spans.
        self.tracer = tracer
        self._closed = False
        self._inbox: _queue_mod.SimpleQueue = _queue_mod.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._thread_loop,
                args=(worker_id,),
                name=f"nai-worker-{worker_id}",
                daemon=True,
            )
            for worker_id in range(num_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    def submit(self, item: WorkItem) -> None:
        """Queue ``item``; its callback fires on a worker thread."""
        if self._closed:
            raise ServingError("the worker pool is shut down")
        self._inbox.put(item)

    def _thread_loop(self, worker_id: int) -> None:
        engine = self.predictor.make_engine()
        while True:
            item = self._inbox.get()
            if item is _SHUTDOWN:
                break
            try:
                tracer = self.tracer
                if tracer is not None and item.trace is not None:
                    compute_start = tracer.clock.now()
                    with tracer.activate(item.trace):
                        result = engine.run_batch(item.node_ids, bundle=item.bundle)
                    tracer.emit(
                        "engine.compute",
                        item.trace,
                        compute_start,
                        tracer.clock.now(),
                        batch_id=item.batch_id,
                        worker_id=worker_id,
                        num_nodes=int(item.node_ids.shape[0]),
                        macs=int(result.macs.total),
                    )
                else:
                    result = engine.run_batch(item.node_ids, bundle=item.bundle)
                if item.bundle is not None and item.bundle_is_fresh:
                    # The engine skips sampling accounting for provided
                    # bundles; a freshly built one is real work, so its cost
                    # lands in the breakdown exactly as in a sequential run.
                    result.timings.sampling += item.bundle.build_seconds
                output = WorkOutput(item.batch_id, result, worker_id, None)
            except BaseException as error:  # noqa: BLE001 - forwarded to caller
                output = WorkOutput(item.batch_id, None, worker_id, error)
            item.callback(output)

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the workers after the already-queued items finish."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._inbox.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()
