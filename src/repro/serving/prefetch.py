"""Asynchronous prefetch pipeline: overlap support fetch with engine compute.

The dispatcher of :class:`~repro.serving.InferenceServer` resolves each
micro-batch's supporting subgraph *before* handing it to the worker pool.
On a sharded deployment that resolution is a chain of cross-shard transport
rounds (BFS frontiers, adjacency rows, feature rows), so on a real network
the single dispatcher thread idles for full round-trip times while the pool
sits ready — fetch and compute are serialized (ROADMAP open item 3).

:class:`PrefetchPipeline` removes that stall.  On a subgraph-cache miss the
dispatcher no longer builds the bundle inline: it enqueues the dispatch unit
itself (a unit of one micro-batch or a fused wave — the pipeline never looks
inside) and immediately returns to forming the next one, while a small
crew of fetcher threads (``ServingConfig.prefetch_depth`` of them, each
owning a private engine for its transport state) drives the fetch rounds and
submits the finished batch to the pool itself.  Batch N+1's fetch rounds
thus run while batch N computes — and, at depth > 1, while batch N+2's
rounds are in flight too.  A bounded semaphore caps the number of
speculative fetches outstanding, so the pipeline is double-buffered rather
than unbounded.

Correctness is unchanged by construction: the pipeline moves *where* a
support bundle is built, never *what* is built.  Bundles are keyed by the
canonical node-set, interchangeable per key, and sampling executes no
MAC-counted work, so prefetch-enabled serving is bit-identical in
predictions, exit depths and MAC totals to serialized execution (the fuzz
suite asserts it across transports, shard counts, injected RTTs and kill
schedules).  Only scheduling-dependent *statistics* may differ: two
identical batches in flight at once can both miss the cache (the second
looks up before the first's bundle lands) where serialized execution would
have scored a hit.

:class:`BusyTracker` provides the overlap accounting: it integrates the
wall time during which at least one worker was computing, and each prefetch
credits the busy seconds that elapsed during its fetch as
``prefetch_overlap_seconds`` — a fetch with positive overlap is a
``prefetch_hit`` (the stall it hid was real).

Shutdown is explicit and strand-free: :meth:`PrefetchPipeline.stop` wakes
the fetchers, joins them, and *cancels* every task still queued through the
owner's failure path, which releases the requests' in-flight slots — a
draining server never waits on a fetch that will not happen.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from ..exceptions import ConfigurationError, ServingError


class BusyTracker:
    """Integrates the wall seconds during which any tracked work was active.

    ``enter()``/``exit()`` bracket each unit of work (the server brackets
    pool compute); overlapping units are merged — the tracker accumulates
    the *union* of the active intervals, not their sum.  Reading
    :meth:`busy_seconds` before and after a fetch yields the compute time
    that elapsed concurrently with it: the overlap the prefetch pipeline
    exists to create.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._active = 0
        self._accumulated = 0.0
        self._since = 0.0

    def enter(self) -> None:
        now = self.clock.now()
        with self._lock:
            if self._active == 0:
                self._since = now
            self._active += 1

    def exit(self) -> None:
        now = self.clock.now()
        with self._lock:
            self._active -= 1
            if self._active == 0:
                self._accumulated += now - self._since

    def busy_seconds(self) -> float:
        """Total busy wall time so far, including the open interval."""
        now = self.clock.now()
        with self._lock:
            busy = self._accumulated
            if self._active > 0:
                busy += now - self._since
            return busy


class PrefetchPipeline:
    """Bounded crew of fetcher threads that build support bundles off-loop.

    Decoupled from the server through three callables so it is testable in
    isolation:

    * ``make_engine()`` — one private engine per fetcher (engines hold
      per-thread transport/trace state; sampling touches no propagation
      buffers);
    * ``execute(task, engine)`` — build the bundle and submit the batch
      (the server's fetch-and-submit path);
    * ``cancel(task, error)`` — fail the task's requests (the server's one
      failure path).  Invoked for tasks whose ``execute`` raised *and* for
      tasks still queued at :meth:`stop` — every accepted task reaches
      exactly one of ``execute``-completed or ``cancel``.

    A task is opaque here — whatever object the owner queues (the server
    queues its dispatch units) comes back in ``execute`` or ``cancel``.

    ``depth`` bounds the speculation: :meth:`submit` blocks once ``depth``
    tasks are queued or fetching, which is the backpressure that keeps the
    pipeline double-buffered instead of racing ahead of the pool.
    """

    def __init__(
        self,
        *,
        make_engine: Callable[[], Any],
        execute: Callable[[Any, Any], None],
        cancel: Callable[[Any, BaseException], None],
        depth: int,
        name: str = "nai-prefetch",
    ) -> None:
        if depth < 1:
            raise ConfigurationError(
                f"prefetch depth must be positive, got {depth}"
            )
        self.depth = depth
        self._make_engine = make_engine
        self._execute = execute
        self._cancel = cancel
        self._cv = threading.Condition()
        self._tasks: deque[Any] = deque()
        self._slots = threading.BoundedSemaphore(depth)
        self._stopped = False
        self._threads = [
            threading.Thread(target=self._loop, name=f"{name}-{i}", daemon=True)
            for i in range(depth)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    @property
    def stopped(self) -> bool:
        return self._stopped

    def submit(self, task: Any) -> None:
        """Queue one fetch; blocks while ``depth`` tasks are outstanding."""
        # Acquire in short slices so a submitter blocked on a full pipeline
        # notices a concurrent stop() instead of waiting forever.
        while not self._slots.acquire(timeout=0.05):
            if self._stopped:
                raise ServingError("the prefetch pipeline is stopped")
        with self._cv:
            if self._stopped:
                self._slots.release()
                raise ServingError("the prefetch pipeline is stopped")
            self._tasks.append(task)
            self._cv.notify()

    def stop(self, error: BaseException | None = None) -> int:
        """Join the fetchers, cancel everything still queued; returns count.

        In-flight fetches complete (their batches are submitted normally);
        queued tasks are handed to ``cancel`` with ``error`` so their
        requests fail instead of stranding.  Idempotent.
        """
        with self._cv:
            if self._stopped:
                return 0
            self._stopped = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join()
        with self._cv:
            cancelled = list(self._tasks)
            self._tasks.clear()
        if cancelled:
            reason = (
                error
                if error is not None
                else ServingError("prefetch cancelled: the pipeline stopped")
            )
            for task in cancelled:
                try:
                    self._cancel(task, reason)
                finally:
                    self._slots.release()
        return len(cancelled)

    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        engine = self._make_engine()
        while True:
            with self._cv:
                while not self._tasks and not self._stopped:
                    self._cv.wait()
                if self._stopped:
                    # Leave queued tasks in place: stop() cancels them after
                    # the join, through the owner's failure path.
                    return
                task = self._tasks.popleft()
            try:
                self._execute(task, engine)
            except BaseException as error:  # noqa: BLE001 - forwarded per task
                try:
                    self._cancel(task, error)
                except BaseException:  # noqa: BLE001 - fetchers must survive
                    pass
            finally:
                self._slots.release()
