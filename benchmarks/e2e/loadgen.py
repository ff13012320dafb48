"""Seeded request streams and the two-thread load generator.

One process, two threads (the box has two cores): the *submitter* sends on
a schedule and the *collector* waits on the handles in submission order.
Open-loop latency counts from the instant a request was **due**, not from
when it was actually sent, so a stall that delays later requests is charged
to them; how late the generator itself ran is reported per phase.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

RESULT_TIMEOUT_S = 30.0
#: A p95 is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
HOT_POOL_SETS = 64
HOT_SET_SIZE = 8
HOT_ZIPF_EXPONENT = 1.1


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def percentile(samples, q: float) -> float:
    """``q``-th percentile, refused unless >= 10 samples lie beyond it."""
    values = np.asarray(samples, dtype=np.float64)
    beyond = values.size * (1.0 - q / 100.0)
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {values.size} samples leaves {beyond:.1f} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return float(np.percentile(values, q))


def try_percentile(samples, q: float) -> float | None:
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return None


# --------------------------------------------------------------------- #
# Request streams: pure functions of (seed, workload, phase).
# --------------------------------------------------------------------- #
def poisson_schedule(
    rng: np.random.Generator, rate: float, seconds: float
) -> np.ndarray:
    """Due offsets (s) of Poisson arrivals at ``rate`` inside ``seconds``."""
    expected = rate * seconds
    gaps = rng.exponential(1.0 / rate, size=int(expected + 6 * expected**0.5) + 16)
    due = np.cumsum(gaps)
    return due[due < seconds]


class RequestStream:
    """The seeded request source of one workload.

    Every phase draws from its own generator, keyed by ``(seed, workload,
    phase)``, so what one phase sends never depends on how many requests a
    timing-dependent phase (saturation) happened to consume before it.

    ``hot=False``: fresh uniform draws of 1-8 distinct nodes — no batch ever
    repeats.  ``hot=True``: Zipf(1.1) picks from 64 recurring 8-node sets,
    node order permuted per use.
    """

    def __init__(self, workload: str, seed: int, pool: np.ndarray, *, hot: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.pool = np.asarray(pool, dtype=np.int64)
        self.sets = None
        if hot:
            nodes = self.rng("hot_sets").choice(
                self.pool, size=HOT_POOL_SETS * HOT_SET_SIZE, replace=False
            )
            self.sets = nodes.reshape(HOT_POOL_SETS, HOT_SET_SIZE)
            weights = 1.0 / np.arange(1, HOT_POOL_SETS + 1) ** HOT_ZIPF_EXPONENT
            self._weights = weights / weights.sum()

    def rng(self, phase: str) -> np.random.Generator:
        key = zlib.crc32(f"{self.workload}/{phase}".encode())
        return np.random.default_rng([self.seed, key])

    def take(self, rng: np.random.Generator, count: int) -> list:
        if self.sets is not None:
            picks = rng.choice(HOT_POOL_SETS, size=count, p=self._weights)
            return [rng.permutation(self.sets[pick]) for pick in picks]
        sizes = rng.integers(1, 9, size=count)
        return [rng.choice(self.pool, size=int(size), replace=False) for size in sizes]

    def requests(self, phase: str, count: int) -> list:
        return self.take(self.rng(phase), count)

    def open_loop(self, phase: str, rate: float, seconds: float):
        """``(requests, due offsets)`` of one open-loop phase."""
        rng = self.rng(phase)
        due = poisson_schedule(rng, rate, seconds)
        return self.take(rng, len(due)), due

    def endless(self, phase: str):
        rng = self.rng(phase)
        while True:
            yield from self.take(rng, 256)


# --------------------------------------------------------------------- #
@dataclass
class PhaseResult:
    """What one phase sent, what came back, and how late the generator ran."""

    name: str
    seconds: float
    rate: float | None = None
    sent: int = 0
    succeeded: int = 0
    #: refused (submit raised) / failed (result raised or timed out) / mismatch.
    failures: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: Per successful request, in submission order.
    due_s: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)
    lateness_ms: list = field(default_factory=list)
    done_s: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    fanout: list = field(default_factory=list)
    #: One tuple per shard sub-response: (shard, batch_id, queue_ms,
    #: batch_nodes, batch_requests, wave_width).
    parts: list = field(default_factory=list)
    drain_s: float = 0.0
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def count_failure(self, kind: str, error=None) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if error is not None and len(self.errors) < 5:
            self.errors.append(f"{kind}: {error!r}")

    def lateness_p95_ms(self) -> float | None:
        return try_percentile(self.lateness_ms, 95) if self.lateness_ms else None

    def valid(self) -> bool:
        """Generator lateness p95 within a tenth of the latency median."""
        late = self.lateness_p95_ms()
        if late is None or not self.latency_ms:
            return False
        return late <= 0.1 * float(np.median(self.latency_ms))

    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        """Latencies of the requests due in each half of the phase."""
        due = np.asarray(self.due_s)
        latency = np.asarray(self.latency_ms)
        first = due < self.seconds / 2
        return latency[first], latency[~first]

    def summary(self) -> dict:
        return {
            "rate_rps": self.rate,
            "seconds": self.seconds,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "failures": dict(self.failures),
            "errors": list(self.errors),
            "failed_share": self.failed / self.sent if self.sent else 0.0,
            "samples": len(self.latency_ms),
            "latency_p50_ms": (
                float(np.median(self.latency_ms)) if self.latency_ms else None
            ),
            "latency_p95_ms": try_percentile(self.latency_ms, 95),
            "lateness_p95_ms": self.lateness_p95_ms(),
            "valid": self.valid() if self.rate else None,
            "drain_s": self.drain_s,
            "wall_s": self.wall_s,
        }


class LoadGenerator:
    """Drives ``submit`` and checks every response with ``check``.

    ``submit(node_ids)`` returns a handle whose ``result(timeout=)`` yields a
    response carrying ``latency_seconds`` (and, for a routed fleet,
    ``per_shard``); ``check(node_ids, response)`` is the oracle lookup.
    """

    def __init__(self, submit, check, *, clock=time.perf_counter, sleep=time.sleep):
        self.submit = submit
        self.check = check
        self.clock = clock
        self.sleep = sleep

    # -- collector thread ------------------------------------------------ #
    def _collect(self, handoff, result: PhaseResult, start: float, slots) -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            node_ids, handle, due, late = item
            try:
                response = handle.result(timeout=RESULT_TIMEOUT_S)
            except Exception as error:  # boundary: count it, keep collecting
                result.count_failure("failed", error)
                continue
            finally:
                if slots is not None:
                    slots.release()
            done = self.clock() - start
            if not self.check(node_ids, response):
                result.count_failure("mismatch")
                continue
            result.succeeded += 1
            result.due_s.append(due)
            result.lateness_ms.append(late * 1e3)
            result.latency_ms.append((late + response.latency_seconds) * 1e3)
            result.done_s.append(done)
            result.nodes.append(len(node_ids))
            per_shard = getattr(response, "per_shard", None) or {}
            result.fanout.append(len(per_shard))
            for shard_id, part in per_shard.items():
                result.parts.append((
                    shard_id,
                    part.batch_id,
                    part.queue_seconds * 1e3,
                    part.batch_num_nodes,
                    part.batch_num_requests,
                    part.wave_width,
                ))

    def _send(self, handoff, result: PhaseResult, node_ids, due: float, late: float):
        result.sent += 1
        try:
            handle = self.submit(node_ids)
        except Exception as error:  # boundary: a refusal is a failed request
            result.count_failure("refused", error)
            return False
        handoff.put((node_ids, handle, due, late))
        return True

    def _run(self, result: PhaseResult, body, slots=None) -> PhaseResult:
        handoff: queue.SimpleQueue = queue.SimpleQueue()
        start = self.clock()
        collector = threading.Thread(
            target=self._collect, args=(handoff, result, start, slots), daemon=True
        )
        collector.start()
        try:
            body(handoff, start)
        finally:
            sent_all = self.clock()
            handoff.put(None)
            collector.join()
        end = self.clock()
        result.drain_s = end - max(sent_all, start + result.seconds)
        result.wall_s = end - start
        return result

    # -- submitter (the calling thread) ---------------------------------- #
    def open_loop(self, name: str, requests, due, *, rate: float, seconds: float):
        """Send ``requests[i]`` at ``start + due[i]`` regardless of replies."""
        result = PhaseResult(name=name, seconds=seconds, rate=rate)

        def body(handoff, start):
            for node_ids, offset in zip(requests, due):
                delay = start + offset - self.clock()
                if delay > 0:
                    self.sleep(delay)
                late = max(0.0, self.clock() - (start + offset))
                self._send(handoff, result, node_ids, float(offset), late)

        return self._run(result, body)

    def saturate(self, name: str, requests, *, seconds: float, outstanding: int):
        """Keep ``outstanding`` requests in flight for ``seconds``."""
        result = PhaseResult(name=name, seconds=seconds)
        slots = threading.Semaphore(outstanding)

        def body(handoff, start):
            deadline = start + seconds
            for node_ids in requests:
                remaining = deadline - self.clock()
                if remaining <= 0 or not slots.acquire(timeout=remaining):
                    return
                if not self._send(handoff, result, node_ids, self.clock() - start, 0.0):
                    slots.release()

        return self._run(result, body, slots)

    def call(self, result: PhaseResult, node_ids) -> float | None:
        """One request, waited for on the calling thread and counted into
        ``result``; returns its wall time (submit to result) in ms."""
        result.sent += 1
        began = self.clock()
        try:
            response = self.submit(node_ids).result(timeout=RESULT_TIMEOUT_S)
        except Exception as error:  # boundary: count it, keep going
            result.count_failure("failed", error)
            return None
        wall = (self.clock() - began) * 1e3
        if self.check(node_ids, response):
            result.succeeded += 1
            result.fanout.append(len(getattr(response, "per_shard", None) or {}))
        else:
            result.count_failure("mismatch")
        return wall


def window_rate(result: PhaseResult, lo: float, hi: float, weights=None) -> float:
    """Completions (or summed ``weights``) per second inside ``[lo, hi)``."""
    done = np.asarray(result.done_s)
    inside = (done >= lo) & (done < hi)
    total = inside.sum() if weights is None else np.asarray(weights)[inside].sum()
    return float(total) / (hi - lo)
