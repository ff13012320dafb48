"""Adaptive micro-batching controllers: batch limits that track load.

The micro-batcher's two knobs — ``max_batch_size`` nodes and
``max_wait_ms`` of the oldest request — were static configuration until
this module: the server either over-waited when idle (a wide budget nobody
fills) or under-batched under load (a narrow budget while the queue grows).
The paper's node-adaptive propagation spends work only where nodes need it;
a :class:`BatchController` applies the same idea to *batching*: batch width
should follow a quantity the server measures, not a config constant (the
serving-side reading of the paper's batch-size study, Figure 5, and of the
large-scale analysis in Gao et al., 2022).

Two policies implement the interface:

:class:`StaticPolicy`
    The previous behavior and the default — always returns the configured
    ``(max_batch_size, max_wait_ms)``.  Zero adjustments, zero surprises.

:class:`MarginalLatencyPolicy`
    The adaptive policy.  Maintains an online linear cost model
    ``service(n) ≈ a + b·n`` from observed batch service times and picks the
    widest batch whose estimated completion latency stays under a target
    SLO, spending the remaining latency slack as coalescing wait.  Its only
    setting is the SLO; the operating point is learned, not hand-set.

Every policy is deterministic: decisions depend only on the observed
sequence of ``(queue_depth, oldest_wait, service samples)``, so the whole
control loop is exactly reproducible on a
:class:`~repro.serving.clock.FakeClock`.  Controllers never change *what* is
computed — per-node predictions, exit depths and MACs are independent of
batch composition — only how requests are grouped and how long they wait.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = [
    "BatchController",
    "BatchLimits",
    "MarginalLatencyPolicy",
    "StaticPolicy",
    "build_controller",
]


@dataclass(frozen=True)
class BatchLimits:
    """The batcher's operating point for one micro-batch."""

    max_batch_size: int
    max_wait_seconds: float


class BatchController(ABC):
    """Policy interface the micro-batcher consults before forming a batch.

    ``limits`` runs on the dispatcher thread (once per micro-batch);
    ``observe_batch`` runs on worker completion threads.  Implementations
    guard their state with :attr:`_lock` so the two never race, and count
    every change of the returned limits in :attr:`adjustments`.
    """

    name: str = "controller"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._adjustments = 0
        self._last_limits: BatchLimits | None = None

    @property
    def adjustments(self) -> int:
        """How many times the returned limits changed between decisions."""
        with self._lock:
            return self._adjustments

    def limits(self, *, queue_depth: int, oldest_wait_seconds: float) -> BatchLimits:
        """The operating point for the batch about to be formed.

        ``queue_depth`` counts every request the batch could coalesce
        (including the already-popped head); ``oldest_wait_seconds`` is how
        long the head has already waited.
        """
        with self._lock:
            decided = self._decide(
                queue_depth=queue_depth,
                oldest_wait_seconds=oldest_wait_seconds,
            )
            if self._last_limits is not None and decided != self._last_limits:
                self._adjustments += 1
            self._last_limits = decided
            return decided

    def observe_batch(
        self,
        *,
        num_nodes: int,
        num_requests: int,
        service_seconds: float,
        queue_depth: int,
    ) -> None:
        """Feedback after a micro-batch completes (default: ignored)."""

    @abstractmethod
    def _decide(self, *, queue_depth: int, oldest_wait_seconds: float) -> BatchLimits:
        """Compute the next limits; runs under :attr:`_lock`."""

    def describe(self) -> dict:
        """JSON-ready description of the policy and its current state."""
        with self._lock:
            return self._describe_locked()

    def _describe_locked(self) -> dict:
        """Build the description; runs under :attr:`_lock` (subclasses extend
        this, not :meth:`describe`, so their state reads stay atomic)."""
        last = self._last_limits
        return {
            "policy": self.name,
            "adjustments": self._adjustments,
            "max_batch_size": last.max_batch_size if last else None,
            "max_wait_seconds": last.max_wait_seconds if last else None,
        }


class StaticPolicy(BatchController):
    """The pre-controller behavior: fixed limits from the config."""

    name = "static"

    def __init__(self, max_batch_size: int, max_wait_seconds: float) -> None:
        super().__init__()
        if max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_wait_seconds < 0:
            raise ConfigurationError(
                f"max_wait_seconds must be non-negative, got {max_wait_seconds}"
            )
        self._limits = BatchLimits(max_batch_size, max_wait_seconds)
        self._last_limits = self._limits

    def _decide(self, *, queue_depth: int, oldest_wait_seconds: float) -> BatchLimits:
        return self._limits


class MarginalLatencyPolicy(BatchController):
    """Pick the widest batch whose estimated latency fits under an SLO.

    The policy fits ``service(n) = a + b·n`` online from completed-batch
    samples ``(num_nodes, service_seconds)`` by running least squares (five
    scalar accumulators, O(1) per observation).  Once the model is usable
    (two distinct widths observed and a non-negative marginal cost ``b``),
    each decision returns the widest width ``w`` in
    ``[base_batch_size, batch_size_ceiling]`` with

        ``a + b·w <= slo_seconds``

    — the marginal latency each extra node adds is ``b``, so this is the
    point past which batching deeper would spend the SLO on compute — and a
    wait budget of the remaining slack ``slo - service(w)`` (clamped to the
    configured ceiling): time the SLO leaves for coalescing.  When even the
    base width exceeds the SLO estimate the policy degrades to the base
    limits with zero wait (latency-first).  Before the model is usable it
    returns the base limits unchanged.
    """

    name = "marginal_latency"

    def __init__(
        self,
        *,
        slo_seconds: float,
        base_batch_size: int,
        batch_size_ceiling: int,
        wait_seconds_ceiling: float,
        base_wait_seconds: float = 0.0,
    ) -> None:
        super().__init__()
        if slo_seconds <= 0:
            raise ConfigurationError(f"slo_seconds must be positive, got {slo_seconds}")
        if base_batch_size < 1:
            raise ConfigurationError(f"base_batch_size must be positive, got {base_batch_size}")
        if batch_size_ceiling < base_batch_size:
            raise ConfigurationError(
                f"batch_size_ceiling ({batch_size_ceiling}) must be >= "
                f"base_batch_size ({base_batch_size})"
            )
        if base_wait_seconds < 0 or wait_seconds_ceiling < 0:
            raise ConfigurationError("wait budgets must be non-negative")
        self.slo_seconds = slo_seconds
        self.base_batch_size = base_batch_size
        self.batch_size_ceiling = batch_size_ceiling
        self.base_wait_seconds = base_wait_seconds
        self.wait_seconds_ceiling = wait_seconds_ceiling
        # Running least-squares accumulators over (n, t) samples.
        self._count = 0
        self._sum_n = 0.0
        self._sum_t = 0.0
        self._sum_nn = 0.0
        self._sum_nt = 0.0
        self._widths: set[int] = set()
        # Adjustments count the first model-driven move off the base point.
        self._last_limits = BatchLimits(base_batch_size, base_wait_seconds)

    def observe_batch(
        self,
        *,
        num_nodes: int,
        num_requests: int,
        service_seconds: float,
        queue_depth: int,
    ) -> None:
        with self._lock:
            self._count += 1
            self._sum_n += num_nodes
            self._sum_t += service_seconds
            self._sum_nn += num_nodes * num_nodes
            self._sum_nt += num_nodes * service_seconds
            self._widths.add(num_nodes)

    def _model(self) -> tuple[float, float] | None:
        """``(a, b)`` of the fitted cost line, or ``None`` while unusable."""
        if len(self._widths) < 2:
            return None
        denominator = self._count * self._sum_nn - self._sum_n * self._sum_n
        if denominator <= 0:
            return None
        slope = (self._count * self._sum_nt - self._sum_n * self._sum_t) / denominator
        intercept = (self._sum_t - slope * self._sum_n) / self._count
        if slope < 0:
            # Noise dominates (bigger batches measured faster); an inverted
            # model would argue for infinite batches — wait for better data.
            return None
        return intercept, slope

    def _decide(self, *, queue_depth: int, oldest_wait_seconds: float) -> BatchLimits:
        model = self._model()
        if model is None:
            return BatchLimits(self.base_batch_size, self.base_wait_seconds)
        intercept, slope = model
        if intercept + slope * self.base_batch_size > self.slo_seconds:
            # Even the narrowest batch blows the SLO estimate: stop waiting,
            # serve latency-first at the base width.
            return BatchLimits(self.base_batch_size, 0.0)
        if slope == 0:
            width = self.batch_size_ceiling
        else:
            width = int((self.slo_seconds - intercept) / slope)
            width = min(max(width, self.base_batch_size), self.batch_size_ceiling)
        slack = self.slo_seconds - (intercept + slope * width)
        wait = min(max(slack, 0.0), self.wait_seconds_ceiling)
        return BatchLimits(width, wait)

    def _describe_locked(self) -> dict:
        payload = super()._describe_locked()
        model = self._model()
        payload["slo_seconds"] = self.slo_seconds
        payload["samples"] = self._count
        if model is None:
            payload["model"] = None
        else:
            payload["model"] = {"intercept": model[0], "slope": model[1]}
        return payload


def build_controller(config) -> BatchController:
    """Build the policy named by ``config.batch_policy`` (a ServingConfig).

    The config's static knobs are the base operating point of every policy;
    ``batch_size_ceiling`` / ``wait_ms_ceiling`` (``0`` = same as base)
    bound the adaptive one.
    """
    base_wait = config.max_wait_ms / 1e3
    ceiling_width = config.batch_size_ceiling or config.max_batch_size
    ceiling_wait = (config.wait_ms_ceiling or config.max_wait_ms) / 1e3
    if config.batch_policy == "static":
        return StaticPolicy(config.max_batch_size, base_wait)
    if config.batch_policy == "marginal_latency":
        return MarginalLatencyPolicy(
            slo_seconds=config.latency_slo_ms / 1e3,
            base_batch_size=config.max_batch_size,
            batch_size_ceiling=ceiling_width,
            base_wait_seconds=base_wait,
            wait_seconds_ceiling=ceiling_wait,
        )
    raise ConfigurationError(f"unknown batch policy {config.batch_policy!r}")
