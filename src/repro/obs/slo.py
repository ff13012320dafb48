"""SLO specifications, multi-window burn rates and alert lifecycle.

Google-SRE-style burn-rate alerting over the windowed health readings of
:class:`~repro.obs.monitor.HealthMonitor`:

* An :class:`SLO` declares an objective — ``"latency"`` (requests slower
  than ``threshold_seconds`` are *bad*) or ``"error_rate"`` (failed
  requests are bad) — and an error budget: the fraction of bad requests
  the service may serve and still meet the objective (``0.05`` for a
  latency SLO is exactly "p95 under the threshold").
* The :class:`SLOEngine` folds every monitor tick into **two** windows
  per SLO, a fast one (1-minute-equivalent by default) and a slow one
  (1-hour-equivalent).  Each window's *burn rate* is the fraction of bad
  events divided by the budget: burn 1.0 spends the budget exactly at the
  sustainable pace, burn 10 exhausts it ten times too fast.  The alert
  condition requires **both** windows to burn above
  ``burn_rate_threshold`` — the fast window makes the alert react in
  seconds, the slow window keeps a brief blip from paging.
* Alerts move ``pending → firing → resolved``: pending while the
  condition holds but ``for_seconds`` has not elapsed, firing after it
  has, resolved once the condition has stayed clear for
  ``resolve_after_seconds`` (hysteresis against flapping).  Every
  transition is emitted as an immutable :class:`Alert` through the
  registered :class:`AlertSink`\\ s — a log sink for operators, an
  in-memory sink for tests, and the auto-rebalancer
  (:class:`~repro.obs.rebalance.AutoRebalancer`) as the closed-loop
  consumer.

All durations are measured on the injectable clock, so under a
:class:`~repro.serving.clock.FakeClock` the "1m"/"1h" windows are virtual
time and the whole lifecycle is deterministic.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

from ..core.config import MonitorConfig
from ..exceptions import ConfigurationError
from ..serving.clock import MONOTONIC_CLOCK, Clock
from .monitor import FleetHealth, SlidingWindow

#: Alert lifecycle states.
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"

_LOGGER = logging.getLogger("repro.obs.slo")


@dataclass(frozen=True)
class SLO:
    """One service-level objective evaluated as a multi-window burn rate."""

    name: str
    #: ``"latency"`` or ``"error_rate"``.
    objective: str
    #: Latency objective only: requests slower than this are bad.
    threshold_seconds: float = 0.0
    #: Allowed fraction of bad requests (the error budget).
    budget_fraction: float = 0.05
    fast_window_seconds: float = 60.0
    slow_window_seconds: float = 3600.0
    #: Both windows must burn faster than this multiple to alert.
    burn_rate_threshold: float = 1.0
    #: Condition must hold this long before ``pending`` becomes ``firing``.
    for_seconds: float = 0.0
    #: Condition must stay clear this long before ``firing`` resolves.
    resolve_after_seconds: float = 30.0
    #: Fast-window event floor below which the condition never holds.
    min_events: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an SLO needs a name")
        if self.objective not in ("latency", "error_rate"):
            raise ConfigurationError(
                f"objective must be 'latency' or 'error_rate', got "
                f"{self.objective!r}"
            )
        if self.objective == "latency" and self.threshold_seconds <= 0:
            raise ConfigurationError(
                f"a latency SLO needs a positive threshold_seconds, got "
                f"{self.threshold_seconds}"
            )
        if not 0.0 < self.budget_fraction < 1.0:
            raise ConfigurationError(
                f"budget_fraction must lie in (0, 1), got {self.budget_fraction}"
            )
        if self.fast_window_seconds <= 0:
            raise ConfigurationError(
                f"fast_window_seconds must be positive, got "
                f"{self.fast_window_seconds}"
            )
        if self.slow_window_seconds < self.fast_window_seconds:
            raise ConfigurationError(
                "slow_window_seconds must be at least fast_window_seconds"
            )
        if self.burn_rate_threshold <= 0:
            raise ConfigurationError(
                f"burn_rate_threshold must be positive, got "
                f"{self.burn_rate_threshold}"
            )
        if self.for_seconds < 0 or self.resolve_after_seconds < 0:
            raise ConfigurationError(
                "for_seconds and resolve_after_seconds must be non-negative"
            )
        if self.min_events < 1:
            raise ConfigurationError(
                f"min_events must be positive, got {self.min_events}"
            )


@dataclass(frozen=True)
class Alert:
    """One alert lifecycle transition (immutable; sinks receive these)."""

    slo: str
    state: str
    at: float
    burn_fast: float
    burn_slow: float
    message: str = ""

    def as_dict(self) -> dict:
        return {
            "slo": self.slo,
            "state": self.state,
            "at": self.at,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "message": self.message,
        }


class AlertSink:
    """Receives every alert transition; subclass and override ``notify``."""

    def notify(self, alert: Alert) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class LogAlertSink(AlertSink):
    """Writes transitions to the ``repro.obs.slo`` logger."""

    def __init__(self, logger: logging.Logger | None = None) -> None:
        self.logger = logger if logger is not None else _LOGGER

    def notify(self, alert: Alert) -> None:
        level = logging.WARNING if alert.state == FIRING else logging.INFO
        self.logger.log(
            level,
            "SLO %s %s (burn fast %.2f, slow %.2f) %s",
            alert.slo,
            alert.state,
            alert.burn_fast,
            alert.burn_slow,
            alert.message,
        )


class MemoryAlertSink(AlertSink):
    """Collects transitions in order — the test/bench observer."""

    def __init__(self) -> None:
        self.alerts: list[Alert] = []

    def notify(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def states(self, slo: str | None = None) -> list[str]:
        """The transition states seen so far (optionally for one SLO)."""
        return [a.state for a in self.alerts if slo is None or a.slo == slo]


class _SLOState:
    """One SLO's burn windows and lifecycle position."""

    def __init__(self, slo: SLO, clock: Clock, num_buckets: int) -> None:
        self.slo = slo

        def window(seconds: float) -> SlidingWindow:
            # Counter-only windows: percentile samples are never read, so
            # a tiny sample cap keeps the slow (1h) window lightweight.
            return SlidingWindow(
                seconds, num_buckets=num_buckets, clock=clock, sample_cap=1
            )

        self.fast_bad = window(slo.fast_window_seconds)
        self.fast_total = window(slo.fast_window_seconds)
        self.slow_bad = window(slo.slow_window_seconds)
        self.slow_total = window(slo.slow_window_seconds)
        self.state = RESOLVED
        self.pending_since: float | None = None
        self.clear_since: float | None = None

    def ingest(self, samples: tuple[float, ...], completed: int, failed: int) -> None:
        if self.slo.objective == "latency":
            bad = sum(1 for s in samples if s > self.slo.threshold_seconds)
            total = len(samples)
        else:
            bad = failed
            total = completed + failed
        if total:
            self.fast_bad.add(bad)
            self.fast_total.add(total)
            self.slow_bad.add(bad)
            self.slow_total.add(total)

    def burn_rates(self) -> tuple[float, float]:
        def burn(bad: SlidingWindow, total: SlidingWindow) -> float:
            events = total.total()
            if events <= 0:
                return 0.0
            return (bad.total() / events) / self.slo.budget_fraction

        return burn(self.fast_bad, self.fast_total), burn(
            self.slow_bad, self.slow_total
        )


class SLOEngine:
    """Evaluates a set of :class:`SLO`\\ s over monitor ticks.

    Feed it with :meth:`tick` (ingest one :class:`FleetHealth`, then
    evaluate) or drive :meth:`ingest`/:meth:`evaluate` separately; each
    evaluation emits the lifecycle transitions through every sink and
    returns them.
    """

    def __init__(
        self,
        slos,
        *,
        sinks=(),
        clock: Clock | None = None,
        num_buckets: int = 12,
    ) -> None:
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        slos = list(slos)
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO names in {names}")
        self._lock = threading.Lock()
        self._states = {
            slo.name: _SLOState(slo, self.clock, num_buckets) for slo in slos
        }
        self.sinks: list[AlertSink] = list(sinks)

    @property
    def slos(self) -> list[SLO]:
        return [state.slo for state in self._states.values()]

    def add_sink(self, sink: AlertSink) -> "SLOEngine":
        self.sinks.append(sink)
        return self

    # ------------------------------------------------------------------ #
    def ingest(self, health: FleetHealth) -> None:
        """Fold one monitor tick's interval deltas into the burn windows."""
        with self._lock:
            for state in self._states.values():
                state.ingest(
                    health.interval_latency_samples,
                    health.interval_completed,
                    health.interval_failed,
                )

    def evaluate(self) -> list[Alert]:
        """Advance every SLO's lifecycle; emit and return the transitions."""
        now = self.clock.now()
        transitions: list[Alert] = []
        with self._lock:
            for state in self._states.values():
                transitions.extend(self._evaluate_one(state, now))
        for alert in transitions:
            for sink in self.sinks:
                sink.notify(alert)
        return transitions

    def tick(self, health: FleetHealth) -> list[Alert]:
        """:meth:`ingest` then :meth:`evaluate` — one call per monitor tick."""
        self.ingest(health)
        return self.evaluate()

    # ------------------------------------------------------------------ #
    def _evaluate_one(self, state: _SLOState, now: float) -> list[Alert]:
        slo = state.slo
        burn_fast, burn_slow = state.burn_rates()
        condition = (
            burn_fast > slo.burn_rate_threshold
            and burn_slow > slo.burn_rate_threshold
            and state.fast_total.total() >= slo.min_events
        )

        def alert(new_state: str, message: str) -> Alert:
            return Alert(
                slo=slo.name,
                state=new_state,
                at=now,
                burn_fast=burn_fast,
                burn_slow=burn_slow,
                message=message,
            )

        transitions: list[Alert] = []
        if state.state == RESOLVED:
            if condition:
                state.pending_since = now
                state.state = PENDING
                transitions.append(alert(PENDING, "burn condition entered"))
        if state.state == PENDING:
            if not condition:
                # Prometheus semantics: a pending alert that clears goes
                # back to inactive silently — it never fired.
                state.state = RESOLVED
                state.pending_since = None
            elif now - state.pending_since >= slo.for_seconds:
                state.state = FIRING
                state.clear_since = None
                transitions.append(
                    alert(FIRING, f"burn sustained for {slo.for_seconds:g}s")
                )
        elif state.state == FIRING:
            if condition:
                state.clear_since = None
            else:
                if state.clear_since is None:
                    state.clear_since = now
                if now - state.clear_since >= slo.resolve_after_seconds:
                    state.state = RESOLVED
                    state.pending_since = None
                    state.clear_since = None
                    transitions.append(
                        alert(
                            RESOLVED,
                            f"clear for {slo.resolve_after_seconds:g}s",
                        )
                    )
        return transitions

    # ------------------------------------------------------------------ #
    def burn_rates(self, name: str) -> tuple[float, float]:
        """Current (fast, slow) burn rates of SLO ``name``."""
        with self._lock:
            return self._states[name].burn_rates()

    def state_of(self, name: str) -> str:
        """Lifecycle state of SLO ``name`` (:data:`PENDING`/...)."""
        with self._lock:
            return self._states[name].state

    def firing(self) -> list[str]:
        """Names of the SLOs currently firing."""
        with self._lock:
            return [
                name
                for name, state in self._states.items()
                if state.state == FIRING
            ]

    def describe(self) -> dict:
        """Per-SLO burn rates and lifecycle states."""
        with self._lock:
            return {
                name: {
                    "objective": state.slo.objective,
                    "state": state.state,
                    "burn_fast": state.burn_rates()[0],
                    "burn_slow": state.burn_rates()[1],
                }
                for name, state in self._states.items()
            }


def slos_from_config(config: MonitorConfig) -> list[SLO]:
    """The SLO set a :class:`~repro.core.config.MonitorConfig` declares.

    A latency SLO when ``latency_slo_threshold_seconds > 0`` and an
    error-rate SLO when ``error_slo_budget_fraction > 0``; both share the
    config's burn-rate threshold, resolve hysteresis and event floor.  The
    latency budget, burn windows and pending hold keep the :class:`SLO`
    defaults.
    """
    common = dict(
        burn_rate_threshold=config.burn_rate_threshold,
        resolve_after_seconds=config.resolve_after_seconds,
        min_events=config.min_alert_events,
    )
    slos: list[SLO] = []
    if config.latency_slo_threshold_seconds > 0:
        slos.append(
            SLO(
                name="latency",
                objective="latency",
                threshold_seconds=config.latency_slo_threshold_seconds,
                **common,
            )
        )
    if config.error_slo_budget_fraction > 0:
        slos.append(
            SLO(
                name="error_rate",
                objective="error_rate",
                budget_fraction=config.error_slo_budget_fraction,
                **common,
            )
        )
    return slos
