"""Observation-driven shard rebalancing: advisor + opt-in auto loop.

The partitioner places replicas by *predicted* load (accumulated degree —
the traffic proxy under node-adaptive propagation); this module closes
the loop with *observed* load:

* :class:`RebalanceAdvisor` ranks shards by windowed heat (rows served
  per second, from :meth:`~repro.obs.monitor.HealthMonitor.shard_heat`)
  and proposes a new :class:`~repro.shard.partitioner.ShardPlan` through
  the same placement rule the partitioner uses
  (:func:`~repro.shard.partitioner.plan_replicas_for_load`): boost
  replicas on the observed-hot shards, shed them from shards that went
  cold, stamp a strictly newer ``plan.version``.  Ownership never moves —
  a proposal changes only the replica map, so installing it needs no
  repartitioning and cannot change results.
* :class:`AutoRebalancer` is the opt-in actuator: registered as an
  :class:`~repro.obs.slo.AlertSink`, it reacts to a **firing** SLO burn
  alert by asking the advisor for a proposal, preparing a predictor for
  the proposed plan (through the deployment-supplied ``prepare``
  callable — only the deployment still holds the full graph/features)
  and driving the router's versioned
  :meth:`~repro.shard.router.ShardRouter.install_plan` rollout.
  ``cooldown_seconds`` plus the alert lifecycle's own hysteresis
  (``resolve_after_seconds``) keep it from flapping.

Everything here is deterministic given the same heat readings, and the
whole loop is exercised end-to-end in virtual time by
``benchmarks/bench_monitor.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, ServingError
from ..serving.clock import MONOTONIC_CLOCK, Clock
from .monitor import HealthMonitor
from .registry import Sample, counter, gauge
from .slo import FIRING, Alert, AlertSink


@dataclass(frozen=True)
class RebalanceProposal:
    """A proposed plan plus the evidence it was derived from."""

    plan: object
    heat: dict[int, float]
    hot_shards: tuple[int, ...]
    #: Per-shard replica counts before/after (only shards that changed).
    boosted: dict[int, tuple[int, int]]
    shed: dict[int, tuple[int, int]]

    def diff(self) -> dict:
        """JSON-ready before/after view (the demo prints this)."""
        return {
            "version": self.plan.version,
            "hot_shards": list(self.hot_shards),
            "heat": {str(s): h for s, h in sorted(self.heat.items())},
            "boosted": {
                str(s): {"from": old, "to": new}
                for s, (old, new) in sorted(self.boosted.items())
            },
            "shed": {
                str(s): {"from": old, "to": new}
                for s, (old, new) in sorted(self.shed.items())
            },
        }


class RebalanceAdvisor:
    """Proposes replica-map changes from windowed per-shard heat.

    Parameters
    ----------
    base_replication:
        Replica floor every shard keeps (rails ``0 .. base-1``).
    boost:
        Extra rails granted to the observed-hot shards.
    hot_fraction:
        Fraction of shards treated as hot (at least one).
    max_rails:
        Physical rail count; proposed replica lists are clamped so the
        plan never references a rail the deployment does not run.
        ``None`` leaves proposals unclamped.
    """

    def __init__(
        self,
        *,
        base_replication: int = 1,
        boost: int = 1,
        hot_fraction: float = 0.25,
        max_rails: int | None = None,
    ) -> None:
        if base_replication < 1:
            raise ConfigurationError(
                f"base_replication must be positive, got {base_replication}"
            )
        if boost < 0:
            raise ConfigurationError(f"boost must be non-negative, got {boost}")
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must lie in (0, 1], got {hot_fraction}"
            )
        if max_rails is not None and max_rails < base_replication:
            raise ConfigurationError(
                f"max_rails ({max_rails}) cannot be below base_replication "
                f"({base_replication})"
            )
        self.base_replication = base_replication
        self.boost = boost
        self.hot_fraction = hot_fraction
        self.max_rails = max_rails

    def propose(self, plan, heat: dict[int, float]) -> RebalanceProposal | None:
        """A newer-versioned plan for ``heat``, or ``None`` if unchanged.

        ``plan`` is the active :class:`~repro.shard.partitioner.ShardPlan`;
        ``heat`` maps shard id to windowed load (missing shards count as
        cold).  Determinism: same plan + same heat → same proposal.
        """
        # Imported lazily: repro.obs must stay importable without pulling
        # the shard package in at module-import time (and vice versa).
        from ..shard.partitioner import plan_replicas_for_load

        num_shards = plan.num_shards
        load = np.zeros(num_shards, dtype=np.float64)
        for shard_id, value in heat.items():
            if 0 <= int(shard_id) < num_shards:
                load[int(shard_id)] = float(value)
        replicas = plan_replicas_for_load(
            load,
            base=self.base_replication,
            boost=self.boost,
            hot_fraction=self.hot_fraction,
        )
        if self.max_rails is not None:
            replicas = tuple(
                tuple(range(min(len(rails), self.max_rails)))
                for rails in replicas
            )
        current = tuple(plan.replicas_of(shard) for shard in range(num_shards))
        if replicas == current:
            return None
        ranked = sorted(range(num_shards), key=lambda s: (-load[s], s))
        num_hot = sum(
            1 for s in range(num_shards) if len(replicas[s]) > self.base_replication
        )
        boosted = {
            s: (len(current[s]), len(replicas[s]))
            for s in range(num_shards)
            if len(replicas[s]) > len(current[s])
        }
        shed = {
            s: (len(current[s]), len(replicas[s]))
            for s in range(num_shards)
            if len(replicas[s]) < len(current[s])
        }
        return RebalanceProposal(
            plan=plan.with_replicas(replicas, version=plan.version + 1),
            heat={int(s): float(load[s]) for s in range(num_shards)},
            hot_shards=tuple(ranked[:num_hot]),
            boosted=boosted,
            shed=shed,
        )


class AutoRebalancer(AlertSink):
    """Drives versioned plan rollouts when an SLO burn alert fires.

    Register it as a sink on the :class:`~repro.obs.slo.SLOEngine`; on a
    ``firing`` transition (for one of the ``watch``\\ ed SLOs, or any SLO
    when ``watch`` is ``None``) it consults the advisor with the
    monitor's current heat and, outside the cooldown, rolls the proposed
    plan through ``router.install_plan``.  Once it has installed a plan, its
    collector on ``router.registry`` exports ``repro_rebalance_installs_total``
    and ``repro_rebalance_last_version``.

    Parameters
    ----------
    router / advisor / monitor:
        The actuated router, the proposal policy and the heat source.
    prepare:
        ``prepare(plan) -> prepared ShardedPredictor`` — supplied by the
        deployment, which still holds the graph/features the store needs
        to build the new generation.
    cooldown_seconds:
        Minimum spacing between installs (hysteresis on top of the alert
        lifecycle's ``resolve_after_seconds``).
    """

    def __init__(
        self,
        router,
        advisor: RebalanceAdvisor,
        prepare,
        *,
        monitor: HealthMonitor,
        cooldown_seconds: float = 120.0,
        watch=None,
        clock: Clock | None = None,
    ) -> None:
        if cooldown_seconds < 0:
            raise ConfigurationError(
                f"cooldown_seconds must be non-negative, got {cooldown_seconds}"
            )
        self.router = router
        self.advisor = advisor
        self.prepare = prepare
        self.monitor = monitor
        self.cooldown_seconds = cooldown_seconds
        self.watch = None if watch is None else set(watch)
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._lock = threading.Lock()
        self._last_install_at: float | None = None
        self.installs = 0
        self.last_version: int | None = None
        self.skips: dict[str, int] = {}
        self.history: list[dict] = []
        router.registry.register(self._samples)

    # ------------------------------------------------------------------ #
    def notify(self, alert: Alert) -> None:
        if alert.state != FIRING:
            return
        if self.watch is not None and alert.slo not in self.watch:
            return
        self.rebalance_now(reason=f"slo:{alert.slo}")

    def rebalance_now(self, *, reason: str = "manual") -> RebalanceProposal | None:
        """One advisor consultation + rollout attempt; returns the proposal.

        Returns ``None`` when skipped (cooldown, no heat yet, advisor saw
        nothing to change, or the install was refused); the skip reason is
        tallied in :attr:`skips`.
        """
        now = self.clock.now()
        with self._lock:
            in_cooldown = (
                self._last_install_at is not None
                and now - self._last_install_at < self.cooldown_seconds
            )
            if in_cooldown:
                self._skip("cooldown", reason)
                return None
            heat = self.monitor.shard_heat()
            if not heat:
                self._skip("no_heat", reason)
                return None
            plan = self.router.predictor.store.plan
            proposal = self.advisor.propose(plan, heat)
            if proposal is None:
                self._skip("no_change", reason)
                return None
            try:
                predictor = self.prepare(proposal.plan)
                version = self.router.install_plan(predictor)
            except (ConfigurationError, ServingError) as error:
                self._skip("install_failed", f"{reason}: {error}")
                return None
            self._last_install_at = now
            self.installs += 1
            self.last_version = version
            self.history.append(
                {
                    "at": now,
                    "reason": reason,
                    "version": version,
                    "diff": proposal.diff(),
                }
            )
            return proposal

    def _samples(self) -> list[Sample]:
        """The registry collector: install count and last installed version."""
        if self.last_version is None:
            return []
        return [
            counter("repro_rebalance_installs_total", self.installs),
            gauge("repro_rebalance_last_version", self.last_version),
        ]

    def _skip(self, kind: str, reason: str) -> None:
        self.skips[kind] = self.skips.get(kind, 0) + 1
        self.history.append({"skipped": kind, "reason": reason})

    def describe(self) -> dict:
        with self._lock:
            return {
                "installs": self.installs,
                "skips": dict(self.skips),
                "cooldown_seconds": self.cooldown_seconds,
                "last_install_at": self._last_install_at,
                "watch": sorted(self.watch) if self.watch is not None else None,
            }
