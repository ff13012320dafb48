"""Deterministic virtual-time load simulator for batching policies.

Comparing batching policies on wall-clock runs conflates the policy with
machine noise; this module replays a *scripted* arrival schedule against the
real :class:`~repro.serving.batcher.MicroBatcher` + controller control loop
on a :class:`~repro.serving.clock.FakeClock`, with batch service time given
by an explicit cost model.  Everything — queue waits, coalescing budgets,
controller decisions, per-request latencies — runs in virtual time, so two
runs of the same scenario produce byte-identical reports, and a
``MarginalLatencyPolicy`` vs ``StaticPolicy`` comparison is an exact
statement about the policies, not about the container's scheduler.

The simulator is the engine behind the virtual-time load-ramp assertions in
``tests/serving/test_controller.py`` and the ``adaptive`` suite of
``benchmarks/bench_serving.py``.  It simulates *scheduling* only: no
predictions are computed, which is exactly why it cannot drift from the real
serving semantics — it drives the same ``RequestQueue``/``MicroBatcher``
code the server runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..metrics.timing import LatencySummary, latency_summary
from .batcher import MicroBatcher
from .clock import FakeClock
from .controller import BatchController
from .queue import InferenceRequest, RequestQueue


@dataclass(frozen=True)
class LinearServiceModel:
    """Batch service time ``overhead + per_node · n`` — the cost shape the
    per-batch overheads of supporting-subgraph BFS/extraction produce."""

    overhead_seconds: float
    per_node_seconds: float

    def __call__(self, num_nodes: int) -> float:
        return self.overhead_seconds + self.per_node_seconds * num_nodes


def ramp_arrivals(
    *,
    idle_requests: int,
    burst_requests: int,
    drain_requests: int,
    idle_gap_seconds: float,
    burst_gap_seconds: float,
    nodes_per_request: int = 2,
    start: float = 0.0,
) -> list[tuple[float, int]]:
    """A load ramp: idle trickle → overload burst → trickle back down.

    Returns ``[(arrival_time, num_nodes), ...]`` sorted by time.  The burst
    gap is chosen by callers to exceed the static configuration's service
    capacity, which is what forces a backlog and lets an adaptive policy
    show its value.
    """
    arrivals: list[tuple[float, int]] = []
    now = start
    for gap, count in (
        (idle_gap_seconds, idle_requests),
        (burst_gap_seconds, burst_requests),
        (idle_gap_seconds, drain_requests),
    ):
        for _ in range(count):
            arrivals.append((now, nodes_per_request))
            now += gap
    return arrivals


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one policy under one scenario (all times virtual)."""

    policy: str
    requests_served: int
    nodes_served: int
    batches: int
    wall_seconds: float
    throughput_nodes_per_second: float
    latency: LatencySummary
    batch_widths: tuple[int, ...]
    controller_adjustments: int

    @property
    def batch_width_p95(self) -> float:
        return latency_summary(self.batch_widths).p95

    def as_dict(self) -> dict:
        avg_nodes = self.nodes_served / self.batches if self.batches else 0.0
        return {
            "policy": self.policy,
            "requests_served": self.requests_served,
            "nodes_served": self.nodes_served,
            "batches": self.batches,
            "virtual_wall_seconds": self.wall_seconds,
            "throughput_nodes_per_second": self.throughput_nodes_per_second,
            "latency_ms": self.latency.scaled(1e3).as_dict(),
            "avg_batch_nodes": avg_nodes,
            "batch_width_p95": self.batch_width_p95,
            "controller_adjustments": self.controller_adjustments,
        }


def simulate_policy(
    controller: BatchController,
    arrivals: Sequence[tuple[float, int]],
    service_model: Callable[[int], float],
    *,
    queue_capacity: int = 100_000,
) -> SimulationReport:
    """Serve ``arrivals`` through ``controller`` in virtual time.

    The loop mirrors the server's dispatcher: admit every request that has
    arrived by the current virtual instant, let the batcher coalesce one
    micro-batch (its coalescing waits consume virtual time), charge the
    service model's cost for executing it, feed the observation back to the
    controller, and record per-request latencies.  Arrivals that land while
    a batch is being formed or served join the queue afterwards with their
    original timestamps — exactly the backlog a single dispatcher sees.
    """
    pending = deque(sorted(arrivals))
    clock = FakeClock(start=pending[0][0] if pending else 0.0)
    queue = RequestQueue(queue_capacity, clock=clock)
    batcher = MicroBatcher(queue, controller=controller, clock=clock)
    latencies: list[float] = []
    widths: list[int] = []
    next_id = 0
    requests_served = 0
    nodes_served = 0
    started_at = clock.now()

    def admit_arrived() -> None:
        nonlocal next_id
        while pending and pending[0][0] <= clock.now():
            arrived_at, num_nodes = pending.popleft()
            queue.put(
                InferenceRequest(
                    next_id,
                    np.arange(num_nodes, dtype=np.int64),
                    enqueued_at=arrived_at,
                )
            )
            next_id += 1

    while pending or queue.depth > 0:
        admit_arrived()
        if queue.depth == 0:
            # Idle: jump straight to the next arrival instead of polling.
            clock.advance(pending[0][0] - clock.now())
            continue
        batch = batcher.next_batch(poll_timeout=0.0)
        assert batch is not None  # the queue was non-empty
        # Stragglers that arrived during the coalescing wait enter the
        # queue now (they missed this batch — the single-dispatcher view).
        admit_arrived()
        service_seconds = service_model(batch.num_nodes)
        clock.advance(service_seconds)
        admit_arrived()
        controller.observe_batch(
            num_nodes=batch.num_nodes,
            num_requests=batch.num_requests,
            service_seconds=service_seconds,
            queue_depth=queue.depth,
        )
        completed_at = clock.now()
        for request in batch.requests:
            latencies.append(completed_at - request.enqueued_at)
        widths.append(batch.num_nodes)
        requests_served += batch.num_requests
        nodes_served += batch.num_nodes

    wall = clock.now() - started_at
    return SimulationReport(
        policy=controller.name,
        requests_served=requests_served,
        nodes_served=nodes_served,
        batches=len(widths),
        wall_seconds=wall,
        throughput_nodes_per_second=nodes_served / wall if wall > 0 else 0.0,
        latency=latency_summary(latencies),
        batch_widths=tuple(widths),
        controller_adjustments=controller.adjustments,
    )
