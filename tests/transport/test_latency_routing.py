"""Windowed-latency read spreading in ReplicatedTransport (route_by="latency")."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serving import ClusterBuilder
from repro.serving.clock import FakeClock
from repro.shard import ShardedPredictor
from repro.transport import (
    OP_FEATURES,
    ReplicatedTransport,
    ShardTransport,
)


class ScriptedRail(ShardTransport):
    """Echoes the requested rows and charges a fixed virtual-time delay.

    Both rails of a test return byte-identical payloads (the rows
    themselves), so routing can only change *placement*, never results —
    exactly the replicated-read contract.  The delay advances the shared
    FakeClock, which is also the transport's latency-measurement clock,
    so observed sub-round latency equals the scripted delay exactly.
    """

    def __init__(self, num_shards: int, delay: float, clock: FakeClock):
        super().__init__()
        self._num_shards = num_shards
        self.delay = delay
        self.clock = clock
        self.calls: list[tuple[str, list[int]]] = []

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def fetch(self, op, requests):
        self.calls.append((op, [int(shard) for shard, _ in requests]))
        if self.delay > 0.0:
            self.clock.advance(self.delay)
        return [np.asarray(rows, dtype=np.int64).copy() for _, rows in requests]

    def close(self) -> None:
        pass


def _pair(clock, *, slow=0.05, fast=0.001, **kwargs):
    rails = [ScriptedRail(2, slow, clock), ScriptedRail(2, fast, clock)]
    transport = ReplicatedTransport(
        rails, clock=clock, route_by="latency", **kwargs
    )
    return transport, rails


ROWS = np.arange(3, dtype=np.int64)


class TestLatencyRouting:
    def test_empty_windows_tie_to_rail_zero_then_traffic_shifts(self):
        clock = FakeClock()
        transport, (slow, fast) = _pair(clock)
        # First pick: both windows are empty (mean 0), rows served tie at
        # zero, so the lowest rail id wins — deterministically rail 0.
        transport.fetch(OP_FEATURES, [(0, ROWS)])
        assert [len(r.calls) for r in (slow, fast)] == [1, 0]
        # Rail 0 now carries a 50ms sample; rail 1 still reads 0 — every
        # subsequent pick lands on rail 1 and keeps re-confirming it.
        for _ in range(4):
            transport.fetch(OP_FEATURES, [(0, ROWS)])
        assert [len(r.calls) for r in (slow, fast)] == [1, 4]

    def test_payloads_come_back_regardless_of_placement(self):
        clock = FakeClock()
        transport, _ = _pair(clock)
        first = transport.fetch(OP_FEATURES, [(0, ROWS), (1, ROWS + 10)])
        second = transport.fetch(OP_FEATURES, [(0, ROWS), (1, ROWS + 10)])
        for payloads in (first, second):
            np.testing.assert_array_equal(payloads[0], ROWS)
            np.testing.assert_array_equal(payloads[1], ROWS + 10)

    def test_slow_rail_is_probed_again_once_its_sample_ages_out(self):
        clock = FakeClock()
        transport, (slow, fast) = _pair(clock, latency_window_seconds=30.0)
        transport.fetch(OP_FEATURES, [(0, ROWS)])  # rail 0 observes 50ms
        transport.fetch(OP_FEATURES, [(0, ROWS)])  # rail 1 takes over
        clock.advance(31.0)  # both windows empty again
        # Ties now break by rows served: rail 0 and rail 1 each served one
        # sub-round (3 rows), so rail id decides — the slow rail gets a
        # fresh probe instead of being exiled on stale evidence.
        transport.fetch(OP_FEATURES, [(0, ROWS)])
        assert len(slow.calls) == 2
        assert len(fast.calls) == 1

    def test_routing_follows_whichever_rail_is_currently_faster(self):
        clock = FakeClock()
        transport, (slow, fast) = _pair(clock)
        transport.fetch(OP_FEATURES, [(0, ROWS)])  # rail 0: 50ms sample
        transport.fetch(OP_FEATURES, [(0, ROWS)])  # rail 1: 1ms sample
        # The fast rail degrades (cold cache, noisy neighbour): its next
        # sub-round costs 200ms and the window mean jumps above rail 0's.
        fast.delay = 0.2
        transport.fetch(OP_FEATURES, [(0, ROWS)])
        assert len(fast.calls) == 2
        transport.fetch(OP_FEATURES, [(0, ROWS)])
        assert len(slow.calls) == 2  # traffic came back

    def test_describe_exposes_windowed_means_per_endpoint(self):
        clock = FakeClock()
        transport, _ = _pair(clock)
        transport.fetch(OP_FEATURES, [(0, ROWS)])
        transport.fetch(OP_FEATURES, [(0, ROWS)])
        description = transport.describe()
        assert description["route_by"] == "latency"
        by_rail = {
            entry["rail"]: entry for entry in description["shards"][0]
        }
        assert by_rail[0]["latency_mean_window"] == pytest.approx(0.05)
        assert by_rail[1]["latency_mean_window"] == pytest.approx(0.001)

    def test_rows_routing_has_no_latency_windows(self):
        clock = FakeClock()
        rails = [ScriptedRail(2, 0.0, clock), ScriptedRail(2, 0.0, clock)]
        transport = ReplicatedTransport(rails, clock=clock, route_by="rows")
        transport.fetch(OP_FEATURES, [(0, ROWS)])
        for entry in transport.describe()["shards"][0]:
            assert "latency_mean_window" not in entry

    def test_route_by_validation(self):
        clock = FakeClock()
        rails = [ScriptedRail(2, 0.0, clock)]
        with pytest.raises(ConfigurationError, match="route_by"):
            ReplicatedTransport(rails, clock=clock, route_by="speed")

    def test_latency_routing_is_result_identical_to_rows_routing(
        self, small_deployment
    ):
        graph, features, predictor = small_deployment

        def sharded(route_by):
            return (
                ClusterBuilder(ShardedPredictor.from_predictor(predictor))
                .graph(graph, features)
                .shards(2, strategy="degree_balanced")
                .replicated(2, route_by=route_by)
                .build_predictor()
            )

        rng = np.random.default_rng(3)
        nodes = rng.choice(graph.num_nodes, size=48, replace=False)
        baseline = sharded("rows").predict(nodes)
        routed = sharded("latency").predict(nodes)
        np.testing.assert_array_equal(baseline.predictions, routed.predictions)
        np.testing.assert_array_equal(baseline.depths, routed.depths)
