"""Tests for the adaptive micro-batching controllers.

Policy logic runs on scripted inputs and the virtual-time simulator
(:mod:`repro.serving.simulator`), so every assertion here is exact and
deterministic — no real sleeps, no wall-clock noise.  The end-to-end
bit-equality checks at the bottom run the real :class:`InferenceServer`
under each policy and compare against sequential ``NAIPredictor.predict``.
"""

import itertools
import threading
import time

import numpy as np
import pytest

from repro.core import ServingConfig
from repro.exceptions import ConfigurationError
from repro.serving import (
    BatchController,
    BatchLimits,
    FakeClock,
    InferenceRequest,
    InferenceServer,
    LinearServiceModel,
    MarginalLatencyPolicy,
    MicroBatcher,
    RequestQueue,
    StaticPolicy,
    build_controller,
    ramp_arrivals,
    simulate_policy,
)


def make_request(request_id, num_nodes=1, at=0.0):
    return InferenceRequest(
        request_id, np.arange(num_nodes, dtype=np.int64), enqueued_at=at
    )


class ScriptedPolicy(BatchController):
    """Test double: hands out a fixed script of limits, cycling, and records
    the queue depth of every decision — a widening controller with no policy
    logic of its own, so batcher tests pin the batcher alone."""

    name = "scripted"

    def __init__(self, *script: BatchLimits) -> None:
        super().__init__()
        self._script = itertools.cycle(script)
        self.depths: list[int] = []

    def _decide(self, *, queue_depth, oldest_wait_seconds):
        self.depths.append(queue_depth)
        return next(self._script)


class TestConfigValidation:
    @pytest.mark.parametrize("policy", ["pid", "queue_pressure"])
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            ServingConfig(batch_policy=policy)

    def test_ceilings_must_cover_base(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(max_batch_size=64, batch_size_ceiling=32)
        with pytest.raises(ConfigurationError):
            ServingConfig(max_wait_ms=4.0, wait_ms_ceiling=2.0)

    def test_marginal_latency_needs_an_slo(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(batch_policy="marginal_latency")
        ServingConfig(batch_policy="marginal_latency", latency_slo_ms=50.0)

    def test_marginal_ceilings_default_to_the_base_point(self):
        base = dict(
            batch_policy="marginal_latency",
            latency_slo_ms=20.0,
            max_batch_size=16,
            max_wait_ms=2.0,
        )
        policy = build_controller(ServingConfig(**base))
        assert policy.slo_seconds == pytest.approx(0.020)
        assert policy.base_batch_size == policy.batch_size_ceiling == 16
        assert policy.base_wait_seconds == pytest.approx(0.002)
        assert policy.wait_seconds_ceiling == pytest.approx(0.002)
        widened = build_controller(
            ServingConfig(**base, batch_size_ceiling=64, wait_ms_ceiling=8.0)
        )
        assert widened.batch_size_ceiling == 64
        assert widened.wait_seconds_ceiling == pytest.approx(0.008)

    def test_build_controller_maps_policies(self):
        assert build_controller(ServingConfig()).name == "static"
        assert (
            build_controller(
                ServingConfig(batch_policy="marginal_latency", latency_slo_ms=20.0)
            ).name
            == "marginal_latency"
        )


class TestStaticPolicy:
    def test_constant_limits_and_zero_adjustments(self):
        policy = StaticPolicy(32, 0.002)
        for depth in (0, 1, 50, 1000):
            limits = policy.limits(queue_depth=depth, oldest_wait_seconds=depth * 1.0)
            assert limits.max_batch_size == 32
            assert limits.max_wait_seconds == 0.002
        assert policy.adjustments == 0
        assert policy.describe()["policy"] == "static"


class TestMarginalLatencyPolicy:
    def make(self, slo=3.0, **overrides):
        params = dict(
            slo_seconds=slo,
            base_batch_size=2,
            batch_size_ceiling=64,
            wait_seconds_ceiling=0.25,
        )
        params.update(overrides)
        return MarginalLatencyPolicy(**params)

    def feed_exact_line(self, policy):
        """Samples on t = 0.5 + 0.25·n — dyadic, so the fit is exact."""
        for nodes, seconds in ((2, 1.0), (4, 1.5), (8, 2.5)):
            policy.observe_batch(
                num_nodes=nodes,
                num_requests=1,
                service_seconds=seconds,
                queue_depth=0,
            )

    def test_base_limits_until_the_model_is_usable(self):
        policy = self.make()
        limits = policy.limits(queue_depth=50, oldest_wait_seconds=0.0)
        assert limits.max_batch_size == 2
        # One width observed repeatedly is not a line yet.
        for _ in range(5):
            policy.observe_batch(
                num_nodes=4, num_requests=1, service_seconds=1.5, queue_depth=0
            )
        assert policy.limits(queue_depth=50, oldest_wait_seconds=0.0).max_batch_size == 2

    def test_picks_the_widest_batch_under_the_slo(self):
        policy = self.make(slo=3.0)
        self.feed_exact_line(policy)
        desc = policy.describe()
        assert desc["model"] == {"intercept": 0.5, "slope": 0.25}
        limits = policy.limits(queue_depth=10, oldest_wait_seconds=0.0)
        # 0.5 + 0.25·w <= 3.0  →  w = 10, with zero slack left to wait.
        assert limits.max_batch_size == 10
        assert limits.max_wait_seconds == 0.0

    def test_ceiling_clamp_turns_slack_into_wait(self):
        policy = self.make(slo=3.0, batch_size_ceiling=8)
        self.feed_exact_line(policy)
        limits = policy.limits(queue_depth=10, oldest_wait_seconds=0.0)
        # Clamped at 8 nodes the estimate is 2.5s; 0.5s of SLO slack remains
        # but the configured wait ceiling caps it at 0.25s.
        assert limits.max_batch_size == 8
        assert limits.max_wait_seconds == 0.25

    def test_blown_slo_degrades_to_latency_first(self):
        policy = self.make(slo=0.75)  # below even service(2) = 1.0
        self.feed_exact_line(policy)
        limits = policy.limits(queue_depth=10, oldest_wait_seconds=0.0)
        assert limits.max_batch_size == 2
        assert limits.max_wait_seconds == 0.0

    def test_inverted_model_is_refused(self):
        policy = self.make()
        # Bigger batches measured *faster* — noise; the policy must not
        # conclude that infinite batches are free.
        for nodes, seconds in ((2, 2.0), (8, 1.0)):
            policy.observe_batch(
                num_nodes=nodes,
                num_requests=1,
                service_seconds=seconds,
                queue_depth=0,
            )
        assert policy.limits(queue_depth=10, oldest_wait_seconds=0.0).max_batch_size == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make(slo=0.0)
        with pytest.raises(ConfigurationError):
            self.make(batch_size_ceiling=1)

    def test_budgets_must_be_positive_widths_and_non_negative_waits(self):
        with pytest.raises(ConfigurationError):
            self.make(base_batch_size=0)
        with pytest.raises(ConfigurationError):
            self.make(base_wait_seconds=-0.001)
        with pytest.raises(ConfigurationError):
            self.make(wait_seconds_ceiling=-1.0)

    def test_flat_cost_line_widens_to_the_ceiling(self):
        policy = self.make(slo=3.0)
        # Width costs nothing extra: the slope is exactly zero.
        for nodes in (2, 8):
            policy.observe_batch(
                num_nodes=nodes, num_requests=1, service_seconds=1.0, queue_depth=0
            )
        assert policy.describe()["model"] == {"intercept": 1.0, "slope": 0.0}
        limits = policy.limits(queue_depth=1, oldest_wait_seconds=0.0)
        # 2.0s of SLO slack remain, capped by the 0.25s wait ceiling.
        assert limits == BatchLimits(64, 0.25)

    def test_decisions_follow_the_model_not_the_queue(self):
        """The operating point is learned from service samples alone: queue
        depth and head age never move it."""
        policy = self.make(slo=3.0)
        self.feed_exact_line(policy)
        decisions = {
            policy.limits(queue_depth=depth, oldest_wait_seconds=age)
            for depth in (0, 1, 10, 1000)
            for age in (0.0, 0.5, 10.0)
        }
        assert decisions == {BatchLimits(10, 0.0)}

    def test_adjustments_count_changes_not_decisions(self):
        policy = self.make(slo=3.0)
        for _ in range(3):
            policy.limits(queue_depth=10, oldest_wait_seconds=0.0)
        assert policy.adjustments == 0  # still at the base point
        self.feed_exact_line(policy)
        for _ in range(3):
            policy.limits(queue_depth=10, oldest_wait_seconds=0.0)
        assert policy.adjustments == 1  # one move off the base, then held

    def test_slower_service_narrows_the_budget(self):
        policy = self.make(slo=3.0)
        self.feed_exact_line(policy)
        assert policy.limits(queue_depth=10, oldest_wait_seconds=0.0).max_batch_size == 10
        # Samples on t = 0.5 + 0.5·n at the same widths: the pooled fit is
        # the mean line t = 0.5 + 0.375·n, so 0.5 + 0.375·w <= 3.0 → w = 6
        # with 0.25s of slack left to wait.
        for nodes, seconds in ((2, 1.5), (4, 2.5), (8, 4.5)):
            policy.observe_batch(
                num_nodes=nodes, num_requests=1, service_seconds=seconds, queue_depth=0
            )
        model = policy.describe()["model"]
        assert model["intercept"] == pytest.approx(0.5)
        assert model["slope"] == pytest.approx(0.375)
        limits = policy.limits(queue_depth=10, oldest_wait_seconds=0.0)
        assert limits.max_batch_size == 6
        assert limits.max_wait_seconds == pytest.approx(0.25)
        assert policy.adjustments == 2

    def test_inverted_model_recovers_once_the_samples_agree(self):
        policy = self.make(slo=3.0)
        for nodes, seconds in ((2, 2.0), (8, 1.0)):
            policy.observe_batch(
                num_nodes=nodes, num_requests=1, service_seconds=seconds, queue_depth=0
            )
        assert policy.describe()["model"] is None
        # Two slower wide batches outweigh the noisy fast one.
        for _ in range(2):
            policy.observe_batch(
                num_nodes=8, num_requests=1, service_seconds=4.0, queue_depth=0
            )
        model = policy.describe()["model"]
        assert model is not None and model["slope"] > 0
        assert policy.limits(queue_depth=10, oldest_wait_seconds=0.0).max_batch_size > 2

    def test_describe_reports_samples_and_the_fitted_model(self):
        policy = self.make(slo=3.0)
        desc = policy.describe()
        assert desc["policy"] == "marginal_latency"
        assert desc["slo_seconds"] == 3.0
        assert desc["samples"] == 0
        assert desc["model"] is None
        self.feed_exact_line(policy)
        policy.limits(queue_depth=10, oldest_wait_seconds=0.0)
        desc = policy.describe()
        assert desc["samples"] == 3
        assert desc["max_batch_size"] == 10
        assert desc["max_wait_seconds"] == 0.0
        assert desc["adjustments"] == 1


class TestBatcherControllerIntegration:
    def test_batcher_records_the_granted_limits(self):
        clock = FakeClock()
        queue = RequestQueue(capacity=16, clock=clock)
        batcher = MicroBatcher(queue, controller=StaticPolicy(4, 0.0), clock=clock)
        queue.put(make_request(0, num_nodes=2))
        batch = batcher.next_batch(poll_timeout=0.1)
        assert batch.limits.max_batch_size == 4
        assert batch.limits.max_wait_seconds == 0.0

    def test_legacy_kwargs_build_a_static_policy(self):
        queue = RequestQueue(capacity=4, clock=FakeClock())
        batcher = MicroBatcher(queue, max_batch_size=8, max_wait_seconds=0.5)
        assert batcher.controller.name == "static"
        with pytest.raises(ConfigurationError):
            MicroBatcher(queue)
        with pytest.raises(ConfigurationError):
            MicroBatcher(queue, max_batch_size=8, controller=StaticPolicy(8, 0.0))

    def test_zero_wait_config_still_drains_the_backlog(self):
        """A zero-wait widened budget dispatches immediately yet coalesces
        everything already queued — the expired budget stops waiting only."""
        clock = FakeClock()
        queue = RequestQueue(capacity=16, clock=clock)
        policy = ScriptedPolicy(BatchLimits(6, 0.0))
        batcher = MicroBatcher(queue, controller=policy, clock=clock)
        for i in range(8):
            queue.put(make_request(i, num_nodes=1, at=clock.now()))
        first = batcher.next_batch(poll_timeout=0.1)
        # The controller saw the whole backlog (head included) before the
        # batch coalesced, and the batch filled the widened budget.
        assert policy.depths == [8]
        assert first.num_nodes == 6
        assert first.limits.max_wait_seconds == 0.0
        assert clock.now() == 0.0  # dispatched without consuming any time

    def test_batcher_consults_the_controller_once_per_batch(self):
        clock = FakeClock()
        queue = RequestQueue(capacity=16, clock=clock)
        policy = ScriptedPolicy(BatchLimits(2, 0.0), BatchLimits(3, 0.0))
        batcher = MicroBatcher(queue, controller=policy, clock=clock)
        for i in range(6):
            queue.put(make_request(i, num_nodes=1, at=clock.now()))
        widths = [batcher.next_batch(poll_timeout=0.1).num_nodes for _ in range(3)]
        # Each decision sees the backlog left by the batches before it.
        assert policy.depths == [6, 4, 1]
        assert widths == [2, 3, 1]
        assert policy.adjustments == 2

    def test_single_request_at_the_ceiling_forms_its_own_batch(self):
        clock = FakeClock()
        queue = RequestQueue(capacity=16, clock=clock)
        policy = ScriptedPolicy(BatchLimits(16, 0.0))
        batcher = MicroBatcher(queue, controller=policy, clock=clock)
        # A ceiling-sized request plus a rider: the big one must ride alone.
        queue.put(make_request(0, num_nodes=16, at=0.0))
        queue.put(make_request(1, num_nodes=1, at=0.0))
        first = batcher.next_batch(poll_timeout=0.1)
        assert first.num_requests == 1
        assert first.num_nodes == 16
        assert first.limits.max_batch_size == 16
        second = batcher.next_batch(poll_timeout=0.1)
        assert second.num_requests == 1
        assert second.num_nodes == 1

    def test_controller_swapped_mid_stream(self):
        clock = FakeClock()
        queue = RequestQueue(capacity=32, clock=clock)
        batcher = MicroBatcher(queue, controller=StaticPolicy(2, 0.0), clock=clock)
        for i in range(9):
            queue.put(make_request(i, num_nodes=1, at=clock.now()))
        assert batcher.next_batch(poll_timeout=0.1).num_nodes == 2
        batcher.controller = StaticPolicy(6, 0.0)
        second = batcher.next_batch(poll_timeout=0.1)
        assert second.num_nodes == 6
        assert [r.request_id for r in second.requests] == [2, 3, 4, 5, 6, 7]
        # The remaining id confirms no request was lost or reordered.
        leftover = batcher.next_batch(poll_timeout=0.1)
        assert [r.request_id for r in leftover.requests] == [8]

    def test_drain_pending_during_a_controller_widened_wait(self):
        """Shutdown during a widened coalescing wait must neither hang the
        batcher nor lose the request it already holds."""
        queue = RequestQueue(capacity=8)  # real clock: this test is concurrent
        # A widened wait far beyond the test budget.
        policy = ScriptedPolicy(BatchLimits(128, 60.0))
        batcher = MicroBatcher(queue, controller=policy)
        queue.put(make_request(0, num_nodes=1, at=time.perf_counter()))
        queue.put(make_request(1, num_nodes=1, at=time.perf_counter()))
        batches = []
        worker = threading.Thread(
            target=lambda: batches.append(batcher.next_batch(poll_timeout=5.0)),
            daemon=True,
        )
        worker.start()
        deadline = time.perf_counter() + 5.0
        while queue.depth > 0 and time.perf_counter() < deadline:
            time.sleep(0.001)  # wait for the batcher to pull both requests
        queue.close()  # wakes the coalescing wait; the batcher dispatches
        worker.join(5.0)
        assert not worker.is_alive()
        stranded = queue.drain_pending()
        assert stranded == []  # the batcher already held every request
        assert len(batches) == 1 and batches[0] is not None
        assert batches[0].num_requests == 2


SERVICE = LinearServiceModel(overhead_seconds=0.004, per_node_seconds=0.0001)

RAMP = ramp_arrivals(
    idle_requests=20,
    burst_requests=300,
    drain_requests=10,
    idle_gap_seconds=0.005,
    burst_gap_seconds=0.001,
    nodes_per_request=2,
)

SLO_SECONDS = 0.050


def static_controller():
    return StaticPolicy(8, 0.002)


def marginal_controller():
    return MarginalLatencyPolicy(
        slo_seconds=SLO_SECONDS,
        base_batch_size=8,
        batch_size_ceiling=64,
        base_wait_seconds=0.002,
        wait_seconds_ceiling=0.008,
    )


class TestVirtualTimeLoadRamp:
    """The tentpole scenario: a load ramp in exact virtual time.

    The burst offers 2 nodes/ms while the static configuration can serve at
    most 8 nodes per 4.8 ms ≈ 1.67 nodes/ms — a backlog is guaranteed.
    ``MarginalLatencyPolicy`` learns the service line and widens toward
    64-node batches (6.15 nodes/ms), clears the burst as it happens, and
    holds p95 latency under the SLO; the static policy pays for the same
    burst with a queue that only drains after the arrivals stop.
    """

    def test_marginal_latency_beats_static_within_the_slo(self):
        static = simulate_policy(static_controller(), RAMP, SERVICE)
        adaptive = simulate_policy(marginal_controller(), RAMP, SERVICE)
        # Same work served...
        assert adaptive.nodes_served == static.nodes_served == 660
        # ...strictly more throughput (the backlog never piles up)...
        assert adaptive.throughput_nodes_per_second > static.throughput_nodes_per_second
        assert adaptive.wall_seconds < static.wall_seconds
        # ...while holding the latency target the static policy blows.
        assert adaptive.latency.p95 <= SLO_SECONDS
        assert static.latency.p95 > SLO_SECONDS
        # The learned cost line grants a 64-node budget (the SLO admits
        # (0.050 - 0.004) / 0.0001 = 460 nodes, clamped to the ceiling), so
        # realized batches coalesce past the static 8-node cap — and settle
        # well below the budget, because widening prevents the very backlog
        # that would fill wider batches.  Once drained, the few arrivals
        # left form base-width batches.
        assert max(static.batch_widths) == 8
        assert max(adaptive.batch_widths) > 8
        assert adaptive.batch_widths[-1] <= 8
        assert adaptive.controller_adjustments > 0
        assert static.controller_adjustments == 0

    def test_simulation_is_exactly_deterministic(self):
        for build in (static_controller, marginal_controller):
            first = simulate_policy(build(), RAMP, SERVICE)
            second = simulate_policy(build(), RAMP, SERVICE)
            assert first == second  # byte-identical reports, virtual time


# --------------------------------------------------------------------- #
# End-to-end: real server, every policy, bit-identical results
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def deployed(trained_nai, tiny_dataset):
    predictor = trained_nai.build_predictor(
        policy="distance",
        config=trained_nai.inference_config(
            distance_threshold=trained_nai.suggest_distance_threshold(0.5),
            batch_size=32,
        ),
    )
    predictor.prepare(tiny_dataset.graph, tiny_dataset.features)
    return predictor


def policy_configs():
    base = dict(num_workers=2, max_batch_size=32, max_wait_ms=0.5, cache_capacity=8)
    return {
        "static": ServingConfig(**base),
        "marginal_latency": ServingConfig(
            **base, batch_policy="marginal_latency", latency_slo_ms=100.0
        ),
    }


class TestPolicyBitEquality:
    def test_streaming_workload_is_bit_identical_under_every_policy(
        self, deployed, tiny_dataset
    ):
        """Full-tick streaming requests pin the batch composition (each tick
        fills the width budget exactly), so both policies must produce
        bit-identical predictions, depths AND per-batch MAC totals — the
        controllers may only move waiting, never results."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        ticks = [test_idx[i:i + 32] for i in range(0, 96, 32)] * 3
        sequential = [deployed.predict(tick) for tick in ticks]
        expected_macs = sum(r.macs.total for r in sequential)
        for name, config in policy_configs().items():
            with InferenceServer(deployed, config) as server:
                responses = server.predict_many(ticks, timeout=60.0)
                stats = server.stats()
            assert stats.batch_policy == name
            np.testing.assert_array_equal(
                np.concatenate([r.predictions for r in responses]),
                np.concatenate([r.predictions for r in sequential]),
            )
            np.testing.assert_array_equal(
                np.concatenate([r.depths for r in responses]),
                np.concatenate([r.depths for r in sequential]),
            )
            per_batch = {r.batch_id: r.batch_macs for r in responses}
            served_macs = sum(m.total for m in per_batch.values())
            assert served_macs == pytest.approx(expected_macs, abs=1e-6), name

    def test_widening_changes_batching_but_never_results(
        self, deployed, tiny_dataset
    ):
        """A controller that widens past the base budget may merge requests
        into wider batches — predictions and depths must stay bit-identical
        (per-node results are batch-independent); MACs may only drop
        (shared supporting subgraphs)."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)[:60]
        requests = [test_idx[i:i + 4] for i in range(0, 60, 4)]
        sequential = [deployed.predict(request) for request in requests]
        config = ServingConfig(
            num_workers=2, max_batch_size=8, max_wait_ms=1.0, cache_capacity=0
        )
        # Alternate the base budget with a widened one, batch by batch.
        widening = ScriptedPolicy(BatchLimits(8, 0.001), BatchLimits(32, 0.008))
        with InferenceServer(deployed, config, controller=widening) as server:
            responses = server.predict_many(requests, timeout=60.0)
        np.testing.assert_array_equal(
            np.concatenate([r.predictions for r in responses]),
            np.concatenate([r.predictions for r in sequential]),
        )
        np.testing.assert_array_equal(
            np.concatenate([r.depths for r in responses]),
            np.concatenate([r.depths for r in sequential]),
        )
        per_batch = {r.batch_id: r.batch_macs for r in responses}
        served_macs = sum(m.total for m in per_batch.values())
        sequential_macs = sum(r.macs.total for r in sequential)
        assert served_macs <= sequential_macs + 1e-6

    def test_stats_surface_controller_activity(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)[:64]
        config = policy_configs()["marginal_latency"]
        with InferenceServer(deployed, config) as server:
            server.predict_many([test_idx[i:i + 32] for i in (0, 32)], timeout=60.0)
            stats = server.stats()
        assert stats.batch_policy == "marginal_latency"
        assert stats.batch_width_p50 > 0
        assert stats.batch_width_p95 >= stats.batch_width_p50
        payload = stats.as_dict()
        assert payload["batch_policy"] == "marginal_latency"
        assert payload["controller_adjustments"] == stats.controller_adjustments
        assert payload["batch_width_p95"] == stats.batch_width_p95
