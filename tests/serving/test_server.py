"""End-to-end tests for the InferenceServer (queue → batcher → pool → stats)."""

import threading
import time

import numpy as np
import pytest

from repro.core import ServingConfig
from repro.core.inference import BatchEngine
from repro.exceptions import BackpressureError, ConfigurationError, ServingError
from repro.graph.sampling import batch_iterator
from repro.serving import InferenceServer
from repro.serving.stats import _gauge_fields

from oracle import oracle_engine


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


@pytest.fixture(scope="module")
def sequential(deployed, tiny_dataset):
    return deployed.predict(np.asarray(tiny_dataset.split.test_idx))


def serving_config(**overrides) -> ServingConfig:
    base = dict(
        num_workers=3, max_batch_size=32, max_wait_ms=1.0, cache_capacity=16
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestServerValidation:
    def test_requires_prepared_predictor(self, trained_nai):
        with pytest.raises(ServingError):
            InferenceServer(trained_nai.build_predictor(policy="none"))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(num_workers=0)
        with pytest.raises(ConfigurationError):
            ServingConfig(overflow_policy="drop")
        with pytest.raises(ConfigurationError):
            ServingConfig(max_wait_ms=-1)

    def test_submit_after_close_raises(self, deployed):
        server = InferenceServer(deployed, serving_config())
        server.close()
        with pytest.raises(ServingError):
            server.submit(np.array([0]))


class TestBadIdsFailOnlyTheirOwnRequest:
    def test_out_of_range_ids_are_rejected_at_submit(self, deployed, tiny_dataset):
        """Good, bad and good requests in one batching window: the bad ones
        are refused at the door, the good ones are served exactly."""
        num_nodes = tiny_dataset.graph.num_nodes
        good = [np.array([1, 2, 3]), np.array([4, 5])]
        config = serving_config(num_workers=1, max_batch_size=64, max_wait_ms=200.0)
        with InferenceServer(deployed, config) as server:
            enqueued = []
            put = server.queue.put

            def recording_put(request, timeout=None):
                enqueued.append(request.node_ids)
                return put(request, timeout=timeout)

            server.queue.put = recording_put
            first = server.submit(good[0])
            for bad in ([num_nodes + 5], [num_nodes], [-1], [2, -1, 3]):
                with pytest.raises(ConfigurationError, match="node ids must lie in"):
                    server.submit(np.array(bad))
            second = server.submit(good[1])
            responses = [first.result(timeout=30.0), second.result(timeout=30.0)]
            stats = server.stats()
        oracle = oracle_engine(deployed)
        for request, response in zip(good, responses):
            expected = oracle.run_batch(request)
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            np.testing.assert_array_equal(response.depths, expected.depths)
        assert responses[0].batch_id == responses[1].batch_id  # one window
        assert [ids.tolist() for ids in enqueued] == [ids.tolist() for ids in good]
        assert stats.requests_completed == 2 and stats.requests_failed == 0


class TestServedEquivalence:
    def test_same_batches_give_bit_identical_results(
        self, deployed, sequential, tiny_dataset
    ):
        """Server responses must reproduce NAIPredictor.predict exactly."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        ticks = batch_iterator(test_idx, 32)
        with InferenceServer(deployed, serving_config()) as server:
            responses = server.predict_many(ticks)
        predictions = np.concatenate([r.predictions for r in responses])
        depths = np.concatenate([r.depths for r in responses])
        np.testing.assert_array_equal(predictions, sequential.predictions)
        np.testing.assert_array_equal(depths, sequential.depths)
        per_batch = {r.batch_id: r.batch_macs for r in responses}
        macs = sum(m.total for m in per_batch.values())
        assert macs == pytest.approx(sequential.macs.total, abs=1e-6)

    def test_waves_and_prefetch_match_the_reference_oracle(self, deployed, tiny_dataset):
        """Wave fusion and background fetch change cost, never answers."""
        ticks = batch_iterator(np.asarray(tiny_dataset.split.test_idx), 32)
        oracle = oracle_engine(deployed)
        expected = [oracle.run_batch(tick) for tick in ticks]
        config = serving_config(wave_width=4, prefetch_depth=2)
        with InferenceServer(deployed, config) as server:
            # One request in flight at a time: every sweep is a wave of one,
            # so each response carries its whole batch's MACs.
            one_by_one = [server.submit(tick).result(timeout=30) for tick in ticks]
            # A burst: ready micro-batches may fuse into union sweeps.
            burst = server.predict_many(ticks, timeout=30)
            stats = server.stats()
        for responses in (one_by_one, burst):
            for response, oracle_result in zip(responses, expected):
                np.testing.assert_array_equal(response.predictions, oracle_result.predictions)
                np.testing.assert_array_equal(response.depths, oracle_result.depths)
        oracle_macs = sum(result.macs.total for result in expected)
        assert [r.wave_width for r in one_by_one] == [1] * len(ticks)
        assert sum(r.batch_macs.total for r in one_by_one) == oracle_macs
        # Fused sweeps deduplicate shared rows: never more than isolated.
        burst_macs = sum({r.batch_id: r.batch_macs.total for r in burst}.values())
        assert burst_macs <= oracle_macs
        if all(r.wave_width == 1 for r in burst):
            assert burst_macs == oracle_macs
        assert stats.requests_completed == 2 * len(ticks)
        assert stats.prefetch_issued > 0

    def test_coalesced_single_node_requests_match_sequential(
        self, deployed, sequential, tiny_dataset
    ):
        """Micro-batching single-node requests must not change any output."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)[:40]
        with InferenceServer(
            deployed, serving_config(max_batch_size=16, max_wait_ms=20.0)
        ) as server:
            responses = server.predict_many([np.array([n]) for n in test_idx])
            batched = {r.batch_num_requests for r in responses}
        predictions = np.concatenate([r.predictions for r in responses])
        depths = np.concatenate([r.depths for r in responses])
        np.testing.assert_array_equal(predictions, sequential.predictions[:40])
        np.testing.assert_array_equal(depths, sequential.depths[:40])
        assert max(batched) > 1  # coalescing actually happened

    def test_part_of_a_cached_batch_is_built_fresh(self, deployed, tiny_dataset):
        """A request for some of a cached batch's nodes is a cache miss that
        builds its own supporting subgraph, with results bit-identical to a
        sequential run."""
        ticks = batch_iterator(np.asarray(tiny_dataset.split.test_idx), 32)
        part = np.sort(ticks[0])[:16]
        with InferenceServer(deployed, serving_config()) as server:
            server.submit(ticks[0]).result(timeout=10.0)
            response = server.submit(part).result(timeout=10.0)
            stats = server.stats()
        expected = deployed.predict(part)
        assert not response.cache_hit
        assert (stats.cache_hits, stats.cache_misses) == (0, 2)
        assert response.batch_timings.sampling > 0.0
        np.testing.assert_array_equal(response.predictions, expected.predictions)
        np.testing.assert_array_equal(response.depths, expected.depths)

    def test_recurring_batches_hit_the_cache(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        ticks = batch_iterator(test_idx, 32) * 3
        with InferenceServer(deployed, serving_config()) as server:
            responses = server.predict_many(ticks)
            stats = server.stats()
        assert stats.cache_hits > 0
        assert stats.cache_hit_rate > 0.5
        assert any(r.cache_hit for r in responses)
        # Cache-hit batches skip sampling entirely.
        hit_sampling = [
            r.batch_timings.sampling for r in responses if r.cache_hit
        ]
        assert hit_sampling and max(hit_sampling) == 0.0


class TestServingStats:
    def test_snapshot_counters(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        ticks = batch_iterator(test_idx, 32)
        with InferenceServer(deployed, serving_config()) as server:
            server.predict_many(ticks)
            stats = server.stats()
        assert stats.requests_completed == len(ticks)
        assert stats.nodes_completed == test_idx.shape[0]
        assert stats.batches_dispatched >= 1
        assert stats.latency.count == len(ticks)
        assert stats.latency.p99 >= stats.latency.p50 > 0
        assert stats.throughput_nodes_per_second >= 0
        assert sum(w.nodes for w in stats.per_worker.values()) == stats.nodes_completed
        payload = stats.as_dict()
        assert payload["requests_completed"] == len(ticks)
        assert payload["latency_ms"]["p50"] > 0

    def test_per_worker_breakdowns_merge_to_totals(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        with InferenceServer(deployed, serving_config(cache_capacity=0)) as server:
            server.predict_many(batch_iterator(test_idx, 32))
            stats = server.stats()
        merged = sum((w.macs.total for w in stats.per_worker.values()))
        assert merged == pytest.approx(stats.macs.total, abs=1e-9)

    def test_cumulative_and_interval_snapshots_agree_on_every_gauge(
        self, deployed, tiny_dataset
    ):
        """Regression: ``interval_stats()`` dropped a cache gauge."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        ticks = batch_iterator(test_idx, 32)
        config = serving_config(result_cache_capacity=4)
        with InferenceServer(deployed, config) as server:
            server.predict_many(ticks)
            server.submit(ticks[0]).result(timeout=10.0)  # a result-cache replay
            cumulative = server.stats()
            interval = server.interval_stats()
        assert cumulative.result_cache_hits == 1
        for name in _gauge_fields():
            assert getattr(interval, name) == getattr(cumulative, name), name


class TestDispatcherResilience:
    @pytest.mark.parametrize("cache_capacity", [16, 0])
    def test_invalid_node_ids_fail_only_their_request(
        self, deployed, tiny_dataset, cache_capacity
    ):
        """A malformed request must not kill the dispatcher or hang close().

        The out-of-range id is refused at submit, before the queue, so
        neither the dispatcher's bundle build (cache on) nor a worker
        (cache off) ever sees it, and the server keeps serving.
        """
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        with InferenceServer(
            deployed, serving_config(cache_capacity=cache_capacity, max_wait_ms=0.0)
        ) as server:
            with pytest.raises(ConfigurationError, match="node ids must lie in"):
                server.submit(np.array([10**9]))
            response = server.submit(test_idx[:8]).result(timeout=10.0)
            assert response.predictions.shape == (8,)
            late = server.submit(test_idx[8:16]).result(timeout=10.0)
            assert late.predictions.shape == (8,)
            stats = server.stats()
        assert stats.requests_failed == 0
        assert stats.requests_completed == 2


class TestBackpressure:
    def test_reject_policy_surfaces_to_submitter(self, deployed, tiny_dataset):
        config = serving_config(
            queue_capacity=1, overflow_policy="reject", max_wait_ms=50.0,
            num_workers=1,
        )
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        with InferenceServer(deployed, config) as server:
            rejected = 0
            handles = []
            for start in range(0, 64):
                try:
                    handles.append(server.submit(test_idx[start:start + 1]))
                except BackpressureError:
                    rejected += 1
            for handle in handles:
                handle.result(timeout=10.0)
            stats = server.stats()
        assert rejected == stats.requests_rejected
        # Accepted requests all completed despite the pressure.
        assert stats.requests_completed == len(handles)

    def test_shed_oldest_fails_the_oldest_request(self, deployed, tiny_dataset):
        config = serving_config(
            queue_capacity=1, overflow_policy="shed_oldest", max_wait_ms=50.0,
            num_workers=1,
        )
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        with InferenceServer(deployed, config) as server:
            handles = [server.submit(test_idx[i:i + 1]) for i in range(32)]
            outcomes = {"served": 0, "shed": 0}
            for handle in handles:
                try:
                    handle.result(timeout=10.0)
                    outcomes["served"] += 1
                except BackpressureError:
                    outcomes["shed"] += 1
            stats = server.stats()
        assert outcomes["shed"] == stats.requests_shed
        assert outcomes["served"] == stats.requests_completed
        assert outcomes["served"] + outcomes["shed"] == 32


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def hold_dispatcher(server) -> threading.Event:
    """Park the dispatcher before its next coalesce; returns the release gate.

    Requests submitted while it is parked are all *already ready* when it
    resumes, so the units it forms are deterministic: ``wave_width`` members
    each, in submission order.
    """
    parked, gate = threading.Event(), threading.Event()
    next_batch = server.batcher.next_batch

    def gated(poll_timeout=0.05):
        parked.set()
        assert gate.wait(timeout=30.0)
        return next_batch(poll_timeout=poll_timeout)

    server.batcher.next_batch = gated
    assert parked.wait(timeout=10.0)
    return gate


class FetcherGatedPredictor:
    """The deployed predictor, except fetcher threads wait for their engine.

    With the fetchers held, units the dispatcher hands to the prefetch
    pipeline stay parked in its queue.
    """

    def __init__(self, inner, gate: threading.Event) -> None:
        self._inner, self._gate = inner, gate

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def make_engine(self):
        if threading.current_thread().name.startswith("nai-prefetch"):
            assert self._gate.wait(timeout=30.0)
        return self._inner.make_engine()


class TestStageBoundaryFailures:
    """A fault at any stage boundary fails the unit's requests exactly once."""

    NUM_REQUESTS, REQUEST_SIZE, WAVE_WIDTH = 8, 4, 4

    def config(self, prefetch_depth: int) -> ServingConfig:
        return serving_config(
            num_workers=2, max_batch_size=self.REQUEST_SIZE, max_wait_ms=0.0,
            wave_width=self.WAVE_WIDTH, prefetch_depth=prefetch_depth,
        )

    def submit_fused(self, server, tiny_dataset):
        """Two fused units of four one-request members each."""
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        gate = hold_dispatcher(server)
        handles = [
            server.submit(test_idx[i * self.REQUEST_SIZE:(i + 1) * self.REQUEST_SIZE])
            for i in range(self.NUM_REQUESTS)
        ]
        return gate, handles

    def assert_all_failed_once(self, server, handles, match: str) -> None:
        for handle in handles:
            with pytest.raises(Exception, match=match):
                handle.result(timeout=30.0)
        server.drain(timeout=10.0)
        stats = server.stats()
        assert stats.requests_failed == len(handles)
        assert stats.requests_completed == 0
        # A second release of any member's slot would drive this negative.
        assert server._inflight == 0

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    @pytest.mark.parametrize(
        "stage, target, attribute",
        [
            ("resolve", BatchEngine, "build_support"),
            ("compute", BatchEngine, "run_batch"),
            ("complete", "repro.serving.server", "attribute_wave_macs"),
        ],
    )
    def test_injected_fault_fails_every_member_exactly_once(
        self, deployed, tiny_dataset, monkeypatch, stage, target, attribute,
        prefetch_depth,
    ):
        def boom(*args, **kwargs):
            raise RuntimeError(f"injected {stage} fault")

        server = InferenceServer(deployed, self.config(prefetch_depth))
        try:
            gate, handles = self.submit_fused(server, tiny_dataset)
            if isinstance(target, str):
                monkeypatch.setattr(f"{target}.{attribute}", boom)
            else:
                monkeypatch.setattr(target, attribute, boom)
            gate.set()
            self.assert_all_failed_once(server, handles, f"injected {stage} fault")
            assert server.stats().waves_dispatched == 0
        finally:
            monkeypatch.undo()
            server.close()

    def test_abort_fails_units_parked_in_the_fetch_queue(self, deployed, tiny_dataset):
        fetchers = threading.Event()
        server = InferenceServer(
            FetcherGatedPredictor(deployed, fetchers), self.config(prefetch_depth=2)
        )
        closer = threading.Thread(target=server.close, kwargs={"abort": True})
        try:
            gate, handles = self.submit_fused(server, tiny_dataset)
            gate.set()
            # Both units miss the cache and park behind the held fetchers.
            wait_until(lambda: server.stats().prefetch_issued == 2)
            closer.start()
            wait_until(lambda: server._prefetch.stopped)
            fetchers.set()  # the fetchers wake, see the stop and exit
            closer.join(timeout=30.0)
            assert not closer.is_alive()
            self.assert_all_failed_once(server, handles, "shut down before prefetch")
            assert server.stats().prefetch_cancelled == 2
        finally:
            fetchers.set()
            server.close()
