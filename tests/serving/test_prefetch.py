"""Prefetch pipeline: overlap accounting, lifecycle, and served equivalence."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ServingConfig
from repro.exceptions import ConfigurationError, ServingError
from repro.graph.sampling import batch_iterator
from repro.serving import BusyTracker, InferenceServer, PrefetchPipeline
from repro.serving.clock import FakeClock


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
        num_workers=3,
        max_batch_size=32,
        max_wait_ms=1.0,
        cache_capacity=16,
        prefetch_depth=2,
    )
    base.update(overrides)
    return ServingConfig(**base)


def task_for(batch_id: int) -> SimpleNamespace:
    """The pipeline never looks inside a task; the stubs read ``micro_batch``."""
    return SimpleNamespace(micro_batch=batch_id)


# ---------------------------------------------------------------------- #
# BusyTracker: union-of-intervals busy time in virtual time
# ---------------------------------------------------------------------- #
class TestBusyTracker:
    def test_single_interval(self):
        clock = FakeClock()
        busy = BusyTracker(clock)
        busy.enter()
        clock.advance(5.0)
        busy.exit()
        assert busy.busy_seconds() == pytest.approx(5.0)

    def test_overlapping_intervals_count_their_union(self):
        clock = FakeClock()
        busy = BusyTracker(clock)
        busy.enter()          # [0, ...
        clock.advance(2.0)
        busy.enter()          # nested: must not double-count
        clock.advance(3.0)
        busy.exit()
        clock.advance(1.0)
        busy.exit()           # ... 6]
        assert busy.busy_seconds() == pytest.approx(6.0)

    def test_idle_gaps_do_not_accumulate(self):
        clock = FakeClock()
        busy = BusyTracker(clock)
        busy.enter()
        clock.advance(1.0)
        busy.exit()
        clock.advance(10.0)   # idle gap
        busy.enter()
        clock.advance(2.0)
        busy.exit()
        assert busy.busy_seconds() == pytest.approx(3.0)

    def test_open_interval_is_included(self):
        clock = FakeClock()
        busy = BusyTracker(clock)
        busy.enter()
        clock.advance(4.0)
        assert busy.busy_seconds() == pytest.approx(4.0)
        clock.advance(1.0)
        busy.exit()
        assert busy.busy_seconds() == pytest.approx(5.0)


# ---------------------------------------------------------------------- #
# PrefetchPipeline lifecycle over stub callables
# ---------------------------------------------------------------------- #
class TestPrefetchPipeline:
    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="depth"):
            PrefetchPipeline(
                make_engine=object, execute=lambda t, e: None,
                cancel=lambda t, err: None, depth=0,
            )

    def test_each_fetcher_gets_a_private_engine(self):
        engines = []
        done = threading.Semaphore(0)
        seen = []

        def make_engine():
            engine = object()
            engines.append(engine)
            return engine

        def execute(task, engine):
            seen.append(engine)
            done.release()

        pipeline = PrefetchPipeline(
            make_engine=make_engine, execute=execute,
            cancel=lambda t, err: None, depth=2,
        )
        try:
            for i in range(6):
                pipeline.submit(task_for(i))
            for _ in range(6):
                assert done.acquire(timeout=5.0)
            assert len(engines) == 2
            assert set(seen) <= set(engines)
        finally:
            pipeline.stop()

    def test_execute_error_routes_to_cancel_and_fetchers_survive(self):
        cancelled = []
        done = threading.Semaphore(0)

        def execute(task, engine):
            done.release()
            if task.micro_batch == 0:
                raise RuntimeError("fetch blew up")

        pipeline = PrefetchPipeline(
            make_engine=object, execute=execute,
            cancel=lambda t, err: cancelled.append((t.micro_batch, err)),
            depth=1,
        )
        try:
            pipeline.submit(task_for(0))
            pipeline.submit(task_for(1))  # the fetcher must still be alive
            for _ in range(2):
                assert done.acquire(timeout=5.0)
        finally:
            assert pipeline.stop() == 0
        assert len(cancelled) == 1
        assert cancelled[0][0] == 0
        assert isinstance(cancelled[0][1], RuntimeError)

    def test_submit_blocks_at_depth_then_resumes(self):
        release = threading.Event()
        started = threading.Semaphore(0)

        def execute(task, engine):
            started.release()
            assert release.wait(timeout=10.0)

        pipeline = PrefetchPipeline(
            make_engine=object, execute=execute,
            cancel=lambda t, err: None, depth=1,
        )
        try:
            pipeline.submit(task_for(0))
            assert started.acquire(timeout=5.0)  # slot held by the fetch
            second_in = threading.Event()

            def blocked_submit():
                pipeline.submit(task_for(1))
                second_in.set()

            submitter = threading.Thread(target=blocked_submit, daemon=True)
            submitter.start()
            assert not second_in.wait(timeout=0.3)  # backpressure holds
            release.set()
            assert second_in.wait(timeout=5.0)      # slot freed → admitted
            submitter.join(timeout=5.0)
        finally:
            release.set()
            pipeline.stop()

    def test_stop_cancels_queued_tasks_exactly_once_and_is_idempotent(self):
        # Fetcher 0 gets a real engine; fetcher 1 is held inside
        # make_engine so a queued task deterministically has no taker.
        gate = threading.Event()
        busy = threading.Event()
        started = threading.Semaphore(0)
        engines = 0
        executed, cancelled = [], []
        lock = threading.Lock()

        def make_engine():
            nonlocal engines
            with lock:
                engines += 1
                first = engines == 1
            if not first:
                assert gate.wait(timeout=10.0)
            return object()

        def execute(task, engine):
            executed.append(task.micro_batch)
            started.release()
            assert busy.wait(timeout=10.0)

        pipeline = PrefetchPipeline(
            make_engine=make_engine, execute=execute,
            cancel=lambda t, err: cancelled.append((t.micro_batch, err)),
            depth=2,
        )
        pipeline.submit(task_for(0))
        assert started.acquire(timeout=5.0)  # fetcher 0 busy on task 0
        pipeline.submit(task_for(1))         # queued: fetcher 1 is gated

        stopper = threading.Thread(target=pipeline.stop, daemon=True)
        stopper.start()
        busy.set()   # task 0's execute completes normally
        gate.set()   # fetcher 1 wakes, sees the stop, exits
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()

        assert executed == [0]
        assert [batch for batch, _ in cancelled] == [1]
        assert isinstance(cancelled[0][1], ServingError)
        assert pipeline.stop() == 0          # idempotent, nothing re-cancelled
        assert len(cancelled) == 1

    def test_submit_after_stop_raises(self):
        pipeline = PrefetchPipeline(
            make_engine=object, execute=lambda t, e: None,
            cancel=lambda t, err: None, depth=1,
        )
        pipeline.stop()
        assert pipeline.stopped
        with pytest.raises(ServingError, match="stopped"):
            pipeline.submit(task_for(0))

    def test_stop_passes_the_given_error_to_cancel(self):
        gate = threading.Event()
        started = threading.Semaphore(0)
        cancelled = []

        def execute(task, engine):
            started.release()
            assert gate.wait(timeout=10.0)

        pipeline = PrefetchPipeline(
            make_engine=object, execute=execute,
            cancel=lambda t, err: cancelled.append(err), depth=2,
        )
        pipeline.submit(task_for(0))
        assert started.acquire(timeout=5.0)
        pipeline.submit(task_for(1))
        assert started.acquire(timeout=5.0)
        # Both fetchers are mid-execute; a third task can only be queued by
        # a submitter that races stop — skip it and stop with both busy.
        stopper = threading.Thread(
            target=pipeline.stop,
            args=(ServingError("shutting down"),),
            daemon=True,
        )
        stopper.start()
        gate.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert cancelled == []  # in-flight fetches complete, never cancel


# ---------------------------------------------------------------------- #
# Server integration: prefetch-enabled serving is bit-identical
# ---------------------------------------------------------------------- #
class TestPrefetchGating:
    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigurationError, match="prefetch_depth"):
            ServingConfig(prefetch_depth=-1)

    def test_prefetch_requires_the_subgraph_cache(self, deployed):
        with pytest.raises(ConfigurationError, match="cache"):
            InferenceServer(
                deployed, serving_config(prefetch_depth=1, cache_capacity=0)
            )


class TestPrefetchedServingEquivalence:
    def test_bit_identical_to_sequential_predict(
        self, deployed, sequential, tiny_dataset
    ):
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

    def test_bit_identical_to_prefetch_off_serving(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        ticks = batch_iterator(test_idx, 32)
        with InferenceServer(deployed, serving_config(prefetch_depth=0)) as server:
            baseline = server.predict_many(ticks)
        with InferenceServer(deployed, serving_config(prefetch_depth=3)) as server:
            prefetched = server.predict_many(ticks)
        for off, on in zip(baseline, prefetched):
            np.testing.assert_array_equal(off.predictions, on.predictions)
            np.testing.assert_array_equal(off.depths, on.depths)

    def test_permuted_repeats_stay_bit_identical(self, deployed, tiny_dataset):
        batch = np.asarray(tiny_dataset.split.test_idx)[:24]
        permuted = np.random.default_rng(11).permutation(batch)
        with InferenceServer(deployed, serving_config()) as server:
            first = server.submit(batch).result(timeout=30.0)
            second = server.submit(permuted).result(timeout=30.0)
        order = np.argsort(permuted, kind="stable")
        base = np.argsort(batch, kind="stable")
        np.testing.assert_array_equal(
            first.predictions[base], second.predictions[order]
        )
        np.testing.assert_array_equal(first.depths[base], second.depths[order])

    def test_prefetch_counters_populate(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        ticks = batch_iterator(test_idx, 32)
        with InferenceServer(deployed, serving_config()) as server:
            server.predict_many(ticks)
            stats = server.stats()
        assert stats.prefetch_issued > 0
        assert stats.prefetch_completed == stats.prefetch_issued
        assert stats.prefetch_cancelled == 0
        assert stats.prefetch_fetch_seconds >= 0.0
        assert 0.0 <= stats.prefetch_overlap_seconds <= stats.prefetch_fetch_seconds
        assert stats.prefetch_hits <= stats.prefetch_completed
        assert "prefetch_issued" in stats.as_dict()

    def test_prefetch_off_leaves_counters_at_zero(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        with InferenceServer(deployed, serving_config(prefetch_depth=0)) as server:
            server.predict_many(batch_iterator(test_idx, 32))
            stats = server.stats()
        assert stats.prefetch_issued == 0
        assert stats.prefetch_completed == 0


class TestPrefetchShutdown:
    def test_normal_close_drains_with_no_cancellations(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        server = InferenceServer(deployed, serving_config())
        handles = [
            server.submit(batch) for batch in batch_iterator(test_idx, 16)
        ]
        server.close()
        for handle in handles:
            assert handle.result(timeout=10.0).predictions.size > 0
        assert server.stats().prefetch_cancelled == 0

    def test_abort_close_strands_no_request(self, deployed, tiny_dataset):
        test_idx = np.asarray(tiny_dataset.split.test_idx)
        server = InferenceServer(
            deployed, serving_config(max_wait_ms=50.0, queue_capacity=256)
        )
        handles = [
            server.submit(batch) for batch in batch_iterator(test_idx, 8)
        ]
        server.close(abort=True)
        served = failed = 0
        for handle in handles:
            try:
                handle.result(timeout=10.0)
                served += 1
            except ServingError:
                failed += 1
        assert served + failed == len(handles)  # nothing stranded
        stats = server.stats()
        assert stats.prefetch_cancelled == stats.prefetch_issued - (
            stats.prefetch_completed
        )
        with pytest.raises(ServingError):
            server.submit(np.array([0]))
