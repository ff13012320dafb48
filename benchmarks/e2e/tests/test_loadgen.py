"""The load generator: seeded inputs, the percentile rule, due-time latency
and failure accounting — against stub fleets, no model needed."""

import numpy as np
import pytest

from loadgen import (
    LoadGenerator,
    PhaseResult,
    RequestStream,
    TooFewSamples,
    percentile,
    window_rate,
)

POOL = np.arange(1000, 6000)


def stream_bytes(workload: str, seed: int, *, hot: bool) -> bytes:
    stream = RequestStream(workload, seed, POOL, hot=hot)
    requests, due = stream.open_loop("r2", rate=160.0, seconds=2.0)
    extra = stream.requests("probe", 16)
    return b"".join(
        [due.tobytes(), *(np.asarray(r, dtype=np.int64).tobytes() for r in requests + extra)]
    )


@pytest.mark.parametrize("hot", [False, True])
def test_same_seed_same_bytes_other_seed_differs(hot):
    assert stream_bytes("w", 7, hot=hot) == stream_bytes("w", 7, hot=hot)
    assert stream_bytes("w", 7, hot=hot) != stream_bytes("w", 8, hot=hot)
    assert stream_bytes("w", 7, hot=hot) != stream_bytes("other", 7, hot=hot)


def test_phases_draw_independently():
    # What a phase sends must not depend on how much an earlier,
    # timing-dependent phase consumed.
    fresh = RequestStream("w", 3, POOL, hot=False)
    used = RequestStream("w", 3, POOL, hot=False)
    endless = used.endless("sat")
    for _ in range(700):
        next(endless)
    a, b = fresh.requests("traced", 20), used.requests("traced", 20)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_cold_requests_are_distinct_nodes_hot_requests_recur():
    cold = RequestStream("w", 1, POOL, hot=False).requests("r2", 400)
    assert all(1 <= len(r) <= 8 and len(set(r.tolist())) == len(r) for r in cold)
    assert len({tuple(sorted(r.tolist())) for r in cold}) == len(cold)
    hot = RequestStream("w", 1, POOL, hot=True).requests("r2", 400)
    assert all(len(r) == 8 for r in hot)
    assert len({tuple(sorted(r.tolist())) for r in hot}) <= 64
    assert len({tuple(r.tolist()) for r in hot}) > 64  # order is permuted per use


def test_percentile_rule_refuses_a_p95_without_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(np.arange(199.0), 95)
    assert percentile(np.arange(200.0), 95) == pytest.approx(189.05)
    with pytest.raises(TooFewSamples):
        percentile(np.arange(999.0), 99)
    with pytest.raises(TooFewSamples):
        percentile(np.arange(19.0), 50)


# --------------------------------------------------------------------- #
class FakeTime:
    """A clock that only moves when someone sleeps on it."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(0.0, seconds)


class Response:
    def __init__(self, node_ids, latency_seconds=0.001):
        self.node_ids = node_ids
        self.latency_seconds = latency_seconds
        self.per_shard = {}


class Handle:
    def __init__(self, response=None, error=None):
        self.response, self.error = response, error

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.response


def test_open_loop_latency_counts_from_the_due_time_when_the_fleet_stalls():
    fake = FakeTime()
    calls = []

    def submit(node_ids):
        calls.append(fake.now)
        if len(calls) == 6:  # the sixth submit blocks the submitter for 100 ms
            fake.sleep(0.100)
        return Handle(Response(node_ids))

    requests = [np.array([i]) for i in range(20)]
    due = np.arange(20) * 0.010
    generator = LoadGenerator(submit, lambda n, r: True, clock=fake.clock, sleep=fake.sleep)
    phase = generator.open_loop("stall", requests, due, rate=100.0, seconds=0.2)

    assert phase.sent == phase.succeeded == 20
    latency = np.asarray(phase.latency_ms)
    # Before the stall: service time only.  After it: the request due at
    # 60 ms leaves at 150 ms, and the backlog drains one due-slot at a time.
    assert latency[:6] == pytest.approx(1.0)
    assert latency[6] == pytest.approx(91.0)
    assert latency[7] == pytest.approx(81.0)
    assert phase.lateness_ms[6] == pytest.approx(90.0)
    assert latency[-1] == pytest.approx(1.0)  # caught up by 160 ms


def test_a_phase_whose_generator_ran_late_is_marked_invalid():
    def phase_with(stall_every):
        fake, count = FakeTime(), [0]

        def submit(node_ids):
            count[0] += 1
            if stall_every and count[0] % stall_every == 0:
                fake.sleep(0.050)
            return Handle(Response(node_ids, latency_seconds=0.020))

        requests = [np.array([i]) for i in range(400)]
        generator = LoadGenerator(
            submit, lambda n, r: True, clock=fake.clock, sleep=fake.sleep
        )
        return generator.open_loop(
            "p", requests, np.arange(400) * 0.010, rate=100.0, seconds=4.0
        )

    assert phase_with(0).valid()
    late = phase_with(20)
    assert late.lateness_p95_ms() > 0.1 * np.median(late.latency_ms)
    assert not late.valid() and late.summary()["valid"] is False


def test_failures_and_refusals_are_counted_against_attempts():
    def submit(node_ids):
        kind = int(node_ids[0]) % 5
        if kind == 1:
            raise RuntimeError("queue full")  # refused at the door
        if kind == 2:
            return Handle(error=RuntimeError("worker died"))  # failed in flight
        return Handle(Response(node_ids))

    def check(node_ids, response):
        return int(node_ids[0]) % 5 != 3  # oracle mismatch

    requests = [np.array([i]) for i in range(50)]
    generator = LoadGenerator(submit, check)
    phase = generator.open_loop("mixed", requests, np.zeros(50), rate=1e6, seconds=0.0)
    assert phase.sent == 50
    assert phase.failures == {"refused": 10, "failed": 10, "mismatch": 10}
    assert phase.succeeded == 20 and phase.failed == 30
    assert phase.summary()["failed_share"] == pytest.approx(0.6)
    assert len(phase.latency_ms) == 20  # only successes have a latency

    result = PhaseResult(name="seq", seconds=0.0)
    walls = [generator.call(result, request) for request in requests]
    assert (result.sent, result.succeeded, result.failed) == (50, 20, 30)
    assert sum(wall is not None for wall in walls) == 30  # answered, right or wrong


def test_saturation_keeps_at_most_the_outstanding_limit_in_flight():
    in_flight, peak = [0], [0]

    class Slow(Handle):
        def result(self, timeout=None):
            in_flight[0] -= 1
            return self.response

    def submit(node_ids):
        in_flight[0] += 1
        peak[0] = max(peak[0], in_flight[0])
        return Slow(Response(node_ids))

    stream = RequestStream("w", 1, POOL, hot=False)
    phase = LoadGenerator(submit, lambda n, r: True).saturate(
        "sat", stream.endless("sat"), seconds=0.2, outstanding=4
    )
    assert phase.succeeded == phase.sent > 0
    assert peak[0] <= 4
    assert window_rate(phase, 0.0, 10.0) == pytest.approx(phase.succeeded / 10.0)
    assert window_rate(phase, 0.0, 10.0, phase.nodes) == pytest.approx(sum(phase.nodes) / 10.0)
