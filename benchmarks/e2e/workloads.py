"""The four workloads: what each sends, in which phases, and what it reports.

Phase lengths are fixed shares of ``--seconds`` so a shorter run keeps every
workload and every phase (README.md has the table).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` spends the same time
on the load ladder, the probe pass and one traced phase, and reports the
per-layer metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import CriticalPathAnalyzer, TraceRecorder, Tracer
from repro.obs.export import spans_to_dicts
from repro.serving import SubmitOptions

import probes
from loadgen import (
    LoadGenerator,
    PhaseResult,
    RequestStream,
    try_percentile,
    window_rate,
)
from metrics import SERVING_LEVELS
from system import (
    LATENCY_LIMIT_MS,
    PROFILE,
    RATES_RPS,
    SERVING,
    STAGES,
    build_oracle,
    set_up,
)

SETUP_REPEATS = 3
OUTSTANDING = 64
#: The saturation window skips the ramp while the first replies are in flight.
SATURATION_RAMP_S = 0.5
UNTRACED = SubmitOptions(trace_parent=None)

#: Shares of ``--seconds`` per phase.  ``control`` is the bare-predictor
#: NAP/fixed-depth sweep over the workload's own requests (nap_speedup).
PLAN = {
    ("online", 0): {"control": 0.08, "warmup": 0.08, "r2": 0.28, "r3": 0.28, "sat": 0.28},
    ("online", 1): {"warmup": 0.06, "r1": 0.15, "r3": 0.10, "sat": 0.12, "r2": 0.10,
                    "traced": 0.12},
    ("churn", 0): {"control": 0.08, "warmup": 0.08, "churn": 0.56, "sat": 0.28},
    ("churn", 1): {"warmup": 0.06, "churn": 0.45, "traced": 0.12},
    ("offline", 0): {"sweep": 1.0},
    ("offline", 1): {"sweep": 0.5},
}
#: Churn events as shares of the churn phase.
RAIL_DOWN, RAIL_UP, ROLLOUT = 0.25, 0.50, 0.60
#: ``latency_p95_hi_ms`` on churn: requests due in this window of the phase.
DISTURBED = (0.25, 0.75)
CONTROL_REQUESTS = 16


def probe_count(seconds: float) -> int:
    """Requests in the probe pass: 64 in a >= 72 s run, never under 8."""
    return int(min(64, max(8, seconds * 0.9)))


def spread(parts) -> float | None:
    """In-run repeat spread: (max - min) / median of the same statistic
    computed on disjoint parts of the run."""
    values = [value for value in parts if value is not None]
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else None


@dataclass
class Run:
    """One workload run: inputs, the system, and what has been measured."""

    workload: str
    seed: int
    seconds: float
    trace: int
    work_root: Path
    #: ``setup_s`` is the median of this many set-ups (1 in a smoke run).
    setup_repeats: int = SETUP_REPEATS
    system: object = None
    oracle: object = None
    tracer: object = None
    stream: RequestStream | None = None
    #: Recorded spans of the traced phase (``--trace 1``), as dicts.
    spans: list | None = None
    metrics: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def put(self, name: str, value, *, samples=None, spread=None) -> None:
        entry = {"value": None if value is None else float(value)}
        if samples is not None:
            entry["samples"] = int(samples)
        if spread is not None:
            entry["spread"] = float(spread)
        self.metrics[name] = entry

    def put_all(self, values: dict) -> None:
        for name, value in values.items():
            self.put(name, value)

    def count(self, phase: PhaseResult) -> PhaseResult:
        self.phases[phase.name] = phase.summary()
        self.attempted += phase.sent
        self.failed += phase.failed
        if phase.failures.get("mismatch"):
            self.correct = False
        return phase

    def share(self, plan: dict, phase: str) -> float:
        return plan[phase] * self.seconds


# --------------------------------------------------------------------- #
# Set-up (every workload) and the bare-predictor sweep (nap_speedup)
# --------------------------------------------------------------------- #
def set_up_system(run: Run, **fleet_kwargs) -> None:
    """Set up ``run.setup_repeats`` times, keep the last, report the median."""
    totals, stages = [], {stage: [] for stage in STAGES}
    for _ in range(run.setup_repeats):
        if run.system is not None:
            run.system.close()
        run.system = set_up(run.work_root, tracer=run.tracer, **fleet_kwargs)
        totals.append(run.system.setup_s)
        for stage in STAGES:
            stages[stage].append(run.system.timings[stage])
    # The first set-up of a process also pays one-off imports and page-ins;
    # the repeat spread is between the later ones.
    run.put("setup_s", statistics.median(totals), samples=len(totals),
            spread=spread(totals[1:]))
    for stage in STAGES:
        run.put(f"setup.{stage}", statistics.median(stages[stage]))
    run.oracle = build_oracle(run.system)
    run.stream = RequestStream(
        run.workload, run.seed, run.system.test_idx, hot=run.workload == "online_hot"
    )
    run.put("accuracy", run.oracle.accuracy)
    run.put("macs_per_node", run.oracle.macs_per_node)
    # Exact and independent of --seed: the whole test split, not a sample.
    run.put("core.inference.exit_depth_mean", run.oracle.exit_depth_mean)
    run.put("core.inference.exit_depth1_share", run.oracle.exit_depth1_share)


def sweep(run: Run, batches: list, seconds: float, name: str) -> dict:
    """Alternate whole passes over ``batches`` through the bare NAP and
    fixed-depth predictors for ``seconds``; every call is checked."""
    system, oracle = run.system, run.oracle
    phase = PhaseResult(name=name, seconds=seconds)
    calls = {"nap": [], "fixed": []}
    passes = {"nap": [], "fixed": []}
    fixed_truth: dict[int, np.ndarray] = {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes["nap"]) < 2:
        for config, predictor in (("nap", system.predictor), ("fixed", system.fixed)):
            pass_ms = 0.0
            for index, batch in enumerate(batches):
                start = time.perf_counter()
                result = predictor.predict(batch)
                elapsed = (time.perf_counter() - start) * 1e3
                pass_ms += elapsed
                calls[config].append(elapsed)
                phase.sent += 1
                if config == "nap":
                    ok = oracle.check(batch, result)
                else:
                    # Fixed depth has no oracle of its own: every node must
                    # exit at the full depth and passes must agree.
                    truth = fixed_truth.setdefault(index, result.predictions)
                    ok = bool(
                        np.all(result.depths == PROFILE.depth)
                        and np.array_equal(result.predictions, truth)
                    )
                if ok:
                    phase.succeeded += 1
                else:
                    phase.count_failure("mismatch")
            passes[config].append(pass_ms)
    run.count(phase)
    ratios = [f / n for f, n in zip(passes["fixed"], passes["nap"])]
    return {"calls": calls, "passes": passes, "ratios": ratios}


def put_speedup(run: Run, swept: dict) -> None:
    ratios = swept["ratios"]
    half = len(ratios) // 2
    run.put(
        "nap_speedup", statistics.median(ratios), samples=len(ratios),
        spread=spread([statistics.median(ratios[:half]), statistics.median(ratios[half:])])
        if half else None,
    )


# --------------------------------------------------------------------- #
# offline_sweep
# --------------------------------------------------------------------- #
def run_offline(run: Run) -> None:
    plan = PLAN["offline", run.trace]
    set_up_system(run, fleet=False)
    test_idx = run.system.test_idx
    size = PROFILE.batch_size
    batches = [test_idx[i:i + size] for i in range(0, len(test_idx), size)]
    swept = sweep(run, batches, run.share(plan, "sweep"), "sweep")
    nap_calls, fixed_calls = swept["calls"]["nap"], swept["calls"]["fixed"]
    nap_passes = np.asarray(swept["passes"]["nap"])
    odd, even = nap_passes[1::2], nap_passes[0::2]
    per_pass = len(test_idx) * 1e3
    nodes_spread = spread([per_pass / np.median(odd), per_pass / np.median(even)])
    put_latency(run, "latency_p50_ms", "latency_p95_ms", nap_calls,
                np.array_split(nap_calls, 2))
    put_latency(run, None, "latency_p95_hi_ms", fixed_calls, np.array_split(fixed_calls, 2))
    run.put("nodes_per_s", per_pass / np.median(nap_passes), samples=len(nap_passes),
            spread=nodes_spread)
    run.put("saturation_rps", len(batches) * 1e3 / np.median(nap_passes),
            samples=len(nap_passes), spread=nodes_spread)
    put_speedup(run, swept)
    if run.trace:
        picks = run.stream.rng("probe").choice(
            len(batches), size=probe_count(run.seconds)
        )
        requests = [batches[pick] for pick in picks]
        run.put_all(probes.engine_probes(run.system, requests))
        engine = run.system.predictor.make_engine()
        run.put("peel.engine_ms",
                np.median([probes.timed(engine.run_batch, batch)[1] for batch in requests]))


# --------------------------------------------------------------------- #
# online_cold / online_hot / online_churn
# --------------------------------------------------------------------- #
def fleet_snapshot(cluster) -> dict:
    """Cumulative serving counters; phases report the difference of two."""
    stats = cluster.stats()
    shards = list(stats.per_shard.values())
    return {
        "cache_hits": stats.cache_hits,
        "cache_lookups": stats.cache_hits + stats.cache_misses,
        "macs": stats.macs.total,
        "requests": stats.requests_completed - stats.requests_replayed,
        "shared_row_macs": sum(s.wave_shared_row_macs for s in shards),
        "total_row_macs": sum(s.wave_total_row_macs for s in shards),
        "busy_s": stats.timings.total,
        "max_depth": max(s.queue_max_depth for s in shards),
        "workers": len(shards) * SERVING.num_workers,
    }


def serving_metrics(level: str, phase: PhaseResult, before: dict, after: dict) -> dict:
    """The ``serving.*.<level>`` metrics of one load level."""
    delta = {key: after[key] - before[key] for key in before}
    parts = np.asarray(phase.parts, dtype=np.float64).reshape(-1, 6)
    # One row per distinct micro-batch: (shard, batch_id) identifies it.
    _, first = np.unique(parts[:, :2], axis=0, return_index=True)
    batches = parts[first]

    def ratio(top: str, bottom: str) -> float:
        return delta[top] / delta[bottom] if delta[bottom] else 0.0

    def mean(column: int) -> float:
        return float(batches[:, column].mean()) if len(batches) else 0.0

    values = {
        "queue.wait_p50_ms": float(np.median(parts[:, 2])) if len(parts) else 0.0,
        "queue.wait_p95_ms": try_percentile(parts[:, 2], 95),
        # Cumulative high-water mark up to the end of this phase.
        "queue.max_depth": after["max_depth"],
        "batcher.batch_requests_mean": mean(4),
        "batcher.batch_nodes_mean": mean(3),
        "cache.hit_share": ratio("cache_hits", "cache_lookups"),
        # Over micro-batches: the width of the wave each one rode in.
        "wave.width_p50": float(np.median(batches[:, 5])) if len(batches) else 0.0,
        "wave.shared_row_share": ratio("shared_row_macs", "total_row_macs"),
        "wave.macs_per_request": ratio("macs", "requests"),
        "worker.busy_share": delta["busy_s"] / (phase.wall_s * after["workers"]),
    }
    return {f"serving.{name}.{level}": value for name, value in values.items()}


def open_loop(run: Run, generator: LoadGenerator, name: str, rate: float,
              seconds: float) -> PhaseResult:
    requests, due = run.stream.open_loop(name, rate, seconds)
    return run.count(
        generator.open_loop(name, requests, due, rate=rate, seconds=seconds)
    )


def saturate(run: Run, generator: LoadGenerator, seconds: float) -> PhaseResult:
    phase = run.count(
        generator.saturate("sat", run.stream.endless("sat"), seconds=seconds,
                           outstanding=OUTSTANDING)
    )
    lo = min(SATURATION_RAMP_S, seconds / 4)
    middle = (lo + seconds) / 2
    run.put("saturation_rps", window_rate(phase, lo, seconds), samples=phase.succeeded,
            spread=spread([window_rate(phase, lo, middle),
                           window_rate(phase, middle, seconds)]))
    run.put("nodes_per_s", window_rate(phase, lo, seconds, phase.nodes),
            samples=phase.succeeded)
    return phase


def put_latency(run: Run, p50: str | None, p95: str, values, halves=None) -> None:
    """Median and p95 of ``values``; ``halves`` (the two halves of a steady
    phase) give the in-run repeat spread."""
    first, second = halves if halves is not None else (None, None)

    def repeat(statistic):
        return spread([statistic(first), statistic(second)]) if halves else None

    if p50 is not None:
        run.put(p50, np.median(values), samples=len(values), spread=repeat(np.median))
    run.put(p95, try_percentile(values, 95), samples=len(values),
            spread=repeat(lambda part: try_percentile(part, 95)))


def slo_rate(phases: dict) -> float:
    """Highest rung whose p95 meets the limit with nothing lost or backed up."""
    met = 0.0
    for level, phase in phases.items():
        p95 = try_percentile(phase.latency_ms, 95)
        if (
            p95 is not None
            and p95 <= LATENCY_LIMIT_MS
            and phase.failed == 0
            and phase.succeeded >= 0.97 * phase.sent
            and phase.drain_s <= 1.0
        ):
            met = max(met, RATES_RPS[level])
    return met


def churn_phase(run: Run, generator: LoadGenerator, seconds: float) -> PhaseResult:
    """Cold stream at r2 while the control plane writes (its own thread)."""
    fleet = run.system.fleet
    rollout = {}

    def control(start: float) -> None:
        def wait_until(share: float) -> None:
            time.sleep(max(0.0, start + share * seconds - time.perf_counter()))

        wait_until(RAIL_DOWN)
        fleet.rail0.disconnect()
        wait_until(RAIL_UP)
        fleet.rail0.reconnect()
        wait_until(ROLLOUT)
        began = time.perf_counter()
        fleet.cluster.install_plan(fleet.successor)
        fleet.cluster.finish_rollout(timeout=30.0)
        rollout["began_s"] = began - start
        rollout["seconds"] = time.perf_counter() - began

    controller = threading.Thread(
        target=control, args=(time.perf_counter(),), daemon=True
    )
    controller.start()
    phase = open_loop(run, generator, "churn", RATES_RPS["r2"], seconds)
    controller.join(timeout=60.0)
    if controller.is_alive() or not rollout:
        run.correct = False
        run.notes["churn"] = "the control thread did not finish the rollout"
        return phase
    due = np.asarray(phase.due_s)
    during = (due >= rollout["began_s"]) & (
        due < rollout["began_s"] + rollout["seconds"]
    )
    run.put("shard.router.rollout_s", rollout["seconds"])
    run.put("shard.router.requests_during_rollout", int(during.sum()))
    return phase


def run_online(run: Run) -> None:
    churn = run.workload == "online_churn"
    plan = PLAN["churn" if churn else "online", run.trace]
    if run.trace:
        run.tracer = Tracer(TraceRecorder(capacity=1 << 18))
    set_up_system(run, fleet=True, faulty_rail=churn, with_successor=churn)
    fleet = run.system.fleet
    cluster = fleet.cluster

    def submit(node_ids):
        # On a traced fleet the load phases opt out request by request, so
        # only the traced phase pays for spans.
        return cluster.submit(node_ids, UNTRACED) if run.trace else cluster.submit(node_ids)

    generator = LoadGenerator(submit, run.oracle.check)
    rate = RATES_RPS["r2"]

    if not run.trace:
        swept = sweep(run, run.stream.requests("control", CONTROL_REQUESTS),
                      run.share(plan, "control"), "control")
        put_speedup(run, swept)
    open_loop(run, generator, "warmup", rate, run.share(plan, "warmup"))

    ladder, serving = {}, {}
    for level in ("r1", "r2", "r3"):
        if level not in plan:
            continue
        before = fleet_snapshot(cluster)
        ladder[level] = open_loop(
            run, generator, level, RATES_RPS[level], run.share(plan, level)
        )
        serving[level] = (ladder[level], before, fleet_snapshot(cluster))
    if churn:
        phase = churn_phase(run, generator, run.share(plan, "churn"))
        due = np.asarray(phase.due_s) / phase.seconds
        latency = np.asarray(phase.latency_ms)
        # Before the rollout the fleet is the seed's, with a rail going down
        # and coming back: two steady halves.  The whole-phase p95 would sit
        # on the knee between the pre- and post-rollout latency modes (18 %
        # run-to-run spread); the rollout's cost is the "hi" window instead.
        pre_rollout = latency[due < ROLLOUT]
        put_latency(run, "latency_p50_ms", "latency_p95_ms", pre_rollout,
                    np.array_split(pre_rollout, 2))
        disturbed = (due >= DISTURBED[0]) & (due < DISTURBED[1])
        put_latency(run, None, "latency_p95_hi_ms", latency[disturbed])
        # The traced phase runs on the successor: compare like with like.
        untraced_ms = latency[due >= DISTURBED[1]]
    else:
        untraced_ms = ladder["r2"].latency_ms
        for p50, p95, level in (("latency_p50_ms", "latency_p95_ms", "r2"),
                                (None, "latency_p95_hi_ms", "r3")):
            put_latency(run, p50, p95, ladder[level].latency_ms, ladder[level].halves())
    if "sat" in plan:
        before = fleet_snapshot(cluster)
        phase = saturate(run, generator, run.share(plan, "sat"))
        serving["sat"] = (phase, before, fleet_snapshot(cluster))

    if run.trace:
        for level in SERVING_LEVELS:
            if level in serving:
                run.put_all(serving_metrics(level, *serving[level]))
        if ladder:
            run.put("slo_rate_rps", slo_rate(ladder))
        requests = run.stream.requests("probe", probe_count(run.seconds))
        # The probes are idle measurements: start them from a collected heap,
        # not from whatever garbage the load phases left behind.
        gc.collect()
        run.put_all(probes.engine_probes(run.system, requests))
        run.put_all(probes.store_probes(run.system, requests))
        rows, phases = probes.peel(run.system, requests, run.oracle.check)
        run.put_all(rows)
        for phase in phases:
            run.count(phase)
        traced_phase(run, run.share(plan, "traced"), untraced_ms)
        run.put_all(probes.fleet_counters(fleet))


def traced_phase(run: Run, seconds: float, untraced_ms) -> None:
    """r2 with every request traced; span shares of the traced wall time.
    ``untraced_ms`` are the latencies of the same fleet at r2 without spans."""
    cluster = run.system.fleet.cluster
    generator = LoadGenerator(cluster.submit, run.oracle.check)
    run.tracer.recorder.clear()
    phase = open_loop(run, generator, "traced", RATES_RPS["r2"], seconds)
    spans = run.tracer.spans()
    breakdowns = CriticalPathAnalyzer(spans).request_breakdowns()
    total = sum(b.total for b in breakdowns)
    names = {
        "queue": "queue_wait", "coalesce": "coalesce", "build": "support_build",
        "fetch": "fetch_round", "compute": "engine_compute", "scatter": "scatter",
        "batch_wait": "batch_wait",
    }
    shares = {
        f"span.{metric}_share": (
            sum(b.components.get(component, 0.0) for b in breakdowns) / total
            if total else 0.0
        )
        for component, metric in names.items()
    }
    run.put_all(shares)
    run.put("span.unattributed_share", 1.0 - sum(shares.values()))
    run.put("obs.trace.spans_per_request",
            len(spans) / len(breakdowns) if breakdowns else 0.0)
    if phase.latency_ms and len(untraced_ms):
        run.put("obs.trace.overhead_share",
                np.median(phase.latency_ms) / np.median(untraced_ms) - 1.0)
    run.notes["trace"] = {
        "spans": len(spans), "dropped": run.tracer.recorder.dropped,
        "traced_requests": len(breakdowns),
    }
    run.spans = spans_to_dicts(spans)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(run: Run) -> Run:
    try:
        if run.workload == "offline_sweep":
            run_offline(run)
        else:
            run_online(run)
        run.put("failed_share", run.failed / run.attempted)
        run.put("peak_rss_mb", peak_rss_mb())
    finally:
        if run.system is not None:
            run.system.close()
    return run
