"""Monitoring benchmark: health-monitor overhead + the auto-rebalance loop.

Two suites, each on the synthetic paper datasets, recorded to
``BENCH_monitor.json``:

``monitor_overhead`` (observation must be ~free)
    The routed online workload of ``bench_sharding.py`` through a
    :class:`~repro.shard.ShardRouter`, once bare and once with the full
    observation stack attached — :class:`~repro.obs.HealthMonitor` ticking
    at a production cadence plus an :class:`~repro.obs.SLOEngine`
    evaluating a latency SLO on every snapshot.  Both modes must reproduce
    the sequential predictions, depth distributions **and MAC totals**
    bit-for-bit — monitoring observes, never changes results.  The
    headline gate: best-of-``repeats`` monitored throughput must stay
    within **>= 0.95x** of unmonitored (``monitor_overhead_within_slo``).

``auto_rebalance_loop`` (the readings must close the loop)
    The deterministic congestion scenario of
    ``tests/obs/test_rebalance.py``: a skewed workload hammers one shard
    whose feature fetches carry an injected 50ms delay, the windowed
    latency burn-rate alert fires, the :class:`~repro.obs.AutoRebalancer`
    installs a replica-boosted plan through the router's versioned
    rollout, latency-routed reads drain to the spare rail and the alert
    resolves.  The control plane runs on a ``FakeClock`` advanced one
    virtual second per request, so the pending → firing → resolved
    timeline is exact; the identical workload also runs with monitoring
    off, and predictions, depths and MAC totals must match bit-for-bit
    (``*_identical`` flags) — the rebalance moved *placement*, never
    answers.  ``p95_recovered_within_slo`` asserts the windowed p95 ends
    below the SLO threshold it breached while congested.

Every equivalence claim is asserted, not just recorded: a divergence fails
the benchmark.  Timing fields are machine-dependent and never gated by
``check_bench.py``; the overhead SLO flag is gated, which is why it is
measured best-of-``repeats`` with one full re-measurement before a breach
fails the gate — equivalence assertions are exact and never retried.

Usage::

    PYTHONPATH=src python benchmarks/bench_monitor.py            # full run
    PYTHONPATH=src python benchmarks/bench_monitor.py --quick    # smoke run

``--quick`` is wired into tier-1 as the ``monitor_bench`` pytest marker
(see ``tests/benchmarks/test_bench_monitor.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import MonitorConfig, ServingConfig, ShardConfig
from repro.experiments import ExperimentProfile
from repro.experiments.context import TrainedContext, get_context
from repro.graph.sampling import batch_iterator
from repro.obs import (
    FIRING,
    PENDING,
    RESOLVED,
    SLO,
    AutoRebalancer,
    HealthMonitor,
    MemoryAlertSink,
    RebalanceAdvisor,
    SLOEngine,
)
from repro.serving import ClusterBuilder, SubmitOptions
from repro.serving.clock import FakeClock
from repro.shard import GraphPartitioner, ShardRouter, ShardedPredictor
from repro.transport import OP_FEATURES, LocalTransport, ShardTransport

FULL_PROFILE = ExperimentProfile(
    dataset_scale=1.0,
    depth=5,
    classifier_epochs=40,
    gate_epochs=15,
    batch_size=500,
    seed=0,
)
FULL_DATASETS = ("flickr-sim", "arxiv-sim", "products-sim")

QUICK_PROFILE = ExperimentProfile(
    dataset_scale=0.3,
    depth=3,
    classifier_epochs=20,
    gate_epochs=10,
    batch_size=200,
    seed=0,
)
QUICK_DATASETS = ("flickr-sim",)

WORKERS = 4
#: Monitored throughput must stay within this fraction of unmonitored.
OVERHEAD_SLO = 0.95
#: Injected per-round feature-fetch delay on the congested shard.
HOT_DELAY = 0.05
#: Latency SLO threshold the congestion breaches and the rebalance restores.
SLO_THRESHOLD = 0.025


def _predictor(context: TrainedContext, *, batch_size: int):
    config = context.nai_config(threshold_quantile=0.5, batch_size=batch_size)
    predictor = context.nai.build_predictor(policy="distance", config=config)
    predictor.prepare(context.dataset.graph, context.dataset.features)
    return predictor


def _assert_equal(label: str, name: str, lhs, rhs) -> None:
    if not np.array_equal(lhs, rhs):
        raise AssertionError(f"{label}: {name} diverged")


def _routed_macs(responses) -> float:
    """Executed MACs across routed responses, deduplicated per micro-batch.

    ``batch_macs`` is shared by every request a micro-batch carried, and
    batch ids restart with each plan generation — key by (version, shard,
    batch) so a mid-run rollout never merges distinct batches.
    """
    seen = {}
    for response in responses:
        for shard_id, sub in response.per_shard.items():
            seen[(response.plan_version, shard_id, sub.batch_id)] = sub
    return sum(sub.batch_macs.total for sub in seen.values())


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector inside a timed region (timeit-style).

    Under pytest the process carries a large retained heap, and collection
    pauses land on whichever mode happens to allocate more — drowning a
    sub-millisecond per-request measurement in collector noise.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _latency_slo(*, min_events: int) -> SLO:
    return SLO(
        name="latency",
        objective="latency",
        threshold_seconds=SLO_THRESHOLD,
        budget_fraction=0.05,
        fast_window_seconds=60.0,
        slow_window_seconds=3600.0,
        for_seconds=0.0,
        resolve_after_seconds=30.0,
        min_events=min_events,
    )


def _recount_burns(slo: SLO, ticks: list[tuple[float, ...]]) -> bool:
    """Whether ``slo``'s burn condition held after any of ``ticks``.

    ``ticks`` are the latency samples each monitor tick ingested.  In a
    run shorter than the fast window (minus one bucket) both windows hold
    every sample, so one burn rate stands for both; with ``for_seconds=0``
    the alert fires at the first tick where the condition holds.
    """
    bad = total = 0
    for samples in ticks:
        bad += sum(1 for sample in samples if sample > slo.threshold_seconds)
        total += len(samples)
        if total < slo.min_events:
            continue
        if bad / total / slo.budget_fraction > slo.burn_rate_threshold:
            return True
    return False


# ---------------------------------------------------------------------- #
# Suite 1: monitor overhead on the routed online workload
# ---------------------------------------------------------------------- #
def run_monitor_overhead_suite(
    context: TrainedContext, dataset_name: str, *, request_size: int,
    max_batch_size: int, num_requests: int, num_shards: int, repeats: int,
    cadence_seconds: float,
) -> dict:
    """Monitored vs. bare routed serving: identical results, ~no cost."""
    predictor = _predictor(context, batch_size=max_batch_size)
    rng = np.random.default_rng(5)
    test_idx = rng.permutation(np.asarray(context.dataset.split.test_idx))
    requests = batch_iterator(test_idx, request_size)[:num_requests]
    sequential = [predictor.predict(request) for request in requests]
    oracle_predictions = np.concatenate([r.predictions for r in sequential])
    oracle_depths = np.concatenate([r.depths for r in sequential])

    sharded = ShardedPredictor.from_predictor(predictor).prepare(
        context.dataset.graph,
        context.dataset.features,
        ShardConfig(num_shards=num_shards, strategy="degree_balanced"),
    )
    serving = ServingConfig(
        num_workers=max(1, WORKERS // num_shards),
        max_batch_size=max_batch_size, max_wait_ms=0.5, cache_capacity=0,
    )
    label = f"{dataset_name}/monitor_overhead/x{num_shards}"
    slo = _latency_slo(min_events=8)
    # Per monitored run: did the latency alert fire (recount-confirmed)?
    alerts_fired: list[bool] = []
    monitor_config = MonitorConfig(
        window_seconds=60.0, num_buckets=12, cadence_seconds=cadence_seconds
    )

    def timed_run(mode: str):
        monitor = engine = sink = None
        ticks = 0
        ingested: list[tuple[float, ...]] = []
        with ShardRouter(sharded, serving) as router:
            if mode == "monitored":
                monitor = HealthMonitor(router, monitor_config)
                sink = MemoryAlertSink()
                engine = SLOEngine([slo], sinks=[sink])
            # Untimed warmup: worker threads spin up lazily and the first
            # submissions pay import/allocation costs that belong to
            # neither mode.  Results are discarded; the timed pass below
            # serves every request, so equivalence still covers them all.
            for request in requests[:4]:
                router.submit(request, SubmitOptions(timeout=600.0)).result(timeout=600.0)
            with _gc_paused():
                start = time.perf_counter()
                responses = []
                for request in requests:
                    responses.append(
                        router.submit(request, SubmitOptions(timeout=600.0)).result(
                            timeout=600.0
                        )
                    )
                    if monitor is not None:
                        health = monitor.maybe_tick()
                        if health is not None:
                            engine.tick(health)
                            ingested.append(health.interval_latency_samples)
                wall = time.perf_counter() - start
            if monitor is not None:
                ticks = monitor.ticks
                # Wall-clock latencies on a shared machine may breach the
                # threshold, so whether the alert fires is not the check;
                # that it fires exactly when the ingested samples burn is.
                if wall >= slo.fast_window_seconds / 2:
                    raise AssertionError(
                        f"{label}: a {wall:.1f}s run is too long for the "
                        "alert recount (samples may leave the fast window)"
                    )
                fired = FIRING in sink.states(slo.name)
                burning = _recount_burns(slo, ingested)
                if fired != burning:
                    raise AssertionError(
                        f"{label}: latency SLO fired={fired}, but the recount "
                        f"of the ingested samples says burning={burning}"
                    )
                alerts_fired.append(fired)
            macs = _routed_macs(responses)
        _assert_equal(
            f"{label}/{mode}", "predictions",
            np.concatenate([r.predictions for r in responses]),
            oracle_predictions,
        )
        _assert_equal(
            f"{label}/{mode}", "depths",
            np.concatenate([r.depths for r in responses]),
            oracle_depths,
        )
        return wall, ticks, macs

    # Single measurements are scheduler-jitter dominated; run the modes
    # back to back ``repeats`` times and gate on the better of the best
    # back-to-back pair and the ratio of best walls: a contended scheduler
    # slows one run of a pair far more than the monitor ever could, while
    # the best wall of each mode converges on the uncontended speed as
    # repeats accumulate.  The per-request MAC work is deterministic (one
    # request, one batch per owning shard), so every run — either mode,
    # either attempt — must tally the same total.
    reference_macs = None

    def measure():
        nonlocal reference_macs
        walls = {"bare": float("inf"), "monitored": float("inf")}
        pair_ratios = []
        monitor_ticks = 0
        for _ in range(repeats):
            bare_wall, _, bare_macs = timed_run("bare")
            monitored_wall, monitor_ticks, monitored_macs = timed_run(
                "monitored"
            )
            if reference_macs is None:
                reference_macs = bare_macs
            for mode, macs in (
                ("bare", bare_macs),
                ("monitored", monitored_macs),
            ):
                if abs(macs - reference_macs) >= 1e-6:
                    raise AssertionError(
                        f"{label}/{mode}: MAC totals diverged"
                    )
            walls["bare"] = min(walls["bare"], bare_wall)
            walls["monitored"] = min(walls["monitored"], monitored_wall)
            pair_ratios.append(
                bare_wall / monitored_wall if monitored_wall else float("inf")
            )
        best_wall_ratio = (
            walls["bare"] / walls["monitored"]
            if walls["monitored"]
            else float("inf")
        )
        return walls, pair_ratios, monitor_ticks, max(
            max(pair_ratios), best_wall_ratio
        )

    # The equivalence assertions are exact and never retried; the wall
    # ratio is a measurement, so a breach earns one full re-measurement
    # before it fails the gate (a noisy-neighbour burst can slow every
    # run of an attempt by more than the whole overhead budget).
    for attempt in range(1, 3):
        walls, pair_ratios, monitor_ticks, throughput_ratio = measure()
        if throughput_ratio >= OVERHEAD_SLO:
            break
    if throughput_ratio < OVERHEAD_SLO:
        raise AssertionError(
            f"{label}: monitored throughput {throughput_ratio:.3f}x of bare "
            f"(SLO {OVERHEAD_SLO}x, {attempt} attempts)"
        )
    return {
        "dataset": dataset_name,
        "suite": "monitor_overhead",
        "num_shards": num_shards,
        "requests": len(requests),
        "nodes": int(sum(r.shape[0] for r in requests)),
        "repeats": repeats,
        "monitor_ticks": monitor_ticks,
        "monitored_runs": len(alerts_fired),
        "alert_fired_runs": sum(alerts_fired),
        "cadence_seconds": monitor_config.cadence_seconds,
        "run_macs": reference_macs,
        "bare_wall_seconds": walls["bare"],
        "monitored_wall_seconds": walls["monitored"],
        "monitored_throughput_ratio": throughput_ratio,
        "pair_throughput_ratios": pair_ratios,
        "measure_attempts": attempt,
        "overhead_slo": OVERHEAD_SLO,
        "predictions_identical": True,
        "depths_identical": True,
        "macs_identical": True,
        "monitor_overhead_within_slo": True,
    }


# ---------------------------------------------------------------------- #
# Suite 2: the closed loop — alert fires, rebalance installs, SLO recovers
# ---------------------------------------------------------------------- #
class ShardDelayTransport(ShardTransport):
    """Injects a fixed per-round service delay on configured shards."""

    def __init__(self, inner, delays, *, ops=(OP_FEATURES,)):
        super().__init__()
        self.inner = inner
        self.delays = {int(s): float(d) for s, d in delays.items()}
        self.ops = set(ops)

    @property
    def num_shards(self):
        return self.inner.num_shards

    def fetch(self, op, requests):
        if op in self.ops:
            delay = max(
                (self.delays.get(int(s), 0.0) for s, _ in requests), default=0.0
            )
            if delay > 0.0:
                time.sleep(delay)
        return self.inner.fetch(op, requests)

    def close(self):
        self.inner.close()


def run_auto_rebalance_suite(
    context: TrainedContext, dataset_name: str, *, num_requests: int,
    request_size: int, num_shards: int,
) -> dict:
    """Skew → alert → versioned replica boost → recovery, vs. monitor-off."""
    predictor = _predictor(context, batch_size=32)
    shard_config = ShardConfig(num_shards=num_shards, strategy="degree_balanced")
    plan0 = GraphPartitioner(shard_config).partition(context.dataset.graph)
    hot = int(np.argmax(plan0.shard_sizes()))
    label = f"{dataset_name}/auto_rebalance_loop/x{num_shards}"

    def build(plan):
        def rails(store):
            return [
                ShardDelayTransport(LocalTransport(store.shards), {hot: HOT_DELAY}),
                LocalTransport(store.shards),
            ][: plan.max_replication]

        return (
            ClusterBuilder(ShardedPredictor.from_predictor(predictor))
            .graph(context.dataset.graph, context.dataset.features)
            .shards(num_shards, strategy="degree_balanced")
            .plan(plan)
            .replicated(rails, route_by="latency")
            .build_predictor()
        )

    # Zipf-ish skew: 80% of batches target the hot shard's owned nodes.
    rng = np.random.default_rng(7)
    batches = [
        rng.choice(
            plan0.owned[
                hot if rng.random() < 0.8 else int(rng.integers(0, num_shards))
            ],
            size=request_size,
            replace=False,
        )
        for _ in range(num_requests)
    ]
    serving = ServingConfig(
        num_workers=2, max_batch_size=32, max_wait_ms=0.5, cache_capacity=0
    )

    def run(monitored: bool) -> dict:
        fake = FakeClock()
        router = ShardRouter(build(plan0), serving)
        monitor = engine = auto = sink = None
        if monitored:
            monitor = HealthMonitor(
                router,
                MonitorConfig(
                    window_seconds=60.0, num_buckets=12, cadence_seconds=1.0
                ),
                clock=fake,
            )
            sink = MemoryAlertSink()
            engine = SLOEngine(
                [_latency_slo(min_events=8)], sinks=[sink], clock=fake
            )
            auto = AutoRebalancer(
                router,
                RebalanceAdvisor(
                    base_replication=1, boost=1,
                    hot_fraction=1.0 / num_shards, max_rails=2,
                ),
                build,
                monitor=monitor,
                cooldown_seconds=10_000.0,
                clock=fake,
            )
            engine.add_sink(auto)

        responses = []
        congested_p95 = recovered_p95 = 0.0
        start = time.perf_counter()
        with router:
            for batch in batches:
                responses.append(
                    router.submit(batch, SubmitOptions(timeout=600.0)).result(timeout=600.0)
                )
                if monitored:
                    fake.advance(1.0)
                    health = monitor.tick()
                    if auto.installs == 0:
                        congested_p95 = max(congested_p95, health.latency.p95)
                    engine.tick(health)
            rollout = router.rollout_state()  # before retiring drains it
            router.finish_rollout(timeout=600.0)
            if monitored:
                recovered_p95 = monitor.tick().latency.p95
            wall = time.perf_counter() - start
        return {
            "wall": wall,
            "predictions": np.concatenate([r.predictions for r in responses]),
            "depths": np.concatenate([r.depths for r in responses]),
            "macs": _routed_macs(responses),
            "failed": sum(row["requests_failed"] for row in rollout),
            "routed": sum(row["requests_routed"] for row in rollout),
            "plan_versions": sorted({r.plan_version for r in responses}),
            "alert_states": sink.states("latency") if monitored else [],
            "installs": auto.installs if monitored else 0,
            "history": (
                [h for h in (auto.history if monitored else []) if "version" in h]
            ),
            "congested_p95": congested_p95,
            "recovered_p95": recovered_p95,
            "final_version": router.plan_version,
        }

    monitored = run(monitored=True)
    bare = run(monitored=False)

    if monitored["alert_states"] != [PENDING, FIRING, RESOLVED]:
        raise AssertionError(
            f"{label}: alert lifecycle was {monitored['alert_states']}"
        )
    if monitored["installs"] != 1 or monitored["final_version"] != (
        plan0.version + 1
    ):
        raise AssertionError(f"{label}: expected exactly one versioned install")
    (install,) = monitored["history"]
    if install["diff"]["boosted"].get(str(hot)) != {"from": 1, "to": 2}:
        raise AssertionError(f"{label}: hot shard {hot} was not boosted")
    for run_record in (monitored, bare):
        if run_record["failed"] != 0 or run_record["routed"] != len(batches):
            raise AssertionError(f"{label}: requests lost across the rollout")
    if not monitored["congested_p95"] > SLO_THRESHOLD:
        raise AssertionError(f"{label}: congestion never breached the SLO")
    if not monitored["recovered_p95"] < SLO_THRESHOLD:
        raise AssertionError(
            f"{label}: windowed p95 {monitored['recovered_p95'] * 1e3:.1f}ms "
            f"did not recover below {SLO_THRESHOLD * 1e3:.0f}ms"
        )
    _assert_equal(label, "predictions", monitored["predictions"], bare["predictions"])
    _assert_equal(label, "depths", monitored["depths"], bare["depths"])
    if abs(monitored["macs"] - bare["macs"]) >= 1e-6:
        raise AssertionError(f"{label}: MAC totals diverged")

    return {
        "dataset": dataset_name,
        "suite": "auto_rebalance_loop",
        "num_shards": num_shards,
        "hot_shard": hot,
        "hot_delay_seconds": HOT_DELAY,
        "slo_threshold_seconds": SLO_THRESHOLD,
        "requests": len(batches),
        "nodes": int(sum(b.shape[0] for b in batches)),
        "alert_states": monitored["alert_states"],
        "installs": monitored["installs"],
        "plan_versions_served": monitored["plan_versions"],
        "boosted_diff": install["diff"],
        "congested_p95_seconds": monitored["congested_p95"],
        "recovered_p95_seconds": monitored["recovered_p95"],
        "failed_requests": monitored["failed"],
        "monitored_wall_seconds": monitored["wall"],
        "unmonitored_wall_seconds": bare["wall"],
        "run_macs": monitored["macs"],
        "alert_fired": True,
        "alert_resolved": True,
        "rebalance_installed": True,
        "zero_failed_requests": True,
        "p95_recovered_within_slo": True,
        "predictions_identical": True,
        "depths_identical": True,
        "macs_identical": True,
    }


# ---------------------------------------------------------------------- #
def run_bench(*, quick: bool = False) -> dict:
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    datasets = QUICK_DATASETS if quick else FULL_DATASETS
    request_size = 2 if quick else 4
    max_batch_size = 64 if quick else 100
    # Long enough that scheduler jitter (±a few ms per run) stays small
    # against the measured wall; the overhead gate is a ratio of walls.
    overhead_requests = 64 if quick else 120
    # The quick run's wall is tens of milliseconds; tighten the cadence so
    # the monitored mode still takes a meaningful number of snapshots
    # (several, vs. one every few *thousand* requests at a production
    # cadence — the quick gate is already far harsher than deployment).
    cadence_seconds = 0.01 if quick else 0.05
    repeats = 7 if quick else 3
    num_shards = 2 if quick else 4
    rebalance_shards = 4
    rebalance_requests = 120 if quick else 160
    rebalance_request_size = 8

    suites: list[dict] = []
    for dataset_name in datasets:
        context = get_context(dataset_name, profile=profile)
        overhead = run_monitor_overhead_suite(
            context, dataset_name, request_size=request_size,
            max_batch_size=max_batch_size, num_requests=overhead_requests,
            num_shards=num_shards, repeats=repeats,
            cadence_seconds=cadence_seconds,
        )
        suites.append(overhead)
        loop = run_auto_rebalance_suite(
            context, dataset_name, num_requests=rebalance_requests,
            request_size=rebalance_request_size, num_shards=rebalance_shards,
        )
        suites.append(loop)
        print(
            f"{dataset_name.ljust(12)} | monitoring "
            f"{overhead['monitored_throughput_ratio']:.3f}x bare "
            f"({overhead['monitor_ticks']} ticks, alert fired in "
            f"{overhead['alert_fired_runs']}/{overhead['monitored_runs']} "
            "runs) | loop: "
            f"{' -> '.join(loop['alert_states'])}, "
            f"p95 {loop['congested_p95_seconds'] * 1e3:.1f}ms -> "
            f"{loop['recovered_p95_seconds'] * 1e3:.1f}ms, "
            f"{loop['installs']} install(s)"
        )

    overhead_records = [s for s in suites if s["suite"] == "monitor_overhead"]
    loop_records = [s for s in suites if s["suite"] == "auto_rebalance_loop"]
    aggregate = {
        "workers": WORKERS,
        "all_predictions_identical": all(
            s["predictions_identical"] for s in suites
        ),
        "all_depths_identical": all(s["depths_identical"] for s in suites),
        "all_macs_identical": all(s["macs_identical"] for s in suites),
        "monitor_overhead_within_slo": all(
            s["monitor_overhead_within_slo"] for s in overhead_records
        ),
        "min_monitored_throughput_ratio": min(
            s["monitored_throughput_ratio"] for s in overhead_records
        ),
        "all_alerts_resolved": all(s["alert_resolved"] for s in loop_records),
        "all_p95_recovered_within_slo": all(
            s["p95_recovered_within_slo"] for s in loop_records
        ),
    }
    return {
        "benchmark": "bench_monitor",
        "quick": quick,
        "profile": {
            "dataset_scale": profile.dataset_scale,
            "depth": profile.depth,
            "seed": profile.seed,
        },
        "workload": {
            "request_size": request_size, "max_batch_size": max_batch_size,
            "overhead_requests": overhead_requests, "repeats": repeats,
            "cadence_seconds": cadence_seconds,
            "num_shards": num_shards, "rebalance_shards": rebalance_shards,
            "rebalance_requests": rebalance_requests,
            "rebalance_request_size": rebalance_request_size,
        },
        "suites": suites,
        "aggregate": aggregate,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small deterministic smoke run (used by the tier-1 marker test)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_monitor.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    aggregate = report["aggregate"]
    print(
        f"aggregate: monitoring {aggregate['min_monitored_throughput_ratio']:.3f}x "
        f"bare (SLO {OVERHEAD_SLO}x), alerts resolved: "
        f"{aggregate['all_alerts_resolved']}, outputs identical: "
        f"{aggregate['all_predictions_identical'] and aggregate['all_macs_identical']}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
