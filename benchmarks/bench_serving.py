"""Serving benchmark: the online subsystem vs. sequential ``NAIPredictor.predict``.

Three suites, each on the synthetic paper datasets, recorded to
``BENCH_serving.json``:

``streaming`` (equivalence + cache)
    A tick stream whose batches recur (sessions / hot queries).  The server
    (4 workers, subgraph cache) must produce **bit-identical predictions,
    depth distributions and MAC counts** to running ``predict`` over the
    same tick stream — the cache only skips MAC-free sampling work — while
    finishing faster.  Records the cache hit rate and the sampling-time
    reduction.

``online`` (micro-batching throughput)
    The serving workload the paper motivates: many small requests arriving
    independently.  The baseline answers each request with its own
    ``predict`` call; the server coalesces them into micro-batches whose
    supporting subgraphs are shared.  Predictions and depth distributions
    stay bit-identical (per-node results are batch-independent); total MACs
    *drop* — the paper's Figure-5 batch-size effect captured by the serving
    layer — and throughput is the headline ``>= 2x``.

``scaling`` (worker-pool)
    The streaming workload at 1 vs. 4 workers, recording how much the pool
    adds on this machine (on a single-core container the speedup comes from
    the cache and batching; on multi-core hardware the workers multiply it).

``adaptive`` (batching controllers)
    Static vs. adaptive batching policies (:mod:`repro.serving.controller`).
    Two parts: deterministic *virtual-time* load-ramp curves through the
    :mod:`repro.serving.simulator` — throughput and p95 latency per policy
    across offered-load levels, with ``MarginalLatencyPolicy`` asserted to
    beat ``StaticPolicy`` under overload while holding the SLO — and a
    real-server streaming run under each policy asserted **bit-identical**
    (predictions, depths, MAC totals) to the sequential baseline: the
    controllers move batching, never results.

Every equivalence claim is asserted, not just recorded: a divergence fails
the benchmark.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # smoke run
    PYTHONPATH=src python benchmarks/bench_serving.py --suites adaptive

The ``--quick`` mode is wired into tier-1 as the ``serving_bench`` pytest
marker (see ``tests/benchmarks/test_bench_serving.py``); the adaptive suite
alone runs under the ``adaptive_bench`` marker.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ServingConfig
from repro.experiments import ExperimentProfile
from repro.experiments.context import TrainedContext, get_context
from repro.graph.sampling import batch_iterator
from repro.serving import (
    InferenceServer,
    LinearServiceModel,
    MarginalLatencyPolicy,
    StaticPolicy,
    ramp_arrivals,
    simulate_policy,
)

#: Full profile: the three synthetic paper datasets.
FULL_PROFILE = ExperimentProfile(
    dataset_scale=1.0,
    depth=5,
    classifier_epochs=40,
    gate_epochs=15,
    batch_size=500,
    seed=0,
)
FULL_DATASETS = ("flickr-sim", "arxiv-sim", "products-sim")

#: Quick profile: one small dataset, enough to exercise every code path.
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


def _predictor(context: TrainedContext, *, batch_size: int):
    config = context.nai_config(threshold_quantile=0.5, batch_size=batch_size)
    predictor = context.nai.build_predictor(policy="distance", config=config)
    predictor.prepare(context.dataset.graph, context.dataset.features)
    return predictor


def _streaming_ticks(context: TrainedContext, *, tick_size: int, num_ticks: int,
                     distinct: int, seed: int = 3) -> list[np.ndarray]:
    """A stream drawn (with recurrence) from a pool of ``distinct`` sessions.

    Every session is exactly ``tick_size`` nodes so the micro-batcher (whose
    node budget is ``tick_size`` in the streaming suite) maps each request to
    one micro-batch — the served batch composition matches the sequential
    baseline exactly, which the bit-identical MAC assertion requires.
    """
    rng = np.random.default_rng(seed)
    test_idx = np.asarray(context.dataset.split.test_idx)
    pool = [
        batch for batch in batch_iterator(rng.permutation(test_idx), tick_size)
        if batch.shape[0] == tick_size
    ][:distinct]
    # First visit every distinct session once (cold), then recur.
    order = list(range(len(pool)))
    order += list(rng.integers(0, len(pool), size=num_ticks - len(pool)))
    return [pool[i] for i in order]


def _assert_equal(label: str, name: str, lhs, rhs) -> None:
    if not np.array_equal(lhs, rhs):
        raise AssertionError(f"{label}: served {name} diverged from sequential")


def _merge_batches(responses) -> tuple[float, float, float]:
    """(total MACs, total engine seconds, sampling seconds), deduped by batch."""
    seen: dict[int, object] = {}
    for response in responses:
        seen[response.batch_id] = response
    macs = sum(r.batch_macs.total for r in seen.values())
    total = sum(r.batch_timings.total for r in seen.values())
    sampling = sum(r.batch_timings.sampling for r in seen.values())
    return macs, total, sampling


def run_streaming_suite(
    context: TrainedContext, dataset_name: str, *, tick_size: int,
    num_ticks: int, distinct: int,
) -> dict:
    """Equivalence + cache suite: identical tick streams through both paths."""
    predictor = _predictor(context, batch_size=tick_size)
    ticks = _streaming_ticks(
        context, tick_size=tick_size, num_ticks=num_ticks, distinct=distinct
    )

    start = time.perf_counter()
    sequential = [predictor.predict(tick) for tick in ticks]
    sequential_wall = time.perf_counter() - start

    config = ServingConfig(
        num_workers=WORKERS, max_batch_size=tick_size, max_wait_ms=0.5,
        cache_capacity=max(2 * distinct, 8),
    )
    with InferenceServer(predictor, config) as server:
        start = time.perf_counter()
        responses = server.predict_many(ticks, timeout=600.0)
        served_wall = time.perf_counter() - start
        stats = server.stats()

    label = f"{dataset_name}/streaming"
    _assert_equal(
        label, "predictions",
        np.concatenate([r.predictions for r in responses]),
        np.concatenate([r.predictions for r in sequential]),
    )
    _assert_equal(
        label, "depths",
        np.concatenate([r.depths for r in responses]),
        np.concatenate([r.depths for r in sequential]),
    )
    sequential_macs = sum(r.macs.total for r in sequential)
    served_macs, _, served_sampling = _merge_batches(responses)
    macs_equal = abs(served_macs - sequential_macs) < 1e-6
    if not macs_equal:
        raise AssertionError(f"{label}: MAC counts diverged")
    sequential_sampling = sum(r.timings.sampling for r in sequential)
    num_nodes = sum(t.shape[0] for t in ticks)
    return {
        "dataset": dataset_name,
        "suite": "streaming",
        "ticks": len(ticks),
        "distinct_batches": len({t.tobytes() for t in ticks}),
        "nodes": num_nodes,
        "sequential_wall_seconds": sequential_wall,
        "served_wall_seconds": served_wall,
        "throughput_speedup": sequential_wall / served_wall if served_wall else float("inf"),
        "predictions_equal": True,
        "depths_equal": True,
        "macs_equal": True,
        "cache_hit_rate": stats.cache_hit_rate,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "sequential_sampling_seconds": sequential_sampling,
        "served_sampling_seconds": served_sampling,
        "sampling_time_reduction": (
            1.0 - served_sampling / sequential_sampling if sequential_sampling else 0.0
        ),
        "served_latency_ms": stats.latency.scaled(1e3).as_dict(),
    }


def run_online_suite(
    context: TrainedContext, dataset_name: str, *, request_size: int,
    max_batch_size: int, num_requests: int,
) -> dict:
    """Micro-batching suite: tiny requests, per-request predict as baseline."""
    predictor = _predictor(context, batch_size=max_batch_size)
    rng = np.random.default_rng(5)
    test_idx = rng.permutation(np.asarray(context.dataset.split.test_idx))
    requests = batch_iterator(test_idx, request_size)[:num_requests]

    start = time.perf_counter()
    sequential = [predictor.predict(request) for request in requests]
    sequential_wall = time.perf_counter() - start

    config = ServingConfig(
        num_workers=WORKERS, max_batch_size=max_batch_size, max_wait_ms=2.0,
        cache_capacity=0,  # isolate the micro-batching effect
    )
    with InferenceServer(predictor, config) as server:
        start = time.perf_counter()
        responses = server.predict_many(requests, timeout=600.0)
        served_wall = time.perf_counter() - start
        stats = server.stats()

    label = f"{dataset_name}/online"
    _assert_equal(
        label, "predictions",
        np.concatenate([r.predictions for r in responses]),
        np.concatenate([r.predictions for r in sequential]),
    )
    _assert_equal(
        label, "depths",
        np.concatenate([r.depths for r in responses]),
        np.concatenate([r.depths for r in sequential]),
    )
    sequential_macs = sum(r.macs.total for r in sequential)
    served_macs, _, _ = _merge_batches(responses)
    num_nodes = sum(r.shape[0] for r in requests)
    return {
        "dataset": dataset_name,
        "suite": "online",
        "requests": len(requests),
        "request_size": request_size,
        "nodes": num_nodes,
        "avg_coalesced_batch_nodes": stats.avg_batch_nodes,
        "sequential_wall_seconds": sequential_wall,
        "served_wall_seconds": served_wall,
        "throughput_speedup": sequential_wall / served_wall if served_wall else float("inf"),
        "sequential_throughput_nodes_per_second": (
            num_nodes / sequential_wall if sequential_wall else float("inf")
        ),
        "served_throughput_nodes_per_second": (
            num_nodes / served_wall if served_wall else float("inf")
        ),
        "predictions_equal": True,
        "depths_equal": True,
        # Micro-batching shares supporting subgraphs, so the served MACs are
        # *lower* than per-request sequential MACs (paper Figure 5); the
        # ratio is a benefit, reported explicitly rather than asserted equal.
        "sequential_macs": sequential_macs,
        "served_macs": served_macs,
        "mac_reduction": 1.0 - served_macs / sequential_macs if sequential_macs else 0.0,
        "served_latency_ms": stats.latency.scaled(1e3).as_dict(),
    }


def run_scaling_suite(
    context: TrainedContext, dataset_name: str, *, tick_size: int, num_ticks: int,
    distinct: int,
) -> dict:
    """Worker-scaling record: same workload at 1 and WORKERS workers."""
    predictor = _predictor(context, batch_size=tick_size)
    ticks = _streaming_ticks(
        context, tick_size=tick_size, num_ticks=num_ticks, distinct=distinct, seed=7
    )
    walls = {}
    for workers in (1, WORKERS):
        config = ServingConfig(
            num_workers=workers, max_batch_size=tick_size, max_wait_ms=0.5,
            cache_capacity=max(2 * distinct, 8),
        )
        with InferenceServer(predictor, config) as server:
            start = time.perf_counter()
            server.predict_many(ticks, timeout=600.0)
            walls[workers] = time.perf_counter() - start
    return {
        "dataset": dataset_name,
        "suite": "scaling",
        "wall_seconds_1_worker": walls[1],
        f"wall_seconds_{WORKERS}_workers": walls[WORKERS],
        "worker_scaling_speedup": walls[1] / walls[WORKERS] if walls[WORKERS] else float("inf"),
    }


#: Virtual-time cost model of the load-ramp curves: a per-batch overhead
#: (supporting-subgraph BFS + extraction) plus a per-node propagation cost.
VIRTUAL_SERVICE = LinearServiceModel(overhead_seconds=0.004, per_node_seconds=1e-4)
VIRTUAL_SLO_SECONDS = 0.050
#: Offered-load sweep: burst inter-arrival gaps from below to well above the
#: static configuration's service capacity (2-node requests; the static
#: policy serves at most 8 nodes / 4.8 ms ≈ 1.67 nodes/ms).
VIRTUAL_BURST_GAPS = (0.004, 0.002, 0.001, 0.0005)


def _virtual_controllers() -> dict:
    return {
        "static": lambda: StaticPolicy(8, 0.002),
        "marginal_latency": lambda: MarginalLatencyPolicy(
            slo_seconds=VIRTUAL_SLO_SECONDS,
            base_batch_size=8,
            batch_size_ceiling=64,
            base_wait_seconds=0.002,
            wait_seconds_ceiling=0.008,
        ),
    }


def run_virtual_ramp_curves(*, quick: bool) -> dict:
    """Deterministic static-vs-adaptive throughput/latency curves.

    One point per (policy, offered load): the same scripted load ramp
    replayed through each controller on a ``FakeClock``.  The numbers are
    exact — identical on every machine and every run — so the overload
    assertions (adaptive beats static, p95 within the SLO) are as strict
    here as in ``tests/serving/test_controller.py``.
    """
    burst = 120 if quick else 300
    curves: dict[str, list[dict]] = {name: [] for name in _virtual_controllers()}
    for gap in VIRTUAL_BURST_GAPS:
        arrivals = ramp_arrivals(
            idle_requests=10,
            burst_requests=burst,
            drain_requests=10,
            idle_gap_seconds=0.005,
            burst_gap_seconds=gap,
            nodes_per_request=2,
        )
        for name, build in _virtual_controllers().items():
            report = simulate_policy(build(), arrivals, VIRTUAL_SERVICE)
            record = report.as_dict()
            record["burst_gap_seconds"] = gap
            record["offered_nodes_per_second"] = 2.0 / gap
            curves[name].append(record)
    overloaded = [
        index for index, gap in enumerate(VIRTUAL_BURST_GAPS) if 2.0 / gap > 1600.0
    ]
    heaviest = max(overloaded)
    for index in overloaded:
        static_point = curves["static"][index]
        adaptive_point = curves["marginal_latency"][index]
        # Under overload the adaptive policy must hold the SLO and beat the
        # static p95; aggregate throughput is strictly higher wherever the
        # static backlog outlives the arrivals (always at the heaviest load
        # level — milder bursts may drain inside the schedule for both).
        if adaptive_point["latency_ms"]["p95"] > VIRTUAL_SLO_SECONDS * 1e3:
            raise AssertionError(
                "adaptive virtual ramp: MarginalLatencyPolicy broke the p95 SLO "
                f"at burst gap {VIRTUAL_BURST_GAPS[index]}"
            )
        if adaptive_point["latency_ms"]["p95"] >= static_point["latency_ms"]["p95"]:
            raise AssertionError(
                "adaptive virtual ramp: MarginalLatencyPolicy p95 did not beat "
                f"StaticPolicy at burst gap {VIRTUAL_BURST_GAPS[index]}"
            )
        if index == heaviest and not (
            adaptive_point["throughput_nodes_per_second"]
            > static_point["throughput_nodes_per_second"]
        ):
            raise AssertionError(
                "adaptive virtual ramp: MarginalLatencyPolicy did not beat "
                f"StaticPolicy throughput at burst gap {VIRTUAL_BURST_GAPS[index]}"
            )
    return {
        "service_model": {
            "overhead_seconds": VIRTUAL_SERVICE.overhead_seconds,
            "per_node_seconds": VIRTUAL_SERVICE.per_node_seconds,
        },
        "slo_ms": VIRTUAL_SLO_SECONDS * 1e3,
        "curves": curves,
        "overload_speedup": (
            curves["marginal_latency"][heaviest]["throughput_nodes_per_second"]
            / curves["static"][heaviest]["throughput_nodes_per_second"]
        ),
        "marginal_latency_beats_static": True,
        "marginal_latency_p95_within_slo": True,
    }


def run_adaptive_suite(
    context: TrainedContext, dataset_name: str, *, tick_size: int,
    num_ticks: int, distinct: int,
) -> dict:
    """Batching-controller suite: policy equivalence + load-ramp curves.

    The real-server part replays one streaming tick stream under every
    policy.  Each tick fills the width budget exactly, so batch composition
    is pinned and both policies must reproduce the sequential
    predictions, depth distributions *and MAC totals* bit-for-bit — the
    acceptance bar for "batching changes, results don't".
    """
    predictor = _predictor(context, batch_size=tick_size)
    ticks = _streaming_ticks(
        context, tick_size=tick_size, num_ticks=num_ticks, distinct=distinct, seed=11
    )
    sequential = [predictor.predict(tick) for tick in ticks]
    sequential_macs = sum(r.macs.total for r in sequential)
    expected_predictions = np.concatenate([r.predictions for r in sequential])
    expected_depths = np.concatenate([r.depths for r in sequential])

    base = dict(
        num_workers=WORKERS, max_batch_size=tick_size, max_wait_ms=0.5,
        cache_capacity=max(2 * distinct, 8),
    )
    configs = {
        "static": ServingConfig(**base),
        "marginal_latency": ServingConfig(
            **base, batch_policy="marginal_latency", latency_slo_ms=250.0,
        ),
    }
    policies: dict[str, dict] = {}
    for name, config in configs.items():
        with InferenceServer(predictor, config) as server:
            start = time.perf_counter()
            responses = server.predict_many(ticks, timeout=600.0)
            wall = time.perf_counter() - start
            stats = server.stats()
        label = f"{dataset_name}/adaptive/{name}"
        _assert_equal(
            label, "predictions",
            np.concatenate([r.predictions for r in responses]),
            expected_predictions,
        )
        _assert_equal(
            label, "depths",
            np.concatenate([r.depths for r in responses]),
            expected_depths,
        )
        served_macs, _, _ = _merge_batches(responses)
        if abs(served_macs - sequential_macs) >= 1e-6:
            raise AssertionError(f"{label}: MAC totals diverged from sequential")
        policies[name] = {
            "wall_seconds": wall,
            "throughput_nodes_per_second": stats.throughput_nodes_per_second,
            "latency_ms": stats.latency.scaled(1e3).as_dict(),
            "batch_width_p50": stats.batch_width_p50,
            "batch_width_p95": stats.batch_width_p95,
            "controller_adjustments": stats.controller_adjustments,
            "served_macs": served_macs,
            "predictions_equal": True,
            "depths_equal": True,
            "macs_equal": True,
        }
    return {
        "dataset": dataset_name,
        "suite": "adaptive",
        "ticks": len(ticks),
        "tick_size": tick_size,
        "sequential_macs": sequential_macs,
        "policies": policies,
        "all_policies_bit_identical": True,
    }


ALL_SUITES = ("streaming", "online", "scaling", "adaptive")


def run_bench(
    *, quick: bool = False,
    suites_selected: tuple[str, ...] = ALL_SUITES,
) -> dict:
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    datasets = QUICK_DATASETS if quick else FULL_DATASETS
    tick_size = 64 if quick else 100
    num_ticks = 12 if quick else 40
    distinct = 2 if quick else 4
    request_size = 2 if quick else 4
    num_requests = 30 if quick else 120

    suites: list[dict] = []
    # The virtual-time ramp depends only on the scripted scenario (not on
    # any dataset), so it is computed exactly once per run.
    virtual_ramp = (
        run_virtual_ramp_curves(quick=quick)
        if "adaptive" in suites_selected
        else None
    )
    for dataset_name in datasets:
        context = get_context(dataset_name, profile=profile)
        headline = [dataset_name.ljust(12)]
        if "streaming" in suites_selected:
            streaming = run_streaming_suite(
                context, dataset_name, tick_size=tick_size, num_ticks=num_ticks,
                distinct=distinct,
            )
            suites.append(streaming)
            headline.append(
                f"streaming {streaming['throughput_speedup']:.2f}x "
                f"(cache hit {streaming['cache_hit_rate']:.0%}, sampling "
                f"-{streaming['sampling_time_reduction']:.0%})"
            )
        if "online" in suites_selected:
            online = run_online_suite(
                context, dataset_name, request_size=request_size,
                max_batch_size=tick_size, num_requests=num_requests,
            )
            suites.append(online)
            headline.append(
                f"online {online['throughput_speedup']:.2f}x "
                f"(MACs -{online['mac_reduction']:.0%})"
            )
        if "scaling" in suites_selected:
            scaling = run_scaling_suite(
                context, dataset_name, tick_size=tick_size, num_ticks=num_ticks,
                distinct=distinct,
            )
            suites.append(scaling)
            headline.append(
                f"{WORKERS}-worker scaling "
                f"{scaling['worker_scaling_speedup']:.2f}x"
            )
        if "adaptive" in suites_selected:
            adaptive = run_adaptive_suite(
                context, dataset_name, tick_size=tick_size, num_ticks=num_ticks,
                distinct=distinct,
            )
            suites.append(adaptive)
            headline.append(
                "adaptive overload "
                f"{virtual_ramp['overload_speedup']:.2f}x"
            )
        print(" | ".join(headline))

    streaming_records = [s for s in suites if s["suite"] == "streaming"]
    online_records = [s for s in suites if s["suite"] == "online"]
    adaptive_records = [s for s in suites if s["suite"] == "adaptive"]
    seq_wall = sum(s["sequential_wall_seconds"] for s in online_records)
    srv_wall = sum(s["served_wall_seconds"] for s in online_records)
    aggregate = {
        "workers": WORKERS,
        "all_predictions_equal": all(
            s["predictions_equal"] for s in suites if "predictions_equal" in s
        ),
        "all_depths_equal": all(
            s["depths_equal"] for s in suites if "depths_equal" in s
        ),
    }
    if online_records:
        aggregate["online_throughput_speedup"] = (
            seq_wall / srv_wall if srv_wall else float("inf")
        )
    if streaming_records:
        aggregate["streaming_throughput_speedup"] = (
            sum(s["sequential_wall_seconds"] for s in streaming_records)
            / sum(s["served_wall_seconds"] for s in streaming_records)
        )
        aggregate["streaming_macs_equal"] = all(
            s["macs_equal"] for s in streaming_records
        )
        aggregate["min_cache_hit_rate"] = min(
            s["cache_hit_rate"] for s in streaming_records
        )
        aggregate["min_sampling_time_reduction"] = min(
            s["sampling_time_reduction"] for s in streaming_records
        )
    if adaptive_records:
        aggregate["adaptive_policies_bit_identical"] = all(
            s["all_policies_bit_identical"] for s in adaptive_records
        )
    if virtual_ramp is not None:
        aggregate["adaptive_overload_speedup"] = virtual_ramp["overload_speedup"]
        aggregate["adaptive_p95_within_slo"] = virtual_ramp[
            "marginal_latency_p95_within_slo"
        ]
    return {
        "benchmark": "bench_serving",
        "quick": quick,
        "profile": {
            "dataset_scale": profile.dataset_scale,
            "depth": profile.depth,
            "seed": profile.seed,
        },
        "workload": {
            "tick_size": tick_size, "num_ticks": num_ticks, "distinct": distinct,
            "request_size": request_size, "num_requests": num_requests,
            "suites_selected": list(suites_selected),
        },
        "suites": suites,
        "virtual_ramp": virtual_ramp,
        "aggregate": aggregate,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small deterministic smoke run (used by the tier-1 marker test)",
    )
    parser.add_argument(
        "--suites", default=",".join(ALL_SUITES),
        help="comma-separated subset of suites to run "
        f"(default: {','.join(ALL_SUITES)})",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serving.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    suites_selected = tuple(
        name.strip() for name in args.suites.split(",") if name.strip()
    )
    unknown = set(suites_selected) - set(ALL_SUITES)
    if unknown:
        parser.error(f"unknown suites: {sorted(unknown)}")

    report = run_bench(
        quick=args.quick, suites_selected=suites_selected,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    aggregate = report["aggregate"]
    parts = []
    if "online_throughput_speedup" in aggregate:
        parts.append(f"online {aggregate['online_throughput_speedup']:.2f}x")
    if "streaming_throughput_speedup" in aggregate:
        parts.append(
            f"streaming {aggregate['streaming_throughput_speedup']:.2f}x"
        )
    if "adaptive_overload_speedup" in aggregate:
        parts.append(
            f"adaptive overload {aggregate['adaptive_overload_speedup']:.2f}x"
        )
    print(
        f"aggregate: {', '.join(parts)} ({aggregate['workers']} workers), "
        "outputs equal: "
        f"{aggregate['all_predictions_equal'] and aggregate['all_depths_equal']}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
