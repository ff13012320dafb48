"""Failover benchmark: throughput under replica kills, rollout in flight.

Two record types, written to ``BENCH_failover.json``:

``failover_throughput``
    For every shard count: run the full test set through
    :class:`~repro.shard.ShardedPredictor` over a two-rail
    :class:`~repro.transport.ReplicatedTransport` (fault-injecting local
    rails, virtual-time retries) with **0 and 1 replica kills** — the
    1-kill run schedules a permanent mid-stream kill of rail 0 for every
    shard, so the whole workload fails over to the surviving rail.  Both
    runs **assert bit-identical predictions, exit depths and MAC totals**
    against the unsharded ``NAIPredictor`` and record wall clock,
    throughput and the retry/failover/health counters.

``rollout_in_flight``
    A versioned repartition rolled through live traffic on a
    :class:`~repro.shard.ShardRouter`: batches are submitted on the v0
    plan and left in flight, ``install_plan`` swaps in a v1 plan with a
    different shard count and strategy, more batches are submitted, and
    everything drains — zero failed requests, every response bit-identical
    to the oracle, throughput measured across the rollout.

Timing fields are machine-dependent and never gated; the ``*_equal``
flags and the deterministic offline ``macs_total`` are gated by
``check_bench.py`` against the committed ``BENCH_failover.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_failover.py            # full run
    PYTHONPATH=src python benchmarks/bench_failover.py --quick    # smoke run

``--quick`` is wired into tier-1 as the ``failover_bench`` pytest marker
(see ``tests/benchmarks/test_bench_failover.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ServingConfig, ShardConfig
from repro.experiments import ExperimentProfile
from repro.experiments.context import TrainedContext, get_context
from repro.serving import ClusterBuilder, SubmitOptions
from repro.serving.clock import FakeClock
from repro.shard import GraphPartitioner, ShardRouter, ShardedPredictor
from repro.transport import (
    FaultInjectingTransport,
    LocalTransport,
    RetryPolicy,
)

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

SHARD_COUNTS = (2, 4)
REPLICAS = 2
MAC_FIELDS = ("stationary", "propagation", "decision", "classification")

#: Zero-backoff retries on a virtual clock: the retry ladder runs without
#: a single real sleep, so the bench measures failover cost, not waiting.
FAST_RETRY = RetryPolicy(
    max_attempts=2,
    backoff_base_seconds=0.0,
    backoff_cap_seconds=0.0,
    jitter_fraction=0.0,
)


def _predictor(context: TrainedContext, *, batch_size: int):
    config = context.nai_config(threshold_quantile=0.5, batch_size=batch_size)
    predictor = context.nai.build_predictor(policy="distance", config=config)
    predictor.prepare(context.dataset.graph, context.dataset.features)
    return predictor


def _assert_bit_identical(label, result, baseline) -> None:
    if not np.array_equal(result.predictions, baseline.predictions):
        raise AssertionError(f"{label}: predictions diverged")
    if not np.array_equal(result.depths, baseline.depths):
        raise AssertionError(f"{label}: depths diverged")
    for name in MAC_FIELDS:
        if getattr(result.macs, name) != getattr(baseline.macs, name):
            raise AssertionError(f"{label}: MAC field {name} diverged")


def run_failover_suite(
    context: TrainedContext, dataset_name: str, *, batch_size: int
) -> list[dict]:
    predictor = _predictor(context, batch_size=batch_size)
    test_idx = np.asarray(context.dataset.split.test_idx)
    baseline = predictor.predict(test_idx)

    records = []
    for num_shards in SHARD_COUNTS:
        sharded = ShardedPredictor.from_predictor(predictor).prepare(
            context.dataset.graph,
            context.dataset.features,
            ShardConfig(
                num_shards=num_shards,
                strategy="degree_balanced",
                replication_factor=REPLICAS,
            ),
        )
        store = sharded.store
        for kills in (0, 1):
            rails = [
                FaultInjectingTransport(
                    LocalTransport(store.shards), replica_index=index
                )
                for index in range(REPLICAS)
            ]
            if kills:
                # Rail 0 loses every shard mid-stream and never heals: the
                # whole remaining workload fails over to rail 1.
                for shard_id in range(num_shards):
                    rails[0].schedule_kill(shard_id, 2, replica_index=0)
            ClusterBuilder(sharded).replicated(
                rails, retry_policy=FAST_RETRY, clock=FakeClock()
            ).build_predictor()
            transport = store.transport
            try:
                start = time.perf_counter()
                result = sharded.predict(test_idx)
                wall = time.perf_counter() - start
            finally:
                sharded.use_transport(LocalTransport(store.shards))
                transport.close()
            label = f"{dataset_name}/x{num_shards}/kills={kills}"
            _assert_bit_identical(label, result, baseline)
            stats = transport.stats.as_dict()
            if kills and not stats["failovers"]:
                raise AssertionError(f"{label}: kill produced no failovers")
            records.append({
                "suite": "failover_throughput",
                "dataset": dataset_name,
                "num_shards": num_shards,
                "replicas": REPLICAS,
                "replica_kills": kills,
                "test_nodes": int(test_idx.shape[0]),
                "wall_seconds": wall,
                "throughput_nodes_per_second": (
                    test_idx.shape[0] / wall if wall else 0.0
                ),
                "predictions_equal": True,
                "depths_equal": True,
                "macs_equal": True,
                "macs_total": int(result.macs.total),
                "transport": stats,
            })
    return records


def run_rollout_suite(
    context: TrainedContext, dataset_name: str, *, batch_size: int
) -> dict:
    predictor = _predictor(context, batch_size=batch_size)
    graph = context.dataset.graph
    features = context.dataset.features
    test_idx = np.asarray(context.dataset.split.test_idx)
    baseline = predictor.predict(test_idx)
    batches = [
        test_idx[i:i + batch_size]
        for i in range(0, test_idx.shape[0], batch_size)
    ]

    old_config = ShardConfig(num_shards=2, strategy="hash")
    new_config = ShardConfig(num_shards=3, strategy="degree_balanced")
    old = ShardedPredictor.from_predictor(predictor).prepare(
        graph, features, old_config
    )
    new_plan = GraphPartitioner(new_config).partition(graph, version=1)
    new = ShardedPredictor.from_predictor(predictor).prepare(
        graph, features, new_config, plan=new_plan
    )
    serving = ServingConfig(
        num_workers=2,
        max_batch_size=batch_size,
        max_wait_ms=0.5,
        cache_capacity=8,
    )

    start = time.perf_counter()
    with ShardRouter(old, serving) as router:
        in_flight = [router.submit(batch, SubmitOptions(timeout=300.0)) for batch in batches]
        router.install_plan(new)
        after = [router.submit(batch, SubmitOptions(timeout=300.0)) for batch in batches]
        old_responses = [handle.result(timeout=300.0) for handle in in_flight]
        new_responses = [handle.result(timeout=300.0) for handle in after]
        retired = router.finish_rollout(timeout=300.0)
        state = router.rollout_state()
        stats = router.stats()
    wall = time.perf_counter() - start

    flags = {}
    for phase, responses in (("old", old_responses), ("new", new_responses)):
        predictions = np.concatenate([r.predictions for r in responses])
        depths = np.concatenate([r.depths for r in responses])
        flags[f"{phase}_plan_predictions_equal"] = bool(
            np.array_equal(predictions, baseline.predictions)
        )
        flags[f"{phase}_plan_depths_equal"] = bool(
            np.array_equal(depths, baseline.depths)
        )
    if not all(flags.values()):
        raise AssertionError(f"{dataset_name}: rollout responses diverged")
    if stats.requests_failed:
        raise AssertionError(
            f"{dataset_name}: {stats.requests_failed} requests failed "
            "during the rollout"
        )
    total_nodes = 2 * int(test_idx.shape[0])
    return {
        "suite": "rollout_in_flight",
        "dataset": dataset_name,
        "old_plan": {"version": 0, "num_shards": 2, "strategy": "hash"},
        "new_plan": {
            "version": 1, "num_shards": 3, "strategy": "degree_balanced",
        },
        "requests": 2 * len(batches),
        "nodes_served": total_nodes,
        "wall_seconds": wall,
        "throughput_nodes_per_second": total_nodes / wall if wall else 0.0,
        **flags,
        "requests_failed": int(stats.requests_failed),
        "retired_generations": retired,
        "final_plan_version": int(stats.plan_version),
        "rollout_state": state,
    }


def run_bench(*, quick: bool = False) -> dict:
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    datasets = QUICK_DATASETS if quick else FULL_DATASETS
    batch_size = 64 if quick else 100

    suites: list[dict] = []
    for dataset_name in datasets:
        context = get_context(dataset_name, profile=profile)
        failover = run_failover_suite(context, dataset_name, batch_size=batch_size)
        rollout = run_rollout_suite(context, dataset_name, batch_size=batch_size)
        suites.extend(failover)
        suites.append(rollout)
        degraded = min(
            one["throughput_nodes_per_second"]
            / zero["throughput_nodes_per_second"]
            for zero, one in zip(failover[::2], failover[1::2])
            if zero["throughput_nodes_per_second"]
        )
        print(
            f"{dataset_name:12s} bit-identical through failover at "
            f"x{', x'.join(str(s) for s in SHARD_COUNTS)} shards | 1-kill "
            f"throughput >= {degraded:.2f}x of clean | rollout "
            f"{rollout['requests']} requests, 0 failed, "
            f"{rollout['throughput_nodes_per_second']:.0f} nodes/s"
        )

    failover_records = [s for s in suites if s["suite"] == "failover_throughput"]
    rollout_records = [s for s in suites if s["suite"] == "rollout_in_flight"]
    aggregate = {
        "shard_counts": list(SHARD_COUNTS),
        "replicas": REPLICAS,
        "all_predictions_equal": all(
            s["predictions_equal"] for s in failover_records
        ) and all(
            s["old_plan_predictions_equal"] and s["new_plan_predictions_equal"]
            for s in rollout_records
        ),
        "all_macs_equal": all(s["macs_equal"] for s in failover_records),
        "total_failovers": sum(
            s["transport"]["failovers"] for s in failover_records
        ),
        "rollout_requests_failed": sum(
            s["requests_failed"] for s in rollout_records
        ),
        "min_degraded_throughput_ratio": min(
            one["throughput_nodes_per_second"]
            / zero["throughput_nodes_per_second"]
            for zero, one in zip(failover_records[::2], failover_records[1::2])
            if zero["throughput_nodes_per_second"]
        ),
    }
    return {
        "benchmark": "bench_failover",
        "quick": quick,
        "profile": {
            "dataset_scale": profile.dataset_scale,
            "depth": profile.depth,
            "seed": profile.seed,
        },
        "workload": {"batch_size": batch_size},
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
        default=Path(__file__).resolve().parent.parent / "BENCH_failover.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    aggregate = report["aggregate"]
    print(
        f"aggregate: bit-identical {aggregate['all_predictions_equal']}, "
        f"MACs equal {aggregate['all_macs_equal']}, "
        f"{aggregate['total_failovers']} failovers absorbed, degraded "
        f"throughput >= {aggregate['min_degraded_throughput_ratio']:.2f}x, "
        f"rollout failures {aggregate['rollout_requests_failed']}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
