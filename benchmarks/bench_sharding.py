"""Sharding benchmark: equivalence, per-shard memory, halo traffic, serving.

Four record types, written to ``BENCH_sharding.json``:

``equivalence_memory``
    For every (dataset, shard count, strategy): run the full test set
    through :class:`~repro.shard.ShardedPredictor` and **assert bit-identical
    predictions, depths and MAC totals** against the unsharded
    ``NAIPredictor`` — then record the per-shard peak state footprint
    against the unsharded deployment state, the halo sizes, the edge cut and
    the cross-shard fetch traffic the run generated.  The acceptance bound
    (max shard bytes ≤ ~(1/num_shards + halo fraction) of the unsharded
    footprint) is asserted, not just logged.

``routed_serving``
    The online workload through a :class:`~repro.shard.ShardRouter` (one
    ``InferenceServer`` worker group per shard) vs. one unsharded server:
    wall clock, throughput, and bit-identical predictions/depths against the
    sequential oracle.

``subsystem_caches``
    The two serving-cache satellites measured end to end: a permuted
    recurring stream served with canonical subgraph-cache keys (hits despite
    permutation) and with the opt-in result cache (replays, computed vs
    replayed MACs).

Usage::

    PYTHONPATH=src python benchmarks/bench_sharding.py            # full run
    PYTHONPATH=src python benchmarks/bench_sharding.py --quick    # smoke run

``--quick`` is wired into tier-1 as the ``sharding_bench`` pytest marker
(see ``tests/benchmarks/test_bench_sharding.py``).
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
from repro.graph.sampling import batch_iterator
from repro.serving import InferenceServer
from repro.shard import ShardRouter, ShardedPredictor

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

SHARD_COUNTS = (1, 2, 4)
STRATEGIES = ("hash", "degree_balanced")
WORKERS = 4


def _predictor(context: TrainedContext, *, batch_size: int):
    config = context.nai_config(threshold_quantile=0.5, batch_size=batch_size)
    predictor = context.nai.build_predictor(policy="distance", config=config)
    predictor.prepare(context.dataset.graph, context.dataset.features)
    return predictor


def _unsharded_state_nbytes(predictor) -> int:
    """Resident deployment state of the single-process predictor."""
    rows = predictor._rows
    adjacency = rows.graph.adjacency
    a_hat = rows.a_hat
    stationary = predictor._stationary
    return int(
        adjacency.indptr.nbytes + adjacency.indices.nbytes + adjacency.data.nbytes
        + a_hat.indptr.nbytes + a_hat.indices.nbytes + a_hat.data.nbytes
        + rows.features.nbytes
        + stationary.degrees_with_loops.nbytes
        + stationary.weighted_feature_sum.nbytes
    )


def run_equivalence_memory_suite(
    context: TrainedContext, dataset_name: str, *, batch_size: int
) -> list[dict]:
    predictor = _predictor(context, batch_size=batch_size)
    test_idx = np.asarray(context.dataset.split.test_idx)
    baseline = predictor.predict(test_idx)
    unsharded_nbytes = _unsharded_state_nbytes(predictor)
    num_nodes = context.dataset.graph.num_nodes

    records = []
    for strategy in STRATEGIES:
        for num_shards in SHARD_COUNTS:
            sharded = ShardedPredictor.from_predictor(predictor).prepare(
                context.dataset.graph,
                context.dataset.features,
                ShardConfig(num_shards=num_shards, strategy=strategy),
            )
            start = time.perf_counter()
            result = sharded.predict(test_idx)
            wall = time.perf_counter() - start

            label = f"{dataset_name}/{strategy}/x{num_shards}"
            if not np.array_equal(result.predictions, baseline.predictions):
                raise AssertionError(f"{label}: sharded predictions diverged")
            if not np.array_equal(result.depths, baseline.depths):
                raise AssertionError(f"{label}: sharded depths diverged")
            if result.macs.total != baseline.macs.total:
                raise AssertionError(f"{label}: sharded MAC totals diverged")

            memory = sharded.store.memory_report()
            max_halo_fraction = max(
                entry["halo_nodes"] / num_nodes for entry in memory["per_shard"]
            )
            ratio = memory["max_shard_nbytes"] / unsharded_nbytes
            # Acceptance bound: one shard's state is its owned 1/k slice plus
            # its halo, with a small allowance for the id-map overhead.
            bound = 1.0 / num_shards + max_halo_fraction + 0.1
            if ratio > bound:
                raise AssertionError(
                    f"{label}: per-shard state ratio {ratio:.3f} exceeds "
                    f"bound {bound:.3f}"
                )
            records.append({
                "suite": "equivalence_memory",
                "dataset": dataset_name,
                "strategy": strategy,
                "num_shards": num_shards,
                "nodes": int(num_nodes),
                "test_nodes": int(test_idx.shape[0]),
                "predictions_equal": True,
                "depths_equal": True,
                "macs_equal": True,
                "wall_seconds": wall,
                "unsharded_state_nbytes": unsharded_nbytes,
                "max_shard_nbytes": memory["max_shard_nbytes"],
                "per_shard_state_ratio": ratio,
                "state_ratio_bound": bound,
                "cut_edges": memory["cut_edges"],
                "total_halo_nodes": memory["total_halo_nodes"],
                "max_halo_fraction": max_halo_fraction,
                "per_shard": memory["per_shard"],
                "halo_traffic": sharded.store.traffic.as_dict(),
            })
    return records


def run_routed_serving_suite(
    context: TrainedContext, dataset_name: str, *, request_size: int,
    max_batch_size: int, num_requests: int,
) -> list[dict]:
    predictor = _predictor(context, batch_size=max_batch_size)
    rng = np.random.default_rng(5)
    test_idx = rng.permutation(np.asarray(context.dataset.split.test_idx))
    requests = batch_iterator(test_idx, request_size)[:num_requests]
    oracle = np.concatenate(
        [predictor.predict(request).predictions for request in requests]
    )

    serving = ServingConfig(
        num_workers=WORKERS, max_batch_size=max_batch_size, max_wait_ms=2.0,
        cache_capacity=0,
    )
    with InferenceServer(predictor, serving) as server:
        start = time.perf_counter()
        unsharded_responses = server.predict_many(requests, timeout=600.0)
        unsharded_wall = time.perf_counter() - start
    unsharded_predictions = np.concatenate(
        [r.predictions for r in unsharded_responses]
    )

    records = []
    for num_shards in (2, 4):
        sharded = ShardedPredictor.from_predictor(predictor).prepare(
            context.dataset.graph,
            context.dataset.features,
            ShardConfig(num_shards=num_shards, strategy="degree_balanced"),
        )
        per_shard_config = ServingConfig(
            num_workers=max(1, WORKERS // num_shards),
            max_batch_size=max_batch_size, max_wait_ms=2.0, cache_capacity=0,
        )
        with ShardRouter(sharded, per_shard_config) as router:
            start = time.perf_counter()
            responses = router.predict_many(requests, timeout=600.0)
            routed_wall = time.perf_counter() - start
            stats = router.stats()
        routed_predictions = np.concatenate([r.predictions for r in responses])
        label = f"{dataset_name}/routed/x{num_shards}"
        if not np.array_equal(routed_predictions, oracle):
            raise AssertionError(f"{label}: routed predictions diverged")
        if not np.array_equal(unsharded_predictions, oracle):
            raise AssertionError(f"{label}: unsharded served predictions diverged")
        num_nodes = sum(r.shape[0] for r in requests)
        records.append({
            "suite": "routed_serving",
            "dataset": dataset_name,
            "num_shards": num_shards,
            "requests": len(requests),
            "nodes": num_nodes,
            "predictions_equal": True,
            "unsharded_wall_seconds": unsharded_wall,
            "routed_wall_seconds": routed_wall,
            "routed_vs_unsharded": unsharded_wall / routed_wall if routed_wall else 0.0,
            "routed_throughput_nodes_per_second": (
                num_nodes / routed_wall if routed_wall else 0.0
            ),
            "fleet_requests_completed": stats.requests_completed,
            "fleet_batches": stats.batches_dispatched,
            "fleet_macs": stats.macs.total,
            "fleet_latency_ms": stats.latency.scaled(1e3).as_dict(),
            "per_shard_nodes": {
                str(shard): snapshot.nodes_completed
                for shard, snapshot in sorted(stats.per_shard.items())
            },
        })
    return records


def run_cache_suite(
    context: TrainedContext, dataset_name: str, *, tick_size: int, num_ticks: int,
    distinct: int,
) -> dict:
    """Canonical subgraph-cache keys + result cache on a *permuted* stream."""
    predictor = _predictor(context, batch_size=tick_size)
    rng = np.random.default_rng(11)
    test_idx = np.asarray(context.dataset.split.test_idx)
    pool = [
        batch for batch in batch_iterator(rng.permutation(test_idx), tick_size)
        if batch.shape[0] == tick_size
    ][:distinct]
    # Every recurrence is a fresh permutation: the pre-canonicalisation cache
    # would miss all of them.
    ticks = [pool[i] for i in range(len(pool))]
    ticks += [
        rng.permutation(pool[i])
        for i in rng.integers(0, len(pool), size=max(0, num_ticks - len(pool)))
    ]
    oracle = [predictor.predict(tick) for tick in ticks]

    config = ServingConfig(
        num_workers=WORKERS, max_batch_size=tick_size, max_wait_ms=0.5,
        cache_capacity=max(2 * distinct, 8),
        result_cache_capacity=max(2 * distinct, 8),
    )
    with InferenceServer(predictor, config) as server:
        responses = [
            server.submit(tick).result(timeout=600.0) for tick in ticks
        ]
        stats = server.stats()
    label = f"{dataset_name}/caches"
    for response, reference in zip(responses, oracle):
        if not np.array_equal(response.predictions, reference.predictions):
            raise AssertionError(f"{label}: cached predictions diverged")
        if not np.array_equal(response.depths, reference.depths):
            raise AssertionError(f"{label}: cached depths diverged")
    lookups = stats.result_cache_hits + stats.result_cache_misses
    return {
        "suite": "subsystem_caches",
        "dataset": dataset_name,
        "ticks": len(ticks),
        "distinct_node_sets": distinct,
        "predictions_equal": True,
        "depths_equal": True,
        "result_cache_hit_rate": (
            stats.result_cache_hits / lookups if lookups else 0.0
        ),
        "result_cache_hits": stats.result_cache_hits,
        "batches_replayed": stats.batches_replayed,
        "computed_macs": stats.macs.total,
        "replayed_macs": stats.replayed_macs.total,
        "replay_mac_fraction": (
            stats.replayed_macs.total
            / (stats.macs.total + stats.replayed_macs.total)
            if stats.macs.total + stats.replayed_macs.total
            else 0.0
        ),
    }


def run_bench(*, quick: bool = False) -> dict:
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    datasets = QUICK_DATASETS if quick else FULL_DATASETS
    batch_size = 64 if quick else 100
    tick_size = 48 if quick else 100
    num_ticks = 10 if quick else 30
    distinct = 2 if quick else 4
    request_size = 2 if quick else 4
    num_requests = 24 if quick else 100

    suites: list[dict] = []
    for dataset_name in datasets:
        context = get_context(dataset_name, profile=profile)
        equivalence = run_equivalence_memory_suite(
            context, dataset_name, batch_size=batch_size
        )
        routed = run_routed_serving_suite(
            context, dataset_name, request_size=request_size,
            max_batch_size=tick_size, num_requests=num_requests,
        )
        caches = run_cache_suite(
            context, dataset_name, tick_size=tick_size, num_ticks=num_ticks,
            distinct=distinct,
        )
        suites.extend(equivalence)
        suites.extend(routed)
        suites.append(caches)
        worst = max(
            (r for r in equivalence if r["num_shards"] == max(SHARD_COUNTS)),
            key=lambda r: r["per_shard_state_ratio"],
        )
        print(
            f"{dataset_name:12s} equivalence: bit-identical across "
            f"{len(equivalence)} shardings | x{worst['num_shards']} state ratio "
            f"{worst['per_shard_state_ratio']:.2f} (bound {worst['state_ratio_bound']:.2f}) "
            f"| result-cache hit "
            f"{caches['result_cache_hit_rate']:.0%}"
        )

    equivalence_records = [s for s in suites if s["suite"] == "equivalence_memory"]
    cache_records = [s for s in suites if s["suite"] == "subsystem_caches"]
    aggregate = {
        "shard_counts": list(SHARD_COUNTS),
        "strategies": list(STRATEGIES),
        "all_predictions_equal": all(
            s["predictions_equal"] for s in suites if "predictions_equal" in s
        ),
        "all_macs_equal": all(s["macs_equal"] for s in equivalence_records),
        "max_per_shard_state_ratio": {
            str(k): max(
                s["per_shard_state_ratio"]
                for s in equivalence_records
                if s["num_shards"] == k
            )
            for k in SHARD_COUNTS
        },
        "min_result_cache_hit_rate": min(
            s["result_cache_hit_rate"] for s in cache_records
        ),
    }
    return {
        "benchmark": "bench_sharding",
        "quick": quick,
        "profile": {
            "dataset_scale": profile.dataset_scale,
            "depth": profile.depth,
            "seed": profile.seed,
        },
        "workload": {
            "batch_size": batch_size, "tick_size": tick_size,
            "num_ticks": num_ticks, "distinct": distinct,
            "request_size": request_size, "num_requests": num_requests,
            "workers": WORKERS,
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
        default=Path(__file__).resolve().parent.parent / "BENCH_sharding.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    aggregate = report["aggregate"]
    print(
        f"aggregate: bit-identical {aggregate['all_predictions_equal']}, "
        f"MACs equal {aggregate['all_macs_equal']}, per-shard state ratio "
        + ", ".join(
            f"x{k}={v:.2f}"
            for k, v in aggregate["max_per_shard_state_ratio"].items()
        )
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
