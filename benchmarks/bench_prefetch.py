"""Prefetch benchmark: fetch/compute overlap and tiered feature serving.

Two record types, written to ``BENCH_prefetch.json``:

``prefetch_overlap``
    A sharded deployment served through one
    :class:`~repro.serving.InferenceServer` whose transport carries an
    **injected per-round RTT** (:class:`~repro.transport.FaultInjectingTransport`
    with ``latency_seconds`` on the real clock — the measurement harness
    for "what would this stall cost on a real network").  A stream of
    distinct-node-set requests (every batch is a cold subgraph-cache miss,
    so every batch pays the fetch) runs once serialized
    (``prefetch_depth=0``) and once with the prefetch pipeline
    (``prefetch_depth=4``).  The record asserts **bit-identical
    predictions, exit depths and MAC totals** between the two runs and
    reports the serving throughput ratio — the pipeline's reason to exist.

``tiered_memory``
    The same deployment re-served after
    :meth:`~repro.serving.ClusterBuilder.tiered_features` caps resident
    feature bytes at a quarter of the matrix: the cold tier is an
    ``np.memmap`` spill, the hot tier an admission-controlled row cache.
    The record asserts bit-identical outputs versus the un-tiered oracle
    and that **peak resident feature bytes stayed under the budget** while
    the feature matrix itself exceeds it.  It also carries
    ``tiered_gather_vs_ndarray``: the median time of a warm 8k-row tiered
    gather over the median time of ``features[rows]`` on the plain ndarray,
    interleaved in one process — an in-run ratio ``check_bench.py`` gates,
    so per-row Python cannot creep back onto the hit path unnoticed.

Usage::

    PYTHONPATH=src python benchmarks/bench_prefetch.py            # full run
    PYTHONPATH=src python benchmarks/bench_prefetch.py --quick    # smoke run

``--quick`` is wired into tier-1 as the ``prefetch_bench`` pytest marker
(see ``tests/benchmarks/test_bench_prefetch.py``).
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
from repro.serving import ClusterBuilder, InferenceServer
from repro.shard import ShardedPredictor, TieredFeatureStore
from repro.transport import FaultInjectingTransport, LocalTransport

FULL_PROFILE = ExperimentProfile(
    dataset_scale=1.0,
    depth=3,
    classifier_epochs=25,
    gate_epochs=10,
    batch_size=200,
    seed=0,
)
QUICK_PROFILE = ExperimentProfile(
    dataset_scale=0.3,
    depth=3,
    classifier_epochs=15,
    gate_epochs=8,
    batch_size=128,
    seed=0,
)
DATASET = "flickr-sim"

#: Injected per-transport-round RTT (real clock) — the acceptance setting.
RTT_SECONDS = 0.005
NUM_SHARDS = 2
BATCH_SIZE = 32
PREFETCH_DEPTH = 4
#: Shape of the gather-ratio probe: one e2e-sized ``feature_rows`` request.
GATHER_ROWS = 8192
GATHER_COLS = 100
GATHER_REPEATS = 21


def _sharded(context: TrainedContext) -> ShardedPredictor:
    config = context.nai_config(threshold_quantile=0.5, batch_size=BATCH_SIZE)
    predictor = context.nai.build_predictor(policy="distance", config=config)
    predictor.prepare(context.dataset.graph, context.dataset.features)
    return ShardedPredictor.from_predictor(predictor).prepare(
        context.dataset.graph,
        context.dataset.features,
        ShardConfig(num_shards=NUM_SHARDS, strategy="degree_balanced"),
    )


def _distinct_batches(num_nodes: int, *, limit: int | None) -> list[np.ndarray]:
    """Chunk one permutation of every node: distinct node-sets, all misses."""
    permuted = np.random.default_rng(13).permutation(num_nodes)
    batches = [
        permuted[start : start + BATCH_SIZE]
        for start in range(0, num_nodes - BATCH_SIZE + 1, BATCH_SIZE)
    ]
    return batches[:limit] if limit else batches


def _serve(sharded, batches, *, prefetch_depth: int) -> dict:
    store = sharded.store
    # Fresh transport per run: both runs see identical cold state and the
    # same injected RTT on every round.
    sharded.use_transport(
        FaultInjectingTransport(
            LocalTransport(store.shards), latency_seconds=RTT_SECONDS
        )
    )
    config = ServingConfig(
        num_workers=2,
        max_batch_size=BATCH_SIZE,
        max_wait_ms=1.0,
        cache_capacity=64,
        prefetch_depth=prefetch_depth,
    )
    try:
        with InferenceServer(sharded.shard_view(0), config) as server:
            start = time.perf_counter()
            responses = server.predict_many(batches, timeout=120.0)
            wall = time.perf_counter() - start
            stats = server.stats()
    finally:
        sharded.use_transport(LocalTransport(store.shards))
    nodes = sum(int(batch.shape[0]) for batch in batches)
    return {
        "prefetch_depth": prefetch_depth,
        "wall_seconds": wall,
        "throughput_nodes_per_second": nodes / wall if wall else 0.0,
        "predictions": np.concatenate([r.predictions for r in responses]),
        "depths": np.concatenate([r.depths for r in responses]),
        "macs_total": float(
            sum(r.batch_macs.total for r in responses)
        ),
        "stats": {
            "prefetch_issued": stats.prefetch_issued,
            "prefetch_completed": stats.prefetch_completed,
            "prefetch_hits": stats.prefetch_hits,
            "prefetch_fetch_seconds": stats.prefetch_fetch_seconds,
            "prefetch_overlap_seconds": stats.prefetch_overlap_seconds,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        },
    }


def run_overlap_suite(context: TrainedContext, *, quick: bool) -> dict:
    sharded = _sharded(context)
    batches = _distinct_batches(
        context.dataset.graph.num_nodes, limit=12 if quick else None
    )
    serialized = _serve(sharded, batches, prefetch_depth=0)
    prefetched = _serve(sharded, batches, prefetch_depth=PREFETCH_DEPTH)

    predictions_equal = bool(
        np.array_equal(serialized["predictions"], prefetched["predictions"])
    )
    depths_equal = bool(
        np.array_equal(serialized["depths"], prefetched["depths"])
    )
    macs_equal = serialized["macs_total"] == prefetched["macs_total"]
    speedup = (
        serialized["wall_seconds"] / prefetched["wall_seconds"]
        if prefetched["wall_seconds"]
        else 0.0
    )
    record = {
        "suite": "prefetch_overlap",
        "dataset": DATASET,
        "num_shards": NUM_SHARDS,
        "injected_rtt_seconds": RTT_SECONDS,
        "num_batches": len(batches),
        "batch_size": BATCH_SIZE,
        "prefetch_depth": PREFETCH_DEPTH,
        "predictions_equal": predictions_equal,
        "depths_equal": depths_equal,
        "macs_equal": macs_equal,
        "macs_total": serialized["macs_total"],
        "serialized": {
            key: serialized[key]
            for key in ("wall_seconds", "throughput_nodes_per_second", "stats")
        },
        "prefetched": {
            key: prefetched[key]
            for key in ("wall_seconds", "throughput_nodes_per_second", "stats")
        },
        "throughput_speedup": speedup,
    }
    if not (predictions_equal and depths_equal and macs_equal):
        raise AssertionError("prefetch run diverged from serialized run")
    return record


def tiered_gather_vs_ndarray() -> float:
    """Warm tiered gather time over plain ``features[rows]`` time (medians)."""
    rng = np.random.default_rng(17)
    features = rng.normal(size=(2 * GATHER_ROWS, GATHER_COLS)).astype(np.float32)
    rows = np.sort(rng.choice(features.shape[0], size=GATHER_ROWS, replace=False))
    store = TieredFeatureStore(features, budget_bytes=features.nbytes)
    try:
        store.get_rows(rows)  # admit: every later gather is all hits
        if not np.array_equal(store.get_rows(rows), features[rows]):
            raise AssertionError("tiered gather diverged from the ndarray")
        tiered, plain = [], []
        for _ in range(GATHER_REPEATS):
            start = time.perf_counter()
            store.get_rows(rows)
            middle = time.perf_counter()
            features[rows]
            tiered.append(middle - start)
            plain.append(time.perf_counter() - middle)
        if store.report()["misses"] != GATHER_ROWS:
            raise AssertionError("the timed gathers were not warm")
    finally:
        store.close()
    return float(np.median(tiered) / np.median(plain))


def run_tiered_suite(context: TrainedContext) -> dict:
    sharded = _sharded(context)
    store = sharded.store
    targets = np.asarray(context.dataset.split.test_idx)
    oracle = sharded.predict(targets)
    feature_nbytes = sum(
        np.asarray(shard.features).nbytes for shard in store.shards
    )
    budget = feature_nbytes // 4
    ClusterBuilder(sharded).tiered_features(budget).build_predictor()
    start = time.perf_counter()
    tiered = sharded.predict(targets)
    wall = time.perf_counter() - start
    report = store.memory_report()

    predictions_identical = bool(
        np.array_equal(tiered.predictions, oracle.predictions)
    )
    depths_identical = bool(np.array_equal(tiered.depths, oracle.depths))
    macs_equal = tiered.macs.total == oracle.macs.total
    peak = report["feature_peak_resident_nbytes"]
    record = {
        "suite": "tiered_memory",
        "dataset": DATASET,
        "num_shards": NUM_SHARDS,
        "feature_matrix_nbytes": int(feature_nbytes),
        "budget_bytes": int(budget),
        "matrix_exceeds_budget": bool(feature_nbytes > budget),
        "peak_resident_nbytes": int(peak),
        "peak_resident_within_slo": bool(peak <= budget),
        "resident_reduction_vs_matrix": (
            1.0 - peak / feature_nbytes if feature_nbytes else 0.0
        ),
        "tiered_predictions_identical": predictions_identical,
        "tiered_depths_identical": depths_identical,
        "tiered_macs_equal": macs_equal,
        "macs_total": float(tiered.macs.total),
        "wall_seconds": wall,
        "tiered_gather_vs_ndarray": tiered_gather_vs_ndarray(),
        "tiers": report["feature_tiers"],
    }
    if not (predictions_identical and depths_identical and macs_equal):
        raise AssertionError("tiered serving diverged from the oracle")
    if peak > budget:
        raise AssertionError(
            f"peak resident feature bytes {peak} exceeded the {budget} budget"
        )
    return record


def run_bench(*, quick: bool = False) -> dict:
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    context = get_context(DATASET, profile=profile)

    overlap = run_overlap_suite(context, quick=quick)
    tiered = run_tiered_suite(context)
    print(
        f"{DATASET:12s} overlap x{overlap['throughput_speedup']:.2f} at "
        f"{RTT_SECONDS * 1e3:.0f}ms injected RTT "
        f"({overlap['num_batches']} cold batches, depth {PREFETCH_DEPTH}) | "
        f"tiered peak {tiered['peak_resident_nbytes'] / 1024:.0f}KiB of "
        f"{tiered['budget_bytes'] / 1024:.0f}KiB budget "
        f"(matrix {tiered['feature_matrix_nbytes'] / 1024:.0f}KiB) | "
        f"warm gather x{tiered['tiered_gather_vs_ndarray']:.2f} of ndarray | "
        "bit-identical"
    )

    aggregate = {
        "throughput_speedup": overlap["throughput_speedup"],
        "all_predictions_equal": (
            overlap["predictions_equal"]
            and tiered["tiered_predictions_identical"]
        ),
        "all_macs_equal": overlap["macs_equal"] and tiered["tiered_macs_equal"],
        "peak_resident_within_slo": tiered["peak_resident_within_slo"],
        "prefetch_overlap_seconds": (
            overlap["prefetched"]["stats"]["prefetch_overlap_seconds"]
        ),
    }
    return {
        "benchmark": "bench_prefetch",
        "quick": quick,
        "profile": {
            "dataset_scale": profile.dataset_scale,
            "depth": profile.depth,
            "seed": profile.seed,
        },
        "workload": {
            "batch_size": BATCH_SIZE,
            "num_shards": NUM_SHARDS,
            "injected_rtt_seconds": RTT_SECONDS,
            "prefetch_depth": PREFETCH_DEPTH,
        },
        "suites": [overlap, tiered],
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
        default=Path(__file__).resolve().parent.parent / "BENCH_prefetch.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
