"""Transport benchmark: backend equivalence and socket overhead.

One record type, written to ``BENCH_transport.json``:

``transport_equivalence``
    For every (dataset, shard count): run the full test set through
    :class:`~repro.shard.ShardedPredictor` over each transport backend —
    in-process ``local``, TCP ``socket`` (pipelined rounds) and
    ``fault_wrapped`` (the fault-injecting wrapper in pass-through mode
    with request reordering on) — and **assert bit-identical predictions,
    exit depths and MAC totals** against the unsharded ``NAIPredictor``.
    Each backend records its wall clock, its overhead versus the local
    backend, and its round/byte counters (the socket backend additionally
    reports framed wire bytes).

Usage::

    PYTHONPATH=src python benchmarks/bench_transport.py            # full run
    PYTHONPATH=src python benchmarks/bench_transport.py --quick    # smoke run

``--quick`` is wired into tier-1 as the ``transport_bench`` pytest marker
(see ``tests/benchmarks/test_bench_transport.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ShardConfig
from repro.experiments import ExperimentProfile
from repro.experiments.context import TrainedContext, get_context
from repro.shard import ShardedPredictor
from repro.transport import (
    FaultInjectingTransport,
    LocalTransport,
    ShardServerGroup,
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

SHARD_COUNTS = (1, 2, 4)
MAC_FIELDS = ("stationary", "propagation", "decision", "classification")


def _predictor(context: TrainedContext, *, batch_size: int):
    config = context.nai_config(threshold_quantile=0.5, batch_size=batch_size)
    predictor = context.nai.build_predictor(policy="distance", config=config)
    predictor.prepare(context.dataset.graph, context.dataset.features)
    return predictor


def _traffic_bytes(store) -> int:
    return store.traffic.bytes_local + store.traffic.bytes_remote


def _assert_bit_identical(label, result, baseline) -> None:
    if not np.array_equal(result.predictions, baseline.predictions):
        raise AssertionError(f"{label}: predictions diverged")
    if not np.array_equal(result.depths, baseline.depths):
        raise AssertionError(f"{label}: depths diverged")
    for name in MAC_FIELDS:
        if getattr(result.macs, name) != getattr(baseline.macs, name):
            raise AssertionError(f"{label}: MAC field {name} diverged")


def run_equivalence_suite(
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
            ShardConfig(num_shards=num_shards, strategy="degree_balanced"),
        )
        store = sharded.store
        with ShardServerGroup(store.shards) as group:
            backends = {
                "local": LocalTransport(store.shards),
                "socket": group.connect(),
                "fault_wrapped": FaultInjectingTransport(
                    LocalTransport(store.shards), reorder=True
                ),
            }
            per_backend = {}
            try:
                for name, transport in backends.items():
                    sharded.use_transport(transport)
                    bytes_before = _traffic_bytes(store)
                    start = time.perf_counter()
                    result = sharded.predict(test_idx)
                    wall = time.perf_counter() - start
                    _assert_bit_identical(
                        f"{dataset_name}/x{num_shards}/{name}", result, baseline
                    )
                    entry = {
                        "wall_seconds": wall,
                        "payload_bytes": _traffic_bytes(store) - bytes_before,
                        "transport": transport.stats.as_dict(),
                    }
                    if hasattr(transport, "wire_bytes_sent"):
                        entry["wire_bytes_sent"] = transport.wire_bytes_sent
                        entry["wire_bytes_received"] = transport.wire_bytes_received
                    per_backend[name] = entry
            finally:
                for transport in backends.values():
                    transport.close()
        local_wall = per_backend["local"]["wall_seconds"]
        for entry in per_backend.values():
            entry["overhead_vs_local"] = (
                entry["wall_seconds"] / local_wall if local_wall else 0.0
            )
        records.append({
            "suite": "transport_equivalence",
            "dataset": dataset_name,
            "num_shards": num_shards,
            "test_nodes": int(test_idx.shape[0]),
            "predictions_equal": True,
            "depths_equal": True,
            "macs_equal": True,
            "backends": per_backend,
            "traffic": store.traffic.as_dict(),
        })
    return records


def run_bench(*, quick: bool = False) -> dict:
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    datasets = QUICK_DATASETS if quick else FULL_DATASETS
    batch_size = 64 if quick else 100

    suites: list[dict] = []
    for dataset_name in datasets:
        context = get_context(dataset_name, profile=profile)
        equivalence = run_equivalence_suite(
            context, dataset_name, batch_size=batch_size
        )
        suites.extend(equivalence)
        worst = max(
            equivalence,
            key=lambda r: r["backends"]["socket"]["overhead_vs_local"],
        )
        print(
            f"{dataset_name:12s} bit-identical across "
            f"{len(equivalence)} shardings x 3 backends | socket overhead "
            f"up to x{worst['backends']['socket']['overhead_vs_local']:.2f} "
            f"(x{worst['num_shards']} shards)"
        )

    aggregate = {
        "shard_counts": list(SHARD_COUNTS),
        "backends": ["local", "socket", "fault_wrapped"],
        "all_predictions_equal": all(s["predictions_equal"] for s in suites),
        "all_macs_equal": all(s["macs_equal"] for s in suites),
        "max_socket_overhead_vs_local": max(
            s["backends"]["socket"]["overhead_vs_local"] for s in suites
        ),
    }
    return {
        "benchmark": "bench_transport",
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
        default=Path(__file__).resolve().parent.parent / "BENCH_transport.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    aggregate = report["aggregate"]
    print(
        f"aggregate: bit-identical {aggregate['all_predictions_equal']}, "
        f"MACs equal {aggregate['all_macs_equal']}, socket overhead "
        f"<= x{aggregate['max_socket_overhead_vs_local']:.2f}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
