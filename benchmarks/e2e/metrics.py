"""Every metric the benchmark reports: name, unit, direction, bound, prediction.

This table is the single source of the names.  ``BENCHMARK.json`` lists the
same names (``tests/test_names.py`` asserts the two agree), ``run.py`` fills
them, ``compare.py`` gates them and ``README.md`` explains them.

``bound`` is the share of the parent's median by which a gated end-to-end
metric may get worse.  ``moves`` is the prediction written down before any
measurement: which end-to-end metric a layer metric should move, on which
workload — a later change is judged against it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The four workloads; names are fixed.  ``why`` is what BENCHMARK.json records.
WORKLOADS = {
    "offline_sweep": (
        "bare NAIPredictor over the test split in 512-node calls, NAP and "
        "fixed depth alternating: only core/graph/nn run, the control for "
        "every serving-side change"
    ),
    "online_cold": (
        "fleet, open loop, every request 1-8 fresh test nodes: no batch "
        "repeats, so shard BFS, socket rounds and feature gathers do the "
        "work and the subgraph cache only inserts"
    ),
    "online_hot": (
        "same fleet and rates, Zipf(1.1) over 64 recurring 8-node sets: "
        "requests share work, so cache reads, batcher and waves do the work"
    ),
    "online_churn": (
        "cold stream at r2 while rail 0 drops and returns and a 3-shard "
        "plan rolls out: control-plane writes beside reads, the only "
        "workload where requests can fail"
    ),
}

#: Load levels at which the serving-layer metrics are repeated.
SERVING_LEVELS = ("r1", "r3", "sat")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Regression bound as a share of the parent's median; ``None`` = ungated.
    bound: float | None = None
    #: Predicted interaction (per-layer) or definition note (end-to-end).
    moves: str = ""


_ENGINE = (
    "nodes_per_s and nap_speedup on offline_sweep; latency_p50_ms on "
    "online_cold by at most peel.engine_ms / peel.fleet_ms"
)
_EXACT = "must not move unless the change says so (exact count)"
_STORE = (
    "latency_p50_ms and saturation_rps on online_cold; none on "
    "offline_sweep; less on online_hot, in proportion to "
    "serving.cache.hit_share and serving.wave.shared_row_share"
)
_CACHE = (
    "latency and saturation_rps on online_hot; none on online_cold (hit "
    "share is 0 by construction)"
)
_WAVE = (
    "latency and saturation_rps on online_hot; none at r1 (waves form only "
    "under load)"
)
_QUEUE = (
    "latency_p95_hi_ms, slo_rate_rps and saturation_rps on both online "
    "workloads (latency rises before throughput stops rising); none on "
    "offline_sweep"
)
_CHURN = "failed_share and latency_p95_ms on online_churn only"
_RSS = "peak_rss_mb on every fleet workload"
_PEEL = "each row minus the one above is the cost that layer adds, idle"
_SPAN = "share of traced request wall time; which layer owns latency at r2"

#: Gated by the driver on every workload.  What each means per workload is
#: tabulated in README.md (offline_sweep has no arrival rates, so its
#: "latency" is one 512-node predict call).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "dataset + training + prepare + fleet build, median of 3 set-ups"),
    Metric("latency_p50_ms", "ms", "lower", 0.15,
           "at r2 from due time; churn: requests due before the rollout; "
           "offline: one 512-node NAP predict call"),
    Metric("latency_p95_ms", "ms", "lower", 0.20, "same samples as the p50"),
    Metric("latency_p95_hi_ms", "ms", "lower", 0.25,
           "at r3; churn: requests due while the rail is down or the plan "
           "rolls; offline: the fixed-depth predict call"),
    Metric("saturation_rps", "1/s", "higher", 0.20,
           "completions/s with 64 outstanding; offline: predict calls/s"),
    Metric("nodes_per_s", "1/s", "higher", 0.20,
           "target nodes/s in the same window; offline: median NAP pass"),
    Metric("nap_speedup", "x", "higher", 0.10,
           "fixed-depth time / NAP time through the bare predictor, in-run "
           "ratio; online: over the workload's own requests"),
    Metric("peak_rss_mb", "MB", "lower", 0.25, "ru_maxrss of the run"),
    Metric("accuracy", "share", "higher", 0.001,
           "oracle accuracy on the test split; responses must equal the oracle"),
    Metric("macs_per_node", "count", "lower", 0.001,
           "oracle pass MACs / node (512-node batches), exact"),
)

#: End-to-end by nature but unfit for the driver's relative gate: one is a
#: step function of three rungs, the other is 0 when healthy.  compare.py
#: gates them (one rung / absolute 0); the driver sees failures through
#: ``attempted`` / ``failed``.
UNGATED_END_TO_END = (
    Metric("slo_rate_rps", "1/s", "higher", None,
           "highest rung with p95 <= latency limit, no failures, "
           "completions >= 0.97 x sent and drain <= 1 s; 0 if none"),
    Metric("failed_share", "share", "lower", None,
           "(failed + refused + timed out + oracle mismatches) / attempted"),
)


def _serving(name: str, unit: str, better: str, moves: str) -> tuple[Metric, ...]:
    return tuple(
        Metric(f"serving.{name}.{level}", unit, better, None, moves)
        for level in SERVING_LEVELS
    )


PER_LAYER = (
    Metric("graph.sampling.build_support_ms", "ms", "lower", None, _ENGINE),
    Metric("graph.sampling.support_nodes", "count", "lower", None, _EXACT),
    Metric("graph.sampling.support_graph_share", "share", "lower", None, _EXACT),
    Metric("graph.kernels.hop_distances_ms", "ms", "lower", None, _ENGINE),
    Metric("graph.kernels.extract_csr_ms", "ms", "lower", None, _ENGINE),
    Metric("graph.kernels.spmm_ms", "ms", "lower", None, _ENGINE),
    Metric("graph.kernels.spmm_macs", "count", "lower", None, _EXACT),
    Metric("core.inference.run_batch_ms", "ms", "lower", None, _ENGINE),
    Metric("core.inference.propagation_ms", "ms", "lower", None, _ENGINE),
    Metric("core.inference.decision_ms", "ms", "lower", None, _ENGINE),
    Metric("core.inference.classification_ms", "ms", "lower", None, _ENGINE),
    Metric("core.stationary.ms", "ms", "lower", None, _ENGINE),
    Metric("core.inference.fixed_depth_run_batch_ms", "ms", "lower", None, _ENGINE),
    Metric("core.inference.macs_per_node", "count", "lower", None, _EXACT),
    Metric("core.inference.exit_depth_mean", "count", "lower", None, _EXACT),
    Metric("core.inference.exit_depth1_share", "share", "higher", None, _EXACT),
    Metric("shard.store.build_support_local_ms", "ms", "lower", None, _STORE),
    Metric("shard.store.remote_row_share", "share", "lower", None, _STORE),
    Metric("shard.store.state_mb", "MB", "lower", None, _RSS),
    Metric("shard.feature_store.hot_hit_share", "share", "higher", None, _STORE),
    Metric("shard.feature_store.resident_mb", "MB", "lower", None, _RSS),
    Metric("shard.router.submit_ms", "ms", "lower", None, _QUEUE),
    Metric("shard.router.fanout_mean", "count", "lower", None, _STORE),
    Metric("shard.router.rollout_s", "s", "lower", None, _CHURN),
    Metric("shard.router.requests_during_rollout", "count", "higher", None, _CHURN),
    Metric("transport.socket.build_support_ms", "ms", "lower", None, _STORE),
    Metric("transport.socket.rounds_per_batch", "count", "lower", None, _STORE),
    Metric("transport.socket.wire_kb_per_batch", "KB", "lower", None, _STORE),
    Metric("transport.socket.round_ms", "ms", "lower", None, _STORE),
    Metric("transport.replica.failovers", "count", "lower", None, _CHURN),
    Metric("transport.replica.retries", "count", "lower", None, _CHURN),
    *_serving("queue.wait_p50_ms", "ms", "lower", _QUEUE),
    *_serving("queue.wait_p95_ms", "ms", "lower", _QUEUE),
    *_serving("queue.max_depth", "count", "lower", _QUEUE),
    *_serving("batcher.batch_requests_mean", "count", "higher", _QUEUE),
    *_serving("batcher.batch_nodes_mean", "count", "higher", _QUEUE),
    *_serving("cache.hit_share", "share", "higher", _CACHE),
    *_serving("wave.width_p50", "count", "higher", _WAVE),
    *_serving("wave.shared_row_share", "share", "higher", _WAVE),
    *_serving("wave.macs_per_request", "count", "lower", _WAVE),
    *_serving("worker.busy_share", "share", "lower", _QUEUE),
    Metric("peel.engine_ms", "ms", "lower", None, _PEEL),
    Metric("peel.server_ms", "ms", "lower", None, _PEEL),
    Metric("peel.router_ms", "ms", "lower", None, _PEEL),
    Metric("peel.socket_ms", "ms", "lower", None, _PEEL),
    Metric("peel.fleet_ms", "ms", "lower", None, _PEEL),
    Metric("setup.dataset_s", "s", "lower", None, "setup_s everywhere"),
    Metric("setup.train_s", "s", "lower", None, "setup_s everywhere"),
    Metric("setup.prepare_s", "s", "lower", None,
           "setup_s everywhere (work moved into set-up shows there)"),
    Metric("setup.fleet_s", "s", "lower", None, "setup_s on fleet workloads"),
    Metric("span.queue_wait_share", "share", "lower", None, _SPAN),
    Metric("span.coalesce_share", "share", "lower", None, _SPAN),
    Metric("span.support_build_share", "share", "lower", None, _SPAN),
    Metric("span.fetch_round_share", "share", "lower", None, _SPAN),
    Metric("span.engine_compute_share", "share", "lower", None, _SPAN),
    Metric("span.scatter_share", "share", "lower", None, _SPAN),
    Metric("span.batch_wait_share", "share", "lower", None,
           "time a request spent riding in a batch traced on another request"),
    Metric("span.unattributed_share", "share", "lower", None,
           "1 - the shares above; negative when spans over-attribute"),
    Metric("obs.trace.spans_per_request", "count", "lower", None, _SPAN),
    Metric("obs.trace.overhead_share", "share", "lower", None,
           "traced p50 / untraced r2 p50 - 1; never folded into end-to-end"),
    *UNGATED_END_TO_END,
)

BY_NAME = {metric.name: metric for metric in (*END_TO_END, *PER_LAYER)}


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` this table implies (the contract's six keys)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
