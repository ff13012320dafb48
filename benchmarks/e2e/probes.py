"""Per-layer probes: each layer timed from outside, through its public calls.

The probe pass replays the same seeded requests *sequentially* through one
public entry point per layer and reports the median per call; counters come
from the layers' own public snapshots (``store.traffic``,
``store.memory_report()``, ``transport.stats``).  Nothing inside ``src/`` is
instrumented.  The *peel* replays the requests through five stacks of
growing depth, idle, so each row's added cost is one layer.
"""

from __future__ import annotations

import time
from contextlib import ExitStack

import numpy as np

from repro.core import ShardConfig
from repro.graph.kernels import (
    extract_local_csr_arrays,
    hop_distances,
    masked_row_spmm,
)
from repro.serving import ClusterBuilder, InferenceServer
from repro.shard import ShardedPredictor
from repro.transport import ShardServerGroup

from loadgen import LoadGenerator, PhaseResult
from system import NUM_SHARDS, SERVING, STRATEGY


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - start) * 1e3


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def engine_probes(system, requests) -> dict:
    """``graph`` and ``core``: the bare engine on the workload's requests."""
    engine = system.predictor.make_engine()
    fixed_engine = system.fixed.make_engine()
    graph = system.dataset.graph.adjacency
    num_nodes = graph.shape[0]
    t_max = engine.config.t_max
    times: dict[str, list] = {name: [] for name in (
        "build", "hops", "extract", "spmm", "run", "fixed", "propagation",
        "decision", "classification", "stationary",
    )}
    support_nodes, spmm_macs, macs, nodes = [], [], 0.0, 0
    for batch in requests:
        bundle, ms = timed(engine.build_support, batch)
        times["build"].append(ms)
        support_nodes.append(bundle.num_local)
        _, ms = timed(hop_distances, graph.indptr, graph.indices, batch, num_nodes, t_max)
        times["hops"].append(ms)
        _, ms = timed(extract_local_csr_arrays, engine.a_hat, bundle.support.node_ids)
        times["extract"].append(ms)
        out = np.empty_like(bundle.local_features)
        runs = np.array([[0, bundle.num_local]], dtype=np.int64)
        nnz, ms = timed(
            masked_row_spmm, bundle.indptr, bundle.indices, bundle.data,
            bundle.local_features, out, runs, assume_bounded=True,
        )
        times["spmm"].append(ms)
        spmm_macs.append(nnz * out.shape[1])
        result, ms = timed(engine.run_batch, batch, bundle=bundle)
        times["run"].append(ms)
        _, ms = timed(fixed_engine.run_batch, batch, bundle=bundle)
        times["fixed"].append(ms)
        for stage in ("propagation", "decision", "classification", "stationary"):
            times[stage].append(getattr(result.timings, stage) * 1e3)
        macs += result.macs.total
        nodes += len(batch)
    support = float(np.mean(support_nodes))
    return {
        "graph.sampling.build_support_ms": _median(times["build"]),
        "graph.sampling.support_nodes": support,
        "graph.sampling.support_graph_share": support / num_nodes,
        "graph.kernels.hop_distances_ms": _median(times["hops"]),
        "graph.kernels.extract_csr_ms": _median(times["extract"]),
        "graph.kernels.spmm_ms": _median(times["spmm"]),
        "graph.kernels.spmm_macs": float(np.mean(spmm_macs)),
        "core.inference.run_batch_ms": _median(times["run"]),
        "core.inference.propagation_ms": _median(times["propagation"]),
        "core.inference.decision_ms": _median(times["decision"]),
        "core.inference.classification_ms": _median(times["classification"]),
        "core.stationary.ms": _median(times["stationary"]),
        "core.inference.fixed_depth_run_batch_ms": _median(times["fixed"]),
        "core.inference.macs_per_node": macs / nodes,
    }


def store_probes(system, requests) -> dict:
    """``shard.store`` and ``transport.socket``: one cross-shard support
    build per request, first in-process, then over one socket rail."""
    dataset = system.dataset
    sharded = ShardedPredictor.from_predictor(system.predictor).prepare(
        dataset.graph, dataset.features,
        ShardConfig(num_shards=NUM_SHARDS, strategy=STRATEGY),
    )
    store = sharded.store
    engine = sharded.make_engine(home_shard=0)
    local_ms = [timed(engine.build_support, batch)[1] for batch in requests]
    remote_share = store.traffic.as_dict()["remote_row_fraction"]
    with ShardServerGroup(store.shards) as group, group.connect() as rail:
        sharded.use_transport(rail)
        socket_ms = [timed(engine.build_support, batch)[1] for batch in requests]
        rounds = rail.stats.rounds / len(requests)
        wire_kb = (rail.wire_bytes_sent + rail.wire_bytes_received) / 1024
    local, over_socket = _median(local_ms), _median(socket_ms)
    return {
        "shard.store.build_support_local_ms": local,
        "shard.store.remote_row_share": remote_share,
        "transport.socket.build_support_ms": over_socket,
        "transport.socket.rounds_per_batch": rounds,
        "transport.socket.wire_kb_per_batch": wire_kb / len(requests),
        "transport.socket.round_ms": (over_socket - local) / rounds if rounds else 0.0,
    }


def fleet_counters(fleet) -> dict:
    """``shard`` residency and ``transport.replica`` counters of the fleet."""
    report = fleet.cluster.store.memory_report()
    tiers = report.get("feature_tiers", [])
    hits = sum(tier["hits"] for tier in tiers)
    lookups = hits + sum(tier["misses"] for tier in tiers)
    stats = fleet.transport.stats
    return {
        "shard.store.state_mb": sum(s["nbytes"] for s in report["per_shard"]) / 1e6,
        "shard.feature_store.hot_hit_share": hits / lookups if lookups else 0.0,
        "shard.feature_store.resident_mb": report.get("feature_resident_nbytes", 0) / 1e6,
        "transport.replica.failovers": float(stats.failovers),
        "transport.replica.retries": float(stats.retries),
    }


def peel(system, requests, check) -> tuple[dict, list]:
    """Five stacks, idle and sequential: engine -> server -> router ->
    socket -> fleet.  Each request visits every stack in turn, so drift in
    the process (allocator, caches) lands on all rows alike.  Returns the
    rows and the phases (for failure counts)."""
    dataset = system.dataset
    engine = system.predictor.make_engine()
    cluster = system.fleet.cluster
    submit_ms = []

    def routed():
        return (
            ClusterBuilder(ShardedPredictor.from_predictor(system.predictor), SERVING)
            .graph(dataset.graph, dataset.features)
            .shards(NUM_SHARDS, strategy=STRATEGY)
        )

    def timed_submit(node_ids):
        handle, ms = timed(cluster.submit, node_ids)
        submit_ms.append(ms)
        return handle

    with ExitStack() as stack:
        def one_rail(store):
            group = stack.enter_context(ShardServerGroup(store.shards))
            return stack.enter_context(group.connect())

        socket_cluster = routed().transport(one_rail).build()
        stack.callback(socket_cluster.close)  # before its rail and servers
        stacks = {
            "server": stack.enter_context(InferenceServer(system.predictor, SERVING)).submit,
            "router": stack.enter_context(routed().build()).submit,
            "socket": socket_cluster.submit,
            "fleet": timed_submit,
        }
        generators = {
            name: (LoadGenerator(submit, check), PhaseResult(f"peel.{name}", 0.0))
            for name, submit in stacks.items()
        }
        walls: dict[str, list] = {name: [] for name in ("engine", *stacks)}
        for batch in requests:
            walls["engine"].append(timed(engine.run_batch, batch)[1])
            for name, (generator, phase) in generators.items():
                wall = generator.call(phase, batch)
                if wall is not None:
                    walls[name].append(wall)

    rows = {f"peel.{name}_ms": _median(ms) for name, ms in walls.items()}
    fanout = generators["fleet"][1].fanout
    rows["shard.router.submit_ms"] = _median(submit_ms)
    rows["shard.router.fanout_mean"] = float(np.mean(fanout)) if fanout else 0.0
    return rows, [phase for _, phase in generators.values()]
