"""The pinned system under test and its set-up, timed stage by stage.

Nothing here is derived at run time: the dataset, the model, the NAP
operating point and the fleet shape are constants, so two runs of the same
code serve the same system.  ``--seed`` never reaches this module — it drives
only the request stream.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import ServingConfig, ShardConfig
from repro.datasets import load_dataset
from repro.experiments import ExperimentProfile
from repro.experiments.context import train_context
from repro.serving import ClusterBuilder
from repro.shard import GraphPartitioner, ShardedPredictor
from repro.transport import FaultInjectingTransport, ShardServerGroup

DATASET = "products-sim"
PROFILE = ExperimentProfile(
    dataset_scale=5.0,  # ~20k nodes
    depth=3,
    classifier_epochs=25,
    gate_epochs=10,
    batch_size=512,
    seed=0,
)
THRESHOLD_QUANTILE = 0.5
NUM_SHARDS = 2
STRATEGY = "degree_balanced"
RAILS = 2
WAVE_WIDTH = 4
FEATURE_BUDGET_SHARE = 0.5
#: Static batch policy on purpose: the adaptive controller is a timing
#: feedback loop and would widen every bound.  ``prefetch_depth`` stays 0
#: because it is illegal together with waves today.
SERVING = ServingConfig(
    num_workers=2, max_batch_size=64, max_wait_ms=2.0, cache_capacity=16
)
SUCCESSOR_SHARDS = 3
SUCCESSOR_STRATEGY = "hash"

#: Open-loop rungs: 0.25 / 0.5 / 0.75 of online_cold's saturation rate as
#: measured once at the commit that added the benchmark (see README.md),
#: shared by every online workload.  Numbers, not formulas.
RATES_RPS = {"r1": 80.0, "r2": 160.0, "r3": 240.0}
#: 2 x the seed's p95 at r2 on online_cold.
LATENCY_LIMIT_MS = 400.0

PINNED = {
    "dataset": DATASET,
    "dataset_scale": PROFILE.dataset_scale,
    "backbone": "sgc",
    "depth": PROFILE.depth,
    "classifier_epochs": PROFILE.classifier_epochs,
    "gate_epochs": PROFILE.gate_epochs,
    "model_seed": PROFILE.seed,
    "policy": "distance",
    "threshold_quantile": THRESHOLD_QUANTILE,
    "offline_batch_size": PROFILE.batch_size,
    "shards": NUM_SHARDS,
    "strategy": STRATEGY,
    "rails": RAILS,
    "wave_width": WAVE_WIDTH,
    "feature_budget_share": FEATURE_BUDGET_SHARE,
    "serving": {
        "num_workers": SERVING.num_workers,
        "max_batch_size": SERVING.max_batch_size,
        "max_wait_ms": SERVING.max_wait_ms,
        "cache_capacity": SERVING.cache_capacity,
        "batch_policy": SERVING.batch_policy,
        "prefetch_depth": SERVING.prefetch_depth,
    },
    "successor": {"shards": SUCCESSOR_SHARDS, "strategy": SUCCESSOR_STRATEGY},
    "rates_rps": RATES_RPS,
    "latency_limit_ms": LATENCY_LIMIT_MS,
}

STAGES = ("dataset_s", "train_s", "prepare_s", "fleet_s")


@dataclass
class Fleet:
    """A built cluster plus the things the builder does not own."""

    cluster: object
    #: Rail 0 of the serving generation; a ``FaultInjectingTransport`` when
    #: built with ``faulty_rail=True``, else the bare socket rail.
    rail0: object
    #: The serving generation's replicated transport (outlives a rollout, so
    #: its failover counters stay readable after ``install_plan``).
    transport: object
    groups: list = field(default_factory=list)
    successor: ShardedPredictor | None = None

    def close(self) -> None:
        self.cluster.close()
        self.transport.close()
        if self.successor is not None:
            self.successor.store.transport.close()
        for group in self.groups:
            group.stop()


@dataclass
class System:
    dataset: object
    predictor: object
    fixed: object
    test_idx: np.ndarray
    timings: dict
    work_dir: Path
    fleet: Fleet | None = None

    @property
    def setup_s(self) -> float:
        return sum(self.timings.values())

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _socket_rails(groups: list, *, faulty_rail: bool):
    """``rails`` callable for ``ClusterBuilder.replicated``: one loopback
    server group over the prepared store, ``RAILS`` socket clients."""

    def rails(store):
        group = ShardServerGroup(store.shards).start()
        groups.append(group)
        made = [group.connect() for _ in range(RAILS)]
        if faulty_rail:
            made[0] = FaultInjectingTransport(made[0], replica_index=0)
        return made

    return rails


def build_fleet(
    predictor,
    dataset,
    work_dir: Path,
    *,
    faulty_rail: bool = False,
    with_successor: bool = False,
    tracer=None,
) -> Fleet:
    """The composed stack: shards x socket rails x tiered features x waves."""
    groups: list = []
    budget = int(dataset.features.nbytes * FEATURE_BUDGET_SHARE)

    def builder(**shard_kwargs):
        made = (
            ClusterBuilder(ShardedPredictor.from_predictor(predictor), SERVING)
            .graph(dataset.graph, dataset.features)
            .shards(replication_factor=RAILS, **shard_kwargs)
            .replicated(_socket_rails(groups, faulty_rail=faulty_rail))
            .tiered_features(budget_bytes=budget, storage_dir=str(work_dir))
            .wave(WAVE_WIDTH)
        )
        return made.traced(tracer) if tracer is not None else made

    cluster = builder(num_shards=NUM_SHARDS, strategy=STRATEGY).build()
    transport = cluster.store.transport
    fleet = Fleet(cluster, transport.rails[0], transport, groups)
    if with_successor:
        # Prepared during set-up and wired identically; only the plan differs.
        config = ShardConfig(
            num_shards=SUCCESSOR_SHARDS,
            strategy=SUCCESSOR_STRATEGY,
            replication_factor=RAILS,
        )
        plan = GraphPartitioner(config).partition(dataset.graph, version=1)
        fleet.successor = (
            builder(num_shards=SUCCESSOR_SHARDS, strategy=SUCCESSOR_STRATEGY)
            .plan(plan)
            .build_predictor()
        )
    return fleet


def set_up(
    work_root: Path,
    *,
    fleet: bool,
    faulty_rail: bool = False,
    with_successor: bool = False,
    tracer=None,
) -> System:
    """Dataset -> training -> prepare -> (fleet), each stage timed."""
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    timings = dict.fromkeys(STAGES, 0.0)

    start = time.perf_counter()
    # Timed on its own; train_context loads the same (deterministic) dataset
    # again, so train_s carries a second copy of this cost.
    load_dataset(DATASET, scale=PROFILE.dataset_scale)
    timings["dataset_s"] = time.perf_counter() - start

    start = time.perf_counter()
    context = train_context(DATASET, profile=PROFILE)
    timings["train_s"] = time.perf_counter() - start
    dataset = context.dataset

    start = time.perf_counter()
    predictor = context.nai.build_predictor(
        policy="distance",
        config=context.nai_config(threshold_quantile=THRESHOLD_QUANTILE),
    ).prepare(dataset.graph, dataset.features)
    fixed = context.nai.build_predictor(
        policy="distance", config=context.vanilla_config()
    ).prepare(dataset.graph, dataset.features)
    timings["prepare_s"] = time.perf_counter() - start

    system = System(
        dataset=dataset,
        predictor=predictor,
        fixed=fixed,
        test_idx=np.asarray(dataset.split.test_idx, dtype=np.int64),
        timings=timings,
        work_dir=work_dir,
    )
    if fleet:
        start = time.perf_counter()
        system.fleet = build_fleet(
            predictor,
            dataset,
            work_dir,
            faulty_rail=faulty_rail,
            with_successor=with_successor,
            tracer=tracer,
        )
        timings["fleet_s"] = time.perf_counter() - start
    return system


@dataclass(frozen=True)
class Oracle:
    """Per-node prediction and exit depth from one sequential predict."""

    predictions: np.ndarray
    depths: np.ndarray
    accuracy: float
    macs_per_node: float
    exit_depth_mean: float
    exit_depth1_share: float

    def check(self, node_ids: np.ndarray, response) -> bool:
        """Whether a response equals the oracle on exactly its nodes."""
        return bool(
            np.array_equal(response.predictions, self.predictions[node_ids])
            and np.array_equal(response.depths, self.depths[node_ids])
        )


def build_oracle(system: System) -> Oracle:
    result = system.predictor.predict(system.test_idx)
    num_nodes = system.dataset.graph.num_nodes
    predictions = np.full(num_nodes, -1, dtype=np.int64)
    depths = np.full(num_nodes, -1, dtype=np.int64)
    predictions[system.test_idx] = result.predictions
    depths[system.test_idx] = result.depths
    return Oracle(
        predictions=predictions,
        depths=depths,
        accuracy=result.accuracy(system.dataset.labels),
        macs_per_node=result.macs_per_node(),
        exit_depth_mean=result.average_depth(),
        exit_depth1_share=float((result.depths == 1).mean()),
    )
