"""Shard-backed inference: engines and the coordinator predictor.

:class:`ShardEngine` is a :class:`~repro.core.inference.BatchEngine` whose
sampling stage is served by the :class:`~repro.shard.store.ShardedGraphStore`
(cross-shard bundle assembly) instead of a full in-process graph, and whose
stationary features come from the :class:`ShardedStationaryState`.  The
fused Algorithm-1 loop itself runs unchanged — it reads only the bundle and
the stationary state, both of which the sharded substrate reproduces bit for
bit — so per-batch predictions, exit depths, MAC and timing breakdowns are
exactly those of an unsharded engine.

:class:`ShardedPredictor` is the coordinator: it partitions the graph at
:meth:`~ShardedPredictor.prepare` time, builds the store and the reduced
stationary state, then serves :meth:`~ShardedPredictor.predict` with the
same consecutive-slice batching loop as
:class:`~repro.core.inference.NAIPredictor` — dispatching every batch to the
engine of the shard owning its first target.  Because batch composition is
identical and each batch's execution is bit-identical, the *totals* (MACs
included) match the unsharded predictor exactly.

:meth:`ShardedPredictor.shard_view` exposes one shard's worker group as a
prepared-predictor lookalike, which is what
:class:`~repro.shard.router.ShardRouter` feeds to one
:class:`~repro.serving.InferenceServer` per shard.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import NAIConfig, ShardConfig
from ..core.distance_nap import DistanceNAP
from ..core.gate_nap import GateNAP
from ..core.inference import (
    BatchEngine,
    InferenceResult,
    MACBreakdown,
    NAIPredictor,
    TimingBreakdown,
)
from ..exceptions import ConfigurationError, NotFittedError
from ..graph.normalization import NormalizationScheme
from ..graph.sampling import SupportBundle, batch_iterator
from ..graph.sparse import CSRGraph
from ..models.base import DepthwiseClassifier
from .stationary import ShardedStationaryState, compute_sharded_stationary
from .store import ShardedGraphStore


class ShardEngine(BatchEngine):
    """A batch engine whose sampling is served by the sharded store."""

    def __init__(
        self,
        classifiers: Sequence[DepthwiseClassifier],
        policy: DistanceNAP | GateNAP | None,
        config: NAIConfig,
        store: ShardedGraphStore,
        stationary: ShardedStationaryState,
        *,
        home_shard: int | None = None,
    ) -> None:
        # No full graph, feature matrix or global Â: the fused engine only
        # touches the stationary state and the (store-assembled) bundle.
        super().__init__(classifiers, policy, config, None, None, None, stationary)
        self.store = store
        self.home_shard = home_shard

    def build_support(self, batch: np.ndarray) -> SupportBundle:
        """Cross-shard bundle assembly (bit-identical to the global build)."""
        return self.store.build_support_bundle(
            batch, self.config.t_max, home_shard=self.home_shard
        )


class ShardServingView:
    """One shard's worker group, quacking like a prepared ``NAIPredictor``.

    Provides exactly the surface :class:`~repro.serving.InferenceServer` and
    :class:`~repro.serving.WorkerPool` consume — ``prepared``, ``config``
    and ``make_engine`` — with every engine homed on this view's shard so
    the store attributes halo traffic correctly.
    """

    def __init__(self, parent: "ShardedPredictor", shard_id: int) -> None:
        self._parent = parent
        self.shard_id = shard_id

    @property
    def prepared(self) -> bool:
        return self._parent.prepared

    @property
    def config(self) -> NAIConfig:
        return self._parent.config

    def make_engine(self) -> ShardEngine:
        return self._parent.make_engine(home_shard=self.shard_id)


class ShardedPredictor:
    """Coordinator for node-adaptive inference over a sharded graph store.

    Mirrors the :class:`~repro.core.inference.NAIPredictor` surface
    (``prepare`` → ``predict``) but deploys onto per-shard state: after
    :meth:`prepare` the full graph, feature matrix and global normalized
    adjacency are *not* retained — every shard holds its owned slice plus
    halo maps, and only O(n) routing vectors stay with the coordinator.
    """

    def __init__(
        self,
        classifiers: Sequence[DepthwiseClassifier],
        *,
        policy: DistanceNAP | GateNAP | None = None,
        config: NAIConfig | None = None,
        gamma: str | float | NormalizationScheme = NormalizationScheme.SYMMETRIC,
    ) -> None:
        if not classifiers:
            raise ConfigurationError("ShardedPredictor needs at least one classifier")
        self.classifiers = list(classifiers)
        self.depth = len(self.classifiers)
        self.policy = policy
        self.gamma = gamma
        self.config = (
            config if config is not None else NAIConfig(t_min=self.depth, t_max=self.depth)
        )
        self.config.validated_against_depth(self.depth)
        self._store: ShardedGraphStore | None = None
        self._stationary: ShardedStationaryState | None = None
        self._engines: list[ShardEngine] = []

    @classmethod
    def from_predictor(
        cls, predictor: NAIPredictor
    ) -> "ShardedPredictor":
        """Rebuild an (unprepared) sharded twin of an ``NAIPredictor``."""
        return cls(
            predictor.classifiers,
            policy=predictor.policy,
            config=predictor.config,
            gamma=predictor.gamma,
        )

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        shard_config: ShardConfig,
        *,
        transport=None,
        plan=None,
    ) -> "ShardedPredictor":
        """Partition, build the shard blocks and reduce the stationary state.

        ``transport`` (optional) is either a ready
        :class:`~repro.transport.ShardTransport` or a callable taking the
        built store and returning one — how a deployment swaps the default
        in-process fetches for the socket backend at prepare time.

        ``plan`` (optional) deploys onto a pre-built
        :class:`~repro.shard.partitioner.ShardPlan` instead of repartitioning
        — how a versioned rollout prepares the successor deployment at an
        explicit plan version (see
        :meth:`~repro.shard.router.ShardRouter.install_plan`).
        """
        self._store = ShardedGraphStore.from_graph(
            graph,
            features,
            shard_config,
            gamma=self.gamma,
            dtype=self.config.np_dtype,
            plan=plan,
        )
        if transport is not None:
            if callable(transport) and not hasattr(transport, "fetch"):
                transport = transport(self._store)
            self._store._set_transport(transport)
        self._stationary = compute_sharded_stationary(self._store)
        self._engines = [
            self.make_engine(home_shard=shard_id)
            for shard_id in range(self._store.num_shards)
        ]
        return self

    def use_transport(self, transport) -> "ShardedPredictor":
        """Swap the store's fetch backend; every engine picks it up at once.

        Engines hold the store, not the backend, so predictions before and
        after a swap are bit-identical — the equivalence suite sweeps one
        prepared predictor across all three backends this way.  Prefer
        :class:`~repro.serving.cluster.ClusterBuilder` for fleet
        configuration; this remains the supported hook for swapping the
        backend of an already-prepared predictor (tests and the
        equivalence suites lean on it).
        """
        self.store._set_transport(transport)
        return self

    @property
    def prepared(self) -> bool:
        return self._store is not None and self._stationary is not None

    @property
    def store(self) -> ShardedGraphStore:
        self._require_prepared()
        assert self._store is not None
        return self._store

    @property
    def stationary(self) -> ShardedStationaryState:
        self._require_prepared()
        assert self._stationary is not None
        return self._stationary

    @property
    def num_shards(self) -> int:
        return self.store.num_shards

    def _require_prepared(self) -> None:
        if not self.prepared:
            raise NotFittedError(
                "call ShardedPredictor.prepare(graph, features, shard_config) first"
            )

    def make_engine(self, *, home_shard: int | None = None) -> ShardEngine:
        """A fresh engine over the shared store (one per worker)."""
        self._require_prepared()
        assert self._store is not None and self._stationary is not None
        return ShardEngine(
            self.classifiers,
            self.policy,
            self.config,
            self._store,
            self._stationary,
            home_shard=home_shard,
        )

    def shard_view(self, shard_id: int) -> ShardServingView:
        """The per-shard predictor surface an ``InferenceServer`` fronts."""
        if not 0 <= shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard_id {shard_id} out of range [0, {self.num_shards})"
            )
        return ShardServingView(self, shard_id)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict(
        self, node_ids: np.ndarray, *, keep_logits: bool = False
    ) -> InferenceResult:
        """Classify ``node_ids`` — bit-identical to the unsharded predictor.

        The batching loop is byte-for-byte the ``NAIPredictor.predict``
        logic (consecutive ``batch_size`` slices, merged breakdowns); each
        batch runs on the engine of the shard owning its first target, whose
        store-assembled bundle and sharded stationary state reproduce the
        unsharded inputs exactly.
        """
        self._require_prepared()
        assert self._store is not None
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            raise ConfigurationError("predict requires at least one node")
        predictions = np.full(node_ids.shape[0], -1, dtype=np.int64)
        depths = np.zeros(node_ids.shape[0], dtype=np.int64)
        logits_store: dict[int, np.ndarray] = {}
        macs = MACBreakdown()
        timings = TimingBreakdown()

        offset = 0
        for batch in batch_iterator(node_ids, self.config.batch_size):
            home = int(self._store.plan.owner[batch[0]])
            batch_result = self._engines[home].run_batch(batch, keep_logits=keep_logits)
            macs = macs.merged_with(batch_result.macs)
            timings = timings.merged_with(batch_result.timings)
            predictions[offset:offset + batch.shape[0]] = batch_result.predictions
            depths[offset:offset + batch.shape[0]] = batch_result.depths
            offset += batch.shape[0]
            if keep_logits:
                logits_store.update(batch_result.logits)

        return InferenceResult(
            node_ids=node_ids,
            predictions=predictions,
            depths=depths,
            macs=macs,
            timings=timings,
            max_depth=self.config.t_max,
            logits=logits_store,
        )
