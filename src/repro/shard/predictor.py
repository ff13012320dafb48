"""Shard-backed inference: the coordinator predictor and per-shard views.

A sharded deployment runs the one :class:`~repro.core.inference.BatchEngine`
over a different row source: :meth:`ShardedPredictor.make_engine` binds the
:class:`~repro.shard.store.ShardedGraphStore` to a home shard
(:meth:`~repro.shard.store.ShardedGraphStore.row_source`) and pairs it with
the :class:`ShardedStationaryState`.  The one support builder and the fused
Algorithm-1 loop run unchanged over it — the store serves the same rows and
the sharded stationary state the same vectors, bit for bit — so per-batch
predictions, exit depths, MAC and timing breakdowns are exactly those of an
unsharded engine.

:class:`ShardedPredictor` is the coordinator: it partitions the graph at
:meth:`~ShardedPredictor.prepare` time, builds the store and the reduced
stationary state, then serves :meth:`~ShardedPredictor.predict` through
:func:`~repro.core.inference.predict_in_batches`, the batching loop of
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
    NAIPredictor,
    predict_in_batches,
)
from ..exceptions import ConfigurationError, NotFittedError
from ..graph.normalization import NormalizationScheme
from ..graph.sparse import CSRGraph
from ..models.base import DepthwiseClassifier
from .stationary import ShardedStationaryState, compute_sharded_stationary
from .store import ShardedGraphStore


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

    def make_engine(self) -> BatchEngine:
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
        self._engines: list[BatchEngine] = []

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

    def make_engine(self, *, home_shard: int | None = None) -> BatchEngine:
        """A fresh engine over the shared store (one per worker).

        Its rows come from the store bound to ``home_shard``, the shard its
        fetch traffic is counted against.
        """
        self._require_prepared()
        assert self._store is not None and self._stationary is not None
        return BatchEngine(
            self.classifiers,
            self.policy,
            self.config,
            self._store.row_source(home_shard),
            self._stationary,
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

        The batching loop is ``NAIPredictor.predict``'s
        (:func:`~repro.core.inference.predict_in_batches`); each batch runs
        on the engine of the shard owning its first target.
        """
        self._require_prepared()
        owner = self.store.plan.owner
        return predict_in_batches(
            node_ids,
            self.config,
            lambda batch: self._engines[int(owner[batch[0]])],
            keep_logits=keep_logits,
        )
