"""The NAI online-inference engine (Algorithm 1 of the paper).

For every inference batch of unseen nodes the engine

1. computes the stationary features ``X^(∞)`` of the batch (Eq. 6-7),
2. samples the supporting nodes within ``T_max`` hops,
3. propagates features online, depth by depth, over the supporting subgraph,
4. after each depth ``l ≥ T_min`` asks the NAP policy (distance- or
   gate-based) which of the remaining batch nodes can exit, classifies those
   with ``f^(l)`` and drops them from the batch, and
5. classifies everything still alive at ``T_max`` with ``f^(T_max)``.

Because exited nodes no longer require deeper propagation, the set of
supporting rows that actually need to be recomputed shrinks after every
depth; this is where the paper's speedup comes from, and the engine measures
it both in wall-clock time and in exact multiply-accumulate counts.

The same engine with ``policy=None`` implements the vanilla fixed-depth
inference of the underlying scalable GNN ("NAI w/o NAP" in the ablation) —
set ``t_min = t_max = k`` to recover the original model exactly.

Hot-path architecture
---------------------
The per-depth cost of Algorithm 1 is dominated by *selecting* and
*recomputing* the supporting rows that can still influence a not-yet-exited
target.  The engine removes every per-depth allocation from that loop:

* The local normalized adjacency is extracted **once per batch**
  (:func:`~repro.graph.sampling.build_support_bundle`) and afterwards only
  its raw ``indptr/indices/data`` arrays are touched.
* Propagation runs through :func:`~repro.graph.kernels.masked_row_spmm`,
  which writes ``(Â_local @ X)[rows]`` straight into a preallocated double
  buffer — no per-depth CSR submatrix, no full feature-matrix copy.  Rows
  that exited propagation keep stale values that are provably never read
  again (the needed sets are nested and closed under in-neighbours).
* Needed rows are derived from hop distances instead of a per-depth BFS.
  :func:`~repro.graph.sampling.k_hop_neighborhood` orders local nodes by hop,
  so before the first early exit the rows within ``T_max - depth`` hops form
  a row *prefix* found by one ``searchsorted``.  After an exit event the hop
  distances to the surviving targets are rebuilt once
  (:func:`~repro.graph.kernels.hop_distances`) and subsequent depths go back
  to thresholding — a BFS runs only when the target set actually changes.
* The whole path is dtype-parametric: ``NAIConfig.dtype = "float32"`` halves
  the propagation memory traffic, while classification stays float64.

Worker-ownable engine state
---------------------------
All per-batch execution lives in :class:`BatchEngine`, which owns the
mutable hot-path state (the grow-only double propagation buffers) while
sharing the prepared read-only deployment state (a row source, stationary
vectors, classifiers).  The row source
(:class:`~repro.graph.sampling.RowSource`) is where sampling reads graph
rows: one process's graph, ``Â`` and features for :class:`NAIPredictor`, a
sharded store for :mod:`repro.shard` — the engine and its one support
builder do not know which.  :class:`NAIPredictor` keeps one engine for its
sequential :meth:`~NAIPredictor.predict` loop;
:mod:`repro.serving` hands each pool worker its own engine via
:meth:`NAIPredictor.make_engine`, so independent micro-batches run
concurrently without sharing scratch memory.  The sampling products of a
batch are packaged as a :class:`~repro.graph.sampling.SupportBundle` that
:meth:`BatchEngine.run_batch` accepts pre-built — the serving layer's
subgraph cache replays bundles across recurring batches, skipping BFS and
feature gathering while every MAC-counted operation still executes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConfigurationError, NotFittedError
from ..graph.kernels import (
    auto_masked_spmm,
    hop_distances,
    masked_row_spmm,
)
from ..graph.normalization import NormalizationScheme, normalized_adjacency
from ..graph.sampling import (
    LocalRowSource,
    RowSource,
    SupportBundle,
    batch_iterator,
    build_support_bundle,
)
from ..graph.sparse import CSRGraph
from ..models.base import DepthwiseClassifier
from ..nn.tensor import Tensor
from .config import NAIConfig
from .distance_nap import DistanceNAP
from .gate_nap import GateNAP
from .stationary import StationaryState, compute_stationary_state


@dataclass
class MACBreakdown:
    """Multiply-accumulate counts of one inference run, split by procedure."""

    stationary: float = 0.0
    propagation: float = 0.0
    decision: float = 0.0
    classification: float = 0.0

    @property
    def total(self) -> float:
        return self.stationary + self.propagation + self.decision + self.classification

    @property
    def feature_processing(self) -> float:
        """Propagation plus decision MACs ("FP MACs" in the paper's tables)."""
        return self.propagation + self.decision

    def merged_with(self, other: "MACBreakdown") -> "MACBreakdown":
        return MACBreakdown(
            stationary=self.stationary + other.stationary,
            propagation=self.propagation + other.propagation,
            decision=self.decision + other.decision,
            classification=self.classification + other.classification,
        )


@dataclass
class TimingBreakdown:
    """Wall-clock seconds of one inference run, split by procedure."""

    sampling: float = 0.0
    stationary: float = 0.0
    propagation: float = 0.0
    decision: float = 0.0
    classification: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.sampling
            + self.stationary
            + self.propagation
            + self.decision
            + self.classification
        )

    @property
    def feature_processing(self) -> float:
        """Propagation plus decision time ("FP time" in the paper's tables)."""
        return self.propagation + self.decision

    def merged_with(self, other: "TimingBreakdown") -> "TimingBreakdown":
        return TimingBreakdown(
            sampling=self.sampling + other.sampling,
            stationary=self.stationary + other.stationary,
            propagation=self.propagation + other.propagation,
            decision=self.decision + other.decision,
            classification=self.classification + other.classification,
        )


@dataclass
class InferenceResult:
    """Predictions plus efficiency accounting for a set of test nodes."""

    node_ids: np.ndarray
    predictions: np.ndarray
    depths: np.ndarray
    macs: MACBreakdown
    timings: TimingBreakdown
    max_depth: int
    logits: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    def accuracy(self, labels: np.ndarray) -> float:
        """Accuracy against the global label vector."""
        labels = np.asarray(labels)
        return float((self.predictions == labels[self.node_ids]).mean())

    def depth_distribution(self) -> list[int]:
        """Number of nodes classified at each depth ``1..max_depth`` (Table VI)."""
        counts = np.bincount(self.depths, minlength=self.max_depth + 1)
        return [int(c) for c in counts[1:self.max_depth + 1]]

    def average_depth(self) -> float:
        """The average personalised propagation depth ``q`` of Table I."""
        return float(self.depths.mean()) if self.depths.size else 0.0

    def macs_per_node(self) -> float:
        """Total MACs averaged over the classified nodes."""
        return self.macs.total / max(self.num_nodes, 1)

    def feature_processing_macs_per_node(self) -> float:
        """Feature-processing MACs averaged over the classified nodes."""
        return self.macs.feature_processing / max(self.num_nodes, 1)

    def time_per_node(self) -> float:
        """Total inference seconds averaged over the classified nodes."""
        return self.timings.total / max(self.num_nodes, 1)

    def feature_processing_time_per_node(self) -> float:
        """Feature-processing seconds averaged over the classified nodes."""
        return self.timings.feature_processing / max(self.num_nodes, 1)


class BatchEngine:
    """Executes Algorithm 1 for one batch; owns all mutable per-batch state.

    An engine shares the prepared **read-only** deployment state — the row
    source sampling reads, the stationary vectors and the trained
    classifiers — with its predictor (and with every sibling engine), while
    owning the **mutable** hot-path state privately: the grow-only double
    propagation buffers that :meth:`run_batch` writes into.  That split is what makes engines worker-ownable: the serving
    layer's pool gives each worker its own engine, so concurrent batches
    never contend on scratch memory, and merging the per-engine
    :class:`TimingBreakdown`/:class:`MACBreakdown` reproduces the sequential
    accounting exactly.

    Engines are *not* thread-safe individually — one engine runs one batch
    at a time.  Use one engine per worker.
    """

    def __init__(
        self,
        classifiers: Sequence[DepthwiseClassifier],
        policy: DistanceNAP | GateNAP | None,
        config: NAIConfig,
        rows: RowSource,
        stationary: StationaryState,
    ) -> None:
        # ``rows`` serves sampling only; run_batch reads nothing but the
        # stationary state and the bundle, so any row source will do.
        self.classifiers = list(classifiers)
        self.policy = policy
        self.config = config
        self.rows = rows
        self.stationary = stationary
        for classifier in self.classifiers:
            classifier.eval()
        # Grow-only double buffers reused across batches.
        self._buffer_a: np.ndarray | None = None
        self._buffer_b: np.ndarray | None = None
        #: Batches executed by this engine (used by pool-utilisation stats).
        self.batches_run = 0

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def build_support(self, batch: np.ndarray) -> SupportBundle:
        """Extract the cacheable sampling products for ``batch``.

        The bundle can be handed back to :meth:`run_batch` any number of
        times (by this or any sibling engine of the same predictor) — the
        serving subgraph cache relies on this to amortise sampling across
        recurring batches.
        """
        return build_support_bundle(self.rows, batch, self.config.t_max)

    @property
    def a_hat(self) -> sp.csr_matrix:
        """The normalized adjacency of an in-process row source."""
        return self.rows.a_hat

    # ------------------------------------------------------------------ #
    # One batch of Algorithm 1
    # ------------------------------------------------------------------ #
    def _batch_stationary(
        self, batch: np.ndarray, macs: MACBreakdown, timings: TimingBreakdown
    ) -> np.ndarray:
        """Line 2: stationary state of the batch, from the entire graph."""
        num_features = self.stationary.num_features
        start = time.perf_counter()
        stationary_batch = self.stationary.features_for(batch)
        timings.stationary += time.perf_counter() - start
        # The stationary state knows the deployment's global node count even
        # when the engine itself holds no full graph (sharded engines don't).
        macs.stationary += (
            self.stationary.num_nodes * num_features + batch.shape[0] * num_features
        )
        return stationary_batch

    def _propagation_buffers(self, num_local: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Views over the engine-owned double buffers, grown as needed.

        Stale contents from a previous batch are harmless: every row a depth
        step reads was either written by the previous step or (at depth 1)
        comes from the bundle's hop-0 features, never from the raw buffer.
        """
        dtype = self.config.np_dtype
        if (
            self._buffer_a is None
            or self._buffer_a.shape[0] < num_local
            or self._buffer_a.shape[1] != width
            or self._buffer_a.dtype != dtype
        ):
            self._buffer_a = np.empty((num_local, width), dtype=dtype)
            self._buffer_b = np.empty((num_local, width), dtype=dtype)
        assert self._buffer_b is not None
        return self._buffer_a[:num_local], self._buffer_b[:num_local]

    def run_batch(
        self,
        batch: np.ndarray,
        *,
        keep_logits: bool = False,
        bundle: SupportBundle | None = None,
    ) -> InferenceResult:
        """Classify one batch, optionally reusing a pre-built support bundle.

        Zero-copy masked-SpMM propagation with hop-indexed support pruning
        (see the module docstring).
        """
        batch = np.asarray(batch, dtype=np.int64)
        if batch.size == 0:
            raise ConfigurationError("run_batch requires at least one node")
        self.batches_run += 1
        cfg = self.config
        num_features = self.stationary.num_features
        macs = MACBreakdown()
        timings = TimingBreakdown()

        stationary_batch = self._batch_stationary(batch, macs, timings)

        # Line 3: supporting-node sampling up to T_max hops — or a replay of
        # a cached bundle, which skips the BFS, the local-CSR extraction and
        # the hop-0 feature gather (pure data movement; MACs are unaffected).
        if bundle is None:
            bundle = self.build_support(batch)
            timings.sampling += bundle.build_seconds
        support = bundle.support
        indptr, indices, data = bundle.indptr, bundle.indices, bundle.data
        num_local = support.num_supporting_nodes
        target_local = support.target_local

        predictions = np.full(batch.shape[0], -1, dtype=np.int64)
        assigned_depth = np.zeros(batch.shape[0], dtype=np.int64)
        logits_store: dict[int, np.ndarray] = {}
        remaining = np.arange(batch.shape[0])

        # Double propagation buffer: ``current`` always holds fresh values
        # for every row that can still influence a remaining target; rows
        # outside that set go stale but are provably never read again (the
        # needed sets are nested and closed under in-neighbours).  The
        # bundle's hop-0 rows are read-only — depth 1 reads them as the SpMM
        # source, so the buffers never need the feature copy the seed made.
        current, scratch = self._propagation_buffers(num_local, num_features)
        source: np.ndarray = bundle.local_features

        # Per-depth history of the *batch rows* only (needed by SIGN/S2GC/GAMLP).
        target_history: list[np.ndarray] = [bundle.local_features[target_local]]

        # Hop distance of every local row to the nearest *remaining* target.
        # While nobody has exited this is exactly ``support.hops`` — sorted by
        # construction, so the needed rows form a prefix and no BFS runs at
        # all.  After an exit event the distances are rebuilt once and depths
        # in between go back to pure thresholding.
        dist = support.hops
        prefix_mode = True
        dist_stale = False

        for depth in range(1, cfg.t_max + 1):
            # Rows within this many hops of a remaining target can still
            # influence one within the depths left to run.
            hop_budget = cfg.t_max - depth
            if dist_stale:
                dist = hop_distances(
                    indptr, indices, target_local[remaining], num_local, hop_budget
                )
                prefix_mode = False
                dist_stale = False
            start = time.perf_counter()
            # The bundle's local CSR columns are < num_local by construction
            # (extract_local_csr_arrays remaps and drops outside columns), so
            # the per-depth O(nnz) bounds rescan is skipped.
            if prefix_mode:
                runs = np.array([[0, support.prefix_within(hop_budget)]], dtype=np.int64)
                nnz = masked_row_spmm(
                    indptr, indices, data, source, scratch, runs, assume_bounded=True
                )
            else:
                nnz = auto_masked_spmm(
                    indptr, indices, data, source, scratch, dist <= hop_budget,
                    assume_bounded=True,
                )
            current, scratch = scratch, current
            source = current
            timings.propagation += time.perf_counter() - start
            macs.propagation += float(nnz) * num_features

            # Fancy indexing already yields a fresh array — no copy needed.
            target_history.append(current[target_local])

            if depth < cfg.t_min:
                continue

            if depth < cfg.t_max and self.policy is not None and remaining.size:
                start = time.perf_counter()
                propagated_remaining = current[target_local[remaining]]
                stationary_remaining = stationary_batch[remaining]
                exits = self.policy.should_exit(propagated_remaining, stationary_remaining, depth)
                timings.decision += time.perf_counter() - start
                macs.decision += self.policy.decision_macs_per_node(num_features) * remaining.size

                exiting = remaining[exits]
                if exiting.size:
                    self._classify(
                        exiting, depth, target_history, predictions, assigned_depth,
                        logits_store, batch, macs, timings, keep_logits,
                    )
                    remaining = remaining[~exits]
                    dist_stale = True
            elif depth == cfg.t_max and remaining.size:
                self._classify(
                    remaining, depth, target_history, predictions, assigned_depth,
                    logits_store, batch, macs, timings, keep_logits,
                )
                remaining = remaining[:0]

            if remaining.size == 0:
                break

        return InferenceResult(
            node_ids=batch,
            predictions=predictions,
            depths=assigned_depth,
            macs=macs,
            timings=timings,
            max_depth=cfg.t_max,
            logits=logits_store,
        )

    def _classify(
        self,
        local_positions: np.ndarray,
        depth: int,
        target_history: list[np.ndarray],
        predictions: np.ndarray,
        assigned_depth: np.ndarray,
        logits_store: dict[int, np.ndarray],
        batch: np.ndarray,
        macs: MACBreakdown,
        timings: TimingBreakdown,
        keep_logits: bool,
    ) -> None:
        """Classify the batch rows ``local_positions`` with ``f^(depth)``."""
        classifier = self.classifiers[depth - 1]
        inputs = [Tensor(history[local_positions]) for history in target_history[: depth + 1]]
        start = time.perf_counter()
        logits = classifier(inputs)
        timings.classification += time.perf_counter() - start
        macs.classification += classifier.classification_macs_per_node() * local_positions.size

        predicted = logits.data.argmax(axis=1)
        predictions[local_positions] = predicted
        assigned_depth[local_positions] = depth
        if keep_logits:
            for row, position in enumerate(local_positions):
                logits_store[int(batch[position])] = logits.data[row].copy()


class NAIPredictor:
    """Node-Adaptive Inference engine for a trained scalable-GNN backbone.

    Parameters
    ----------
    classifiers:
        ``[f^(1), ..., f^(k)]`` trained by
        :class:`~repro.core.distillation.InceptionDistillation` (or plain CE).
    policy:
        :class:`DistanceNAP`, :class:`GateNAP` or ``None`` (no early exit).
    config:
        Inference hyper-parameters (``T_min``, ``T_max``, ``T_s``, batch size).
    gamma:
        Convolution coefficient of Eq. (1); must match the training-time
        propagation.
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
            raise ConfigurationError("NAIPredictor needs at least one classifier")
        self.classifiers = list(classifiers)
        self.depth = len(self.classifiers)
        self.policy = policy
        self.gamma = gamma
        self.config = (config if config is not None else NAIConfig(t_min=self.depth, t_max=self.depth))
        self.config.validated_against_depth(self.depth)
        self._rows: LocalRowSource | None = None
        self._stationary: StationaryState | None = None
        self._engine: BatchEngine | None = None

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def prepare(self, graph: CSRGraph, features: np.ndarray) -> "NAIPredictor":
        """Deploy the predictor on the full inference-time graph.

        Builds the (global) normalized adjacency and caches the stationary
        state, all cast to ``config.dtype`` so the inference hot path runs in
        a single precision end to end.  Called once before any number of
        :meth:`predict` calls.
        """
        dtype = self.config.np_dtype
        features = np.ascontiguousarray(features, dtype=dtype)
        self._rows = LocalRowSource(
            graph,
            normalized_adjacency(graph, gamma=self.gamma).astype(dtype, copy=False),
            features,
        )
        self._stationary = compute_stationary_state(
            graph, features, gamma=self.gamma, dtype=dtype
        )
        self._engine = self.make_engine()
        return self

    def make_engine(self) -> BatchEngine:
        """Create a fresh :class:`BatchEngine` over the prepared state.

        Every engine shares the read-only deployment state (row source,
        stationary vectors, classifiers) but owns its propagation buffers
        privately, so one engine per worker thread runs concurrent batches
        without contention.  Requires :meth:`prepare`.
        """
        self._require_prepared()
        assert self._rows is not None and self._stationary is not None
        return BatchEngine(
            self.classifiers, self.policy, self.config, self._rows, self._stationary
        )

    @property
    def prepared(self) -> bool:
        """Whether :meth:`prepare` has deployed this predictor on a graph."""
        return self._rows is not None and self._stationary is not None

    def _require_prepared(self) -> None:
        if not self.prepared:
            raise NotFittedError("call NAIPredictor.prepare(graph, features) before predict")

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict(self, node_ids: np.ndarray, *, keep_logits: bool = False) -> InferenceResult:
        """Classify ``node_ids`` with node-adaptive propagation (Algorithm 1)."""
        self._require_prepared()
        engine = self._engine
        assert engine is not None
        return predict_in_batches(
            node_ids, self.config, lambda batch: engine, keep_logits=keep_logits
        )


def predict_in_batches(
    node_ids: np.ndarray,
    config: NAIConfig,
    engine_for: Callable[[np.ndarray], BatchEngine],
    *,
    keep_logits: bool = False,
) -> InferenceResult:
    """Classify ``node_ids`` in consecutive ``config.batch_size`` slices.

    ``engine_for(batch)`` names the engine that runs each batch; the
    per-batch breakdowns merge into one result.  Batch composition depends
    only on ``node_ids`` and the batch size, so every deployment that runs
    bit-identical batches returns bit-identical totals (MACs included).
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        raise ConfigurationError("predict requires at least one node")
    predictions = np.full(node_ids.shape[0], -1, dtype=np.int64)
    depths = np.zeros(node_ids.shape[0], dtype=np.int64)
    logits_store: dict[int, np.ndarray] = {}
    macs = MACBreakdown()
    timings = TimingBreakdown()

    # Batches are consecutive slices of ``node_ids``, so the results of
    # batch i land in the matching slice of the output arrays — no
    # per-node Python-dict position lookups.
    offset = 0
    for batch in batch_iterator(node_ids, config.batch_size):
        batch_result = engine_for(batch).run_batch(batch, keep_logits=keep_logits)
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
        max_depth=config.t_max,
        logits=logits_store,
    )
