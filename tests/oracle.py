"""The naive Algorithm-1 engine, kept as the test oracle of ``BatchEngine``.

:class:`ReferenceEngine` is the seed implementation: a fresh BFS and a
fancy-indexed CSR submatrix per depth, a full feature-matrix copy per
propagation step.  It shares nothing with the shipped hot path except the
stationary lookup (``_batch_stationary``) and the classifier call
(``_classify``), so agreement on predictions, exit depths and MAC totals
checks the shipped engine's support pruning, masked SpMM and exit
bookkeeping against an independent derivation.

Import it from any test module as ``from oracle import ...`` (this
directory is on ``sys.path`` through its ``conftest.py``).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.core.inference import (
    BatchEngine,
    InferenceResult,
    MACBreakdown,
    TimingBreakdown,
)
from repro.graph.sampling import SupportBundle, batch_iterator


class ReferenceEngine(BatchEngine):
    """Per-depth BFS plus fancy-indexed submatrices; never reuses a bundle."""

    def run_batch(
        self,
        batch: np.ndarray,
        *,
        keep_logits: bool = False,
        bundle: SupportBundle | None = None,
    ) -> InferenceResult:
        assert bundle is None, "the oracle resamples from the full graph"
        batch = np.asarray(batch, dtype=np.int64)
        self.batches_run += 1
        cfg = self.config
        num_features = self.rows.features.shape[1]
        macs = MACBreakdown()
        timings = TimingBreakdown()

        stationary_batch = self._batch_stationary(batch, macs, timings)

        start = time.perf_counter()
        node_ids, target_local, local_adj = self._support(batch, cfg.t_max)
        timings.sampling += time.perf_counter() - start
        local_features = self.rows.features[node_ids]

        predictions = np.full(batch.shape[0], -1, dtype=np.int64)
        assigned_depth = np.zeros(batch.shape[0], dtype=np.int64)
        logits_store: dict[int, np.ndarray] = {}
        remaining = np.arange(batch.shape[0])
        target_history = [local_features[target_local].copy()]
        current = local_features

        for depth in range(1, cfg.t_max + 1):
            # Which local rows can still influence a remaining target within
            # the depths left to run?  (BFS from the remaining targets.)
            needed = self._rows_needed(local_adj, target_local[remaining], cfg.t_max - depth)
            start = time.perf_counter()
            updated = np.array(current, copy=True)
            rows = np.flatnonzero(needed)
            updated[rows] = local_adj[rows] @ current
            current = updated
            timings.propagation += time.perf_counter() - start
            macs.propagation += float(local_adj[rows].nnz) * num_features
            target_history.append(current[target_local].copy())

            if depth < cfg.t_min:
                continue
            if depth < cfg.t_max and self.policy is not None and remaining.size:
                start = time.perf_counter()
                exits = self.policy.should_exit(
                    current[target_local[remaining]], stationary_batch[remaining], depth
                )
                timings.decision += time.perf_counter() - start
                macs.decision += self.policy.decision_macs_per_node(num_features) * remaining.size
                if exits.any():
                    self._classify(
                        remaining[exits], depth, target_history, predictions, assigned_depth,
                        logits_store, batch, macs, timings, keep_logits,
                    )
                    remaining = remaining[~exits]
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

    def _support(
        self, batch: np.ndarray, depth: int
    ) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """Hop-ordered supporting nodes, batch positions and local ``Â``.

        Per-hop scipy row slicing with ``np.unique`` deduplication and a
        Python-dict local index, as the seed sampled.
        """
        adjacency = self.rows.graph.adjacency
        visited = np.zeros(self.rows.num_nodes, dtype=bool)
        frontier = np.unique(batch)
        visited[frontier] = True
        order = [frontier]
        for _ in range(depth):
            neighbor_ids = adjacency[frontier].indices
            frontier = np.unique(neighbor_ids[~visited[neighbor_ids]])
            if frontier.size == 0:
                break
            visited[frontier] = True
            order.append(frontier)
        node_ids = np.concatenate(order)
        local_index = {int(g): i for i, g in enumerate(node_ids)}
        target_local = np.asarray([local_index[int(t)] for t in batch], dtype=np.int64)
        return node_ids, target_local, self.rows.a_hat[node_ids][:, node_ids].tocsr()

    @staticmethod
    def _rows_needed(
        local_adj: sp.csr_matrix, target_rows: np.ndarray, remaining_depth: int
    ) -> np.ndarray:
        """Local rows within ``remaining_depth`` hops of the remaining targets."""
        needed = np.zeros(local_adj.shape[0], dtype=bool)
        if target_rows.size == 0:
            return needed
        needed[target_rows] = True
        frontier = np.unique(target_rows)
        for _ in range(remaining_depth):
            neighbors = local_adj[frontier].indices
            frontier = np.unique(neighbors[~needed[neighbors]])
            needed[frontier] = True
        return needed


def oracle_engine(predictor) -> ReferenceEngine:
    """A :class:`ReferenceEngine` over a prepared ``NAIPredictor``'s state."""
    engine = predictor.make_engine()
    return ReferenceEngine(
        engine.classifiers, engine.policy, engine.config, engine.rows, engine.stationary,
    )


def oracle_predict(predictor, node_ids: np.ndarray) -> InferenceResult:
    """The oracle's answer, batched exactly as ``NAIPredictor.predict`` batches."""
    engine = oracle_engine(predictor)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    results = [
        engine.run_batch(batch)
        for batch in batch_iterator(node_ids, predictor.config.batch_size)
    ]
    macs = MACBreakdown()
    timings = TimingBreakdown()
    for result in results:
        macs = macs.merged_with(result.macs)
        timings = timings.merged_with(result.timings)
    return InferenceResult(
        node_ids=node_ids,
        predictions=np.concatenate([r.predictions for r in results]),
        depths=np.concatenate([r.depths for r in results]),
        macs=macs,
        timings=timings,
        max_depth=predictor.config.t_max,
    )
