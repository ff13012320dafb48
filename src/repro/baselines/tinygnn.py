"""TinyGNN baseline (Yan et al., KDD 2020).

TinyGNN distils a deep GNN teacher into a *single-layer* GNN student whose
"peer-aware module" (PAM) runs self-attention over the 1-hop neighbourhood to
recover part of the information the missing deeper layers would have
provided.  Inference touches only 1-hop neighbours, but the attention
projections and score computations add substantial extra MACs — on
high-dimensional datasets TinyGNN can cost *more* MACs than the vanilla
model, exactly the effect Table V of the paper highlights.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.inference import InferenceResult, MACBreakdown, TimingBreakdown
from ..datasets.base import NodeClassificationDataset
from ..exceptions import ConfigurationError
from ..graph.normalization import NormalizationScheme, normalized_adjacency
from ..graph.sampling import k_hop_neighborhood
from ..models.base import mlp_macs_per_node
from ..nn import functional as F
from ..nn.modules import MLP, Linear, Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor, concatenate
from .base import DistillationTarget, InferenceBaseline, single_depth_result


class PeerAwareStudent(Module):
    """Single-hop student: attention-weighted neighbour aggregation + MLP head."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        *,
        attention_dim: int = 32,
        hidden_dims: tuple[int, ...] = (64,),
        dropout: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else np.random.default_rng()
        self.num_features = num_features
        self.num_classes = num_classes
        self.attention_dim = attention_dim
        self.query = Linear(num_features, attention_dim, rng=generator)
        self.key = Linear(num_features, attention_dim, rng=generator)
        self.head = MLP(
            2 * num_features, num_classes, hidden_dims, dropout=dropout, rng=generator
        )

    def forward(self, features: Tensor, propagated: Tensor, peer_scores: Tensor) -> Tensor:
        """Classify from raw features, 1-hop aggregation and the PAM summary."""
        combined = concatenate([features * peer_scores, propagated], axis=1)
        return self.head(combined)

    def peer_attention(self, features: Tensor, neighbour_mean: Tensor) -> Tensor:
        """Self-attention score between each node and its neighbourhood summary."""
        queries = self.query(features)
        keys = self.key(neighbour_mean)
        scores = (queries * keys).sum(axis=1, keepdims=True) * (
            1.0 / np.sqrt(self.attention_dim)
        )
        return scores.sigmoid()


class TinyGNN(InferenceBaseline):
    """Single-layer peer-aware GNN student distilled from a deep teacher."""

    name = "TinyGNN"

    def __init__(
        self,
        *,
        attention_dim: int = 32,
        hidden_dims: tuple[int, ...] = (64,),
        dropout: float = 0.1,
        distill_weight: float = 0.7,
        temperature: float = 1.0,
        epochs: int = 150,
        lr: float = 0.01,
        weight_decay: float = 0.0,
        gamma: str | float | NormalizationScheme = NormalizationScheme.SYMMETRIC,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if attention_dim < 1:
            raise ConfigurationError("attention_dim must be positive")
        self.attention_dim = attention_dim
        self.hidden_dims = tuple(hidden_dims)
        self.dropout = dropout
        self.distill_weight = distill_weight
        self.temperature = temperature
        self.epochs = epochs
        self.lr = lr
        self.weight_decay = weight_decay
        self.gamma = gamma
        self.rng = np.random.default_rng(rng)
        self.student: PeerAwareStudent | None = None
        self.history: dict[str, list[float]] | None = None

    # ------------------------------------------------------------------ #
    def _student_inputs(
        self,
        graph,
        features: np.ndarray,
        node_idx: np.ndarray,
    ) -> tuple[Tensor, Tensor, Tensor, float]:
        """Raw features, 1-hop propagation and PAM scores for ``node_idx``.

        Returns the three student inputs plus the propagation MAC count.
        """
        a_hat = normalized_adjacency(graph, gamma=self.gamma)
        rows = a_hat[node_idx]
        propagated = rows @ features
        macs = float(rows.nnz) * features.shape[1]
        raw = Tensor(features[node_idx])
        neighbour_mean = Tensor(np.asarray(propagated))
        scores = self.student.peer_attention(raw, neighbour_mean)
        return raw, neighbour_mean, scores, macs

    def fit(
        self,
        dataset: NodeClassificationDataset,
        teacher: DistillationTarget | None = None,
    ) -> "TinyGNN":
        partition = dataset.partition()
        train_graph = partition.train_graph
        features = dataset.observed_features()
        labels = dataset.observed_labels()
        labeled_local = partition.train_local(dataset.split.train_idx)
        val_local = partition.train_local(dataset.split.val_idx)
        distill_local = np.arange(train_graph.num_nodes)

        self.student = PeerAwareStudent(
            dataset.num_features,
            dataset.num_classes,
            attention_dim=self.attention_dim,
            hidden_dims=self.hidden_dims,
            dropout=self.dropout,
            rng=self.rng,
        )
        optimizer = Adam(self.student.parameters(), lr=self.lr, weight_decay=self.weight_decay)
        history: dict[str, list[float]] = {"loss": [], "val_accuracy": []}
        best_val, best_state, stale = -1.0, None, 0

        a_hat = normalized_adjacency(train_graph, gamma=self.gamma)
        propagated_all = np.asarray(a_hat @ features)

        for _ in range(self.epochs):
            self.student.train()
            optimizer.zero_grad()
            raw = Tensor(features[labeled_local])
            neigh = Tensor(propagated_all[labeled_local])
            scores = self.student.peer_attention(raw, neigh)
            logits = self.student(raw, neigh, scores)
            loss = F.cross_entropy(logits, labels[labeled_local]) * (1.0 - self.distill_weight)
            if teacher is not None and self.distill_weight > 0:
                raw_d = Tensor(features[distill_local])
                neigh_d = Tensor(propagated_all[distill_local])
                scores_d = self.student.peer_attention(raw_d, neigh_d)
                distill_logits = self.student(raw_d, neigh_d, scores_d)
                soft = F.soft_cross_entropy(
                    distill_logits * (1.0 / self.temperature),
                    teacher.probabilities[distill_local],
                )
                loss = loss + soft * (self.distill_weight * self.temperature ** 2)
            loss.backward()
            optimizer.step()
            history["loss"].append(float(loss.data))

            self.student.eval()
            raw_v = Tensor(features[val_local])
            neigh_v = Tensor(propagated_all[val_local])
            scores_v = self.student.peer_attention(raw_v, neigh_v)
            val_logits = self.student(raw_v, neigh_v, scores_v)
            val_acc = F.accuracy_from_logits(val_logits, labels[val_local])
            history["val_accuracy"].append(val_acc)
            if val_acc > best_val:
                best_val, best_state, stale = val_acc, self.student.state_dict(), 0
            else:
                stale += 1
            if stale >= 30:
                break

        if best_state is not None:
            self.student.load_state_dict(best_state)
        self.student.eval()
        self.history = history
        self.fitted = True
        return self

    # ------------------------------------------------------------------ #
    def predict(
        self,
        dataset: NodeClassificationDataset,
        node_ids: np.ndarray,
    ) -> InferenceResult:
        self._require_fitted()
        node_ids = np.asarray(node_ids, dtype=np.int64)
        macs = MACBreakdown()
        timings = TimingBreakdown()

        # 1-hop supporting nodes (sampling is timed but costs no MACs).
        start = time.perf_counter()
        support = k_hop_neighborhood(
            dataset.graph, node_ids, 1, include_adjacency=False
        )
        timings.sampling += time.perf_counter() - start

        start = time.perf_counter()
        raw, neighbour_mean, scores, propagation_macs = self._student_inputs(
            dataset.graph, dataset.features, node_ids
        )
        timings.propagation += time.perf_counter() - start
        macs.propagation += propagation_macs
        # Peer-aware attention: two projections per supporting node plus the
        # score inner product per target node.
        macs.decision += (
            2.0 * self.student.num_features * self.attention_dim * support.num_supporting_nodes
            + self.attention_dim * node_ids.shape[0]
        )

        start = time.perf_counter()
        logits = self.student(raw, neighbour_mean, scores)
        timings.classification += time.perf_counter() - start
        macs.classification += (
            mlp_macs_per_node(
                2 * dataset.num_features, self.hidden_dims, dataset.num_classes
            )
            * node_ids.shape[0]
        )
        predictions = logits.data.argmax(axis=1)
        return single_depth_result(node_ids, predictions, macs=macs, timings=timings, depth=1)
