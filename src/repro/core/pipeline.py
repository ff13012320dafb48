"""High-level NAI pipeline: train once, deploy many inference variants.

:class:`NAI` wires together the building blocks of the framework —
propagation precomputation, Inception Distillation, gate training, stationary
states and the Algorithm-1 inference engine — behind a small fit/predict API:

    >>> from repro import NAI, load_dataset
    >>> from repro.models import SGC
    >>> dataset = load_dataset("flickr-sim", scale=0.25)
    >>> backbone = SGC(dataset.num_features, dataset.num_classes, depth=4, rng=0)
    >>> nai = NAI(backbone, rng=0).fit(dataset)
    >>> result = nai.evaluate(dataset, policy="distance",
    ...                       config=nai.inference_config(t_max=4, distance_threshold=0.5))
    >>> result.accuracy(dataset.labels)  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.base import NodeClassificationDataset
from ..exceptions import ConfigurationError, NotFittedError
from ..models.base import DepthwiseClassifier, ScalableGNN
from .config import DistillationConfig, GateTrainingConfig, NAIConfig
from .distance_nap import DistanceNAP
from .distillation import DistillationResult, InceptionDistillation
from .gate_nap import GateNAP, GateTrainingHistory
from .inference import InferenceResult, NAIPredictor
from .stationary import compute_stationary_state
from .training import evaluate_classifier, predict_logits


@dataclass
class FitReport:
    """Summary of one :meth:`NAI.fit` call."""

    classifier_val_accuracy: dict[int, float] = field(default_factory=dict)
    gate_history: GateTrainingHistory | None = None
    distillation: DistillationResult | None = None


class NAI:
    """Node-Adaptive Inference framework around a scalable-GNN backbone.

    Parameters
    ----------
    backbone:
        Any :class:`~repro.models.base.ScalableGNN` (SGC, SIGN, S2GC, GAMLP).
    distillation_config:
        Inception-Distillation hyper-parameters; the defaults follow Table III.
    gate_config:
        Gate-training hyper-parameters (only used when gates are trained).
    train_gates:
        Whether to train the gate-based NAP alongside the distance-based one.
    rng:
        Randomness source shared by every training stage.
    """

    def __init__(
        self,
        backbone: ScalableGNN,
        *,
        distillation_config: DistillationConfig | None = None,
        gate_config: GateTrainingConfig | None = None,
        train_gates: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.backbone = backbone
        self.distillation_config = distillation_config or DistillationConfig()
        self.gate_config = gate_config or GateTrainingConfig()
        self.train_gates = train_gates
        self.rng = np.random.default_rng(rng)
        self.classifiers: list[DepthwiseClassifier] | None = None
        self.gate_nap: GateNAP | None = None
        self.report: FitReport | None = None
        self._val_distances: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, dataset: NodeClassificationDataset) -> "NAI":
        """Train per-depth classifiers (Inception Distillation) and gates."""
        partition = dataset.partition()
        observed_features = dataset.observed_features()
        observed_labels = dataset.observed_labels()
        train_graph = partition.train_graph

        propagated = self.backbone.precompute(train_graph, observed_features)
        labeled_local = partition.train_local(dataset.split.train_idx)
        val_local = partition.train_local(dataset.split.val_idx)
        distill_local = np.arange(train_graph.num_nodes)

        distiller = InceptionDistillation(
            self.backbone, config=self.distillation_config, rng=self.rng
        )
        distillation = distiller.train(
            propagated, observed_labels, labeled_local, distill_local, val_local
        )
        self.classifiers = distillation.classifiers

        report = FitReport(distillation=distillation)
        for depth, classifier in enumerate(self.classifiers, start=1):
            report.classifier_val_accuracy[depth] = evaluate_classifier(
                classifier, propagated, observed_labels, val_local
            )

        # Stationary state of the training graph, used for gate training and
        # for threshold calibration of the distance-based NAP.
        stationary = compute_stationary_state(
            train_graph, observed_features, gamma=self.backbone.gamma
        )

        if self.train_gates and self.backbone.depth >= 2:
            gate = GateNAP(
                self.backbone.num_features,
                self.backbone.depth,
                config=self.gate_config,
                rng=self.rng,
            )
            classifier_logits = [
                predict_logits(classifier, propagated, labeled_local)
                for classifier in self.classifiers
            ]
            gate_propagated = [matrix[labeled_local] for matrix in propagated]
            val_classifier_logits = [
                predict_logits(classifier, propagated, val_local)
                for classifier in self.classifiers
            ]
            val_propagated = [matrix[val_local] for matrix in propagated]
            report.gate_history = gate.fit(
                gate_propagated,
                stationary.features_for(labeled_local),
                classifier_logits,
                observed_labels[labeled_local],
                val_propagated=val_propagated,
                val_stationary=stationary.features_for(val_local),
                val_classifier_logits=val_classifier_logits,
                val_labels=observed_labels[val_local],
            )
            self.gate_nap = gate

        # Distance statistics on validation nodes, used by threshold helpers.
        val_stationary = stationary.features_for(val_local)
        distances = []
        for depth in range(1, self.backbone.depth + 1):
            diff = propagated[depth][val_local] - val_stationary
            distances.append(np.linalg.norm(diff, axis=1))
        self._val_distances = np.stack(distances, axis=0) if distances else None

        self.report = report
        return self

    def _require_fitted(self) -> None:
        if self.classifiers is None:
            raise NotFittedError("NAI.fit must be called before building predictors")

    # ------------------------------------------------------------------ #
    # Deployment helpers
    # ------------------------------------------------------------------ #
    def inference_config(
        self,
        *,
        t_min: int = 1,
        t_max: int | None = None,
        distance_threshold: float = 0.0,
        batch_size: int = 500,
        dtype: str = "float32",
    ) -> NAIConfig:
        """Build an :class:`NAIConfig` validated against the backbone depth.

        ``dtype`` selects the floating precision of the propagation hot path
        (the ``"float32"`` default halves its memory traffic; pass
        ``"float64"`` for full precision).
        """
        depth = self.backbone.depth if t_max is None else t_max
        config = NAIConfig(
            t_min=t_min,
            t_max=depth,
            distance_threshold=distance_threshold,
            batch_size=batch_size,
            dtype=dtype,
        )
        return config.validated_against_depth(self.backbone.depth)

    def suggest_distance_threshold(self, quantile: float) -> float:
        """Suggest ``T_s`` as a quantile of validation-node distances.

        ``quantile`` close to 1 produces aggressive early exits (speed-first);
        close to 0 keeps most nodes propagating (accuracy-first).
        """
        self._require_fitted()
        if self._val_distances is None or self._val_distances.size == 0:
            raise NotFittedError("no validation distance statistics available")
        if not 0.0 <= quantile <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0, 1], got {quantile}")
        return float(np.quantile(self._val_distances, quantile))

    def build_predictor(
        self,
        *,
        policy: str = "distance",
        config: NAIConfig | None = None,
    ) -> NAIPredictor:
        """Create an (unprepared) :class:`NAIPredictor`.

        Parameters
        ----------
        policy:
            ``"distance"`` (NAP_d), ``"gate"`` (NAP_g) or ``"none"``
            (fixed-depth inference, i.e. "NAI w/o NAP" / the vanilla model).
        config:
            Inference hyper-parameters; defaults to full-depth inference.
        """
        self._require_fitted()
        config = config if config is not None else self.inference_config()
        if policy == "distance":
            nap: DistanceNAP | GateNAP | None = DistanceNAP(config.distance_threshold)
        elif policy == "gate":
            if self.gate_nap is None:
                raise NotFittedError(
                    "gate-based NAP was not trained; construct NAI with train_gates=True"
                )
            nap = self.gate_nap
        elif policy == "none":
            nap = None
        else:
            raise ConfigurationError(
                f"unknown policy {policy!r}; expected 'distance', 'gate' or 'none'"
            )
        return NAIPredictor(
            self.classifiers, policy=nap, config=config, gamma=self.backbone.gamma
        )

    def evaluate(
        self,
        dataset: NodeClassificationDataset,
        *,
        policy: str = "distance",
        config: NAIConfig | None = None,
        node_ids: np.ndarray | None = None,
        keep_logits: bool = False,
    ) -> InferenceResult:
        """Run inductive inference on the dataset's unseen test nodes."""
        predictor = self.build_predictor(policy=policy, config=config)
        predictor.prepare(dataset.graph, dataset.features)
        targets = dataset.split.test_idx if node_ids is None else np.asarray(node_ids)
        return predictor.predict(targets, keep_logits=keep_logits)
