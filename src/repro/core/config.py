"""Configuration dataclasses for training, distillation and NAI inference."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for training one classifier (or the gate stack).

    Mirrors Table III / IV of the paper: learning rate, weight decay and the
    number of optimisation epochs.
    """

    epochs: int = 150
    lr: float = 0.01
    weight_decay: float = 0.0
    patience: int = 30
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.patience < 1:
            raise ConfigurationError(f"patience must be positive, got {self.patience}")

    def with_updates(self, **kwargs) -> "TrainingConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DistillationConfig:
    """Hyper-parameters of Inception Distillation (Section III-C).

    Attributes
    ----------
    temperature_single / lambda_single:
        ``T`` and ``λ`` of the Single-Scale Distillation loss (Eq. 17).
    temperature_multi / lambda_multi:
        ``T`` and ``λ`` of the Multi-Scale Distillation loss (Eq. 19).
    ensemble_size:
        ``r`` — how many of the deepest classifiers vote in the ensemble
        teacher (Eq. 18).
    enable_single_scale / enable_multi_scale:
        Ablation switches used by Table VIII.
    """

    temperature_single: float = 1.2
    lambda_single: float = 0.6
    temperature_multi: float = 1.9
    lambda_multi: float = 0.8
    ensemble_size: int = 3
    enable_single_scale: bool = True
    enable_multi_scale: bool = True
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self) -> None:
        for name in ("temperature_single", "temperature_multi"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("lambda_single", "lambda_multi"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
        if self.ensemble_size < 1:
            raise ConfigurationError(f"ensemble_size must be positive, got {self.ensemble_size}")

    def with_updates(self, **kwargs) -> "DistillationConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class NAIConfig:
    """Inference-time hyper-parameters of Algorithm 1.

    Attributes
    ----------
    t_min / t_max:
        Minimum and maximum propagation depth (``1 ≤ T_min ≤ T_max ≤ k``).
    distance_threshold:
        ``T_s`` — the smoothness threshold of the distance-based NAP.  Nodes
        whose distance to the stationary state drops below it are classified
        immediately.  Ignored by the gate-based NAP.
    batch_size:
        Inference batch size (the paper's default is 500).
    dtype:
        Floating dtype of the propagation hot path.  The default
        ``"float32"`` halves the memory traffic of the sparse kernels and is
        validated prediction-identical on the synthetic suite and on the
        quantized baseline path; pass ``"float64"`` to restore full
        precision.  Classifier weights stay float64, so logits are computed
        in double precision either way.
    """

    t_min: int = 1
    t_max: int = 1
    distance_threshold: float = 0.0
    batch_size: int = 500
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.t_min < 1:
            raise ConfigurationError(f"t_min must be at least 1, got {self.t_min}")
        if self.t_max < self.t_min:
            raise ConfigurationError(
                f"t_max ({self.t_max}) must be >= t_min ({self.t_min})"
            )
        if self.distance_threshold < 0:
            raise ConfigurationError("distance_threshold must be non-negative")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigurationError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )

    @property
    def np_dtype(self):
        """The numpy dtype object corresponding to :attr:`dtype`."""
        import numpy as np

        return np.dtype(self.dtype)

    def validated_against_depth(self, depth: int) -> "NAIConfig":
        """Check the config against a backbone of maximum depth ``depth``."""
        if self.t_max > depth:
            raise ConfigurationError(
                f"t_max ({self.t_max}) exceeds the backbone propagation depth ({depth})"
            )
        return self

    def with_updates(self, **kwargs) -> "NAIConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the online serving subsystem (:mod:`repro.serving`).

    Attributes
    ----------
    num_workers:
        Size of the inference worker pool.  Each worker owns a private
        :class:`~repro.core.inference.BatchEngine` (its own double buffers
        and raw CSR state), so independent micro-batches run concurrently.
    max_batch_size:
        Node budget of one micro-batch: the dynamic batcher coalesces queued
        requests until adding the next one would exceed this many nodes.  A
        single request larger than the budget still forms its own batch.
    max_wait_ms:
        Latency budget of the batcher: once the oldest queued request has
        waited this long, the micro-batch is dispatched regardless of fill.
        ``0`` dispatches whatever is queued immediately (latency-first).
    batch_policy:
        Which :class:`~repro.serving.BatchController` steers the batcher's
        limits.  ``"static"`` (default) keeps ``max_batch_size`` /
        ``max_wait_ms`` fixed — the pre-controller behavior.
        ``"marginal_latency"`` fits an online per-batch cost model from
        measured service times and picks the widest batch (up to the
        ceilings below) whose estimated latency stays under
        ``latency_slo_ms``.  Policies change batching only — served
        predictions, exit depths and per-batch MAC accounting semantics are
        policy-independent.
    batch_size_ceiling:
        Upper bound the adaptive policy may widen ``max_batch_size`` to.
        ``0`` (default) means "same as ``max_batch_size``" — no widening.
    wait_ms_ceiling:
        Upper bound the adaptive policy may stretch ``max_wait_ms`` to.
        ``0`` (default) means "same as ``max_wait_ms``".
    latency_slo_ms:
        Per-request latency target of the ``"marginal_latency"`` policy
        (must be positive when that policy is selected; ignored otherwise).
    queue_capacity:
        Bound of the request queue, counted in requests.
    overflow_policy:
        What happens when a request arrives at a full queue: ``"block"``
        (default) makes the submitter wait, ``"reject"`` raises
        :class:`~repro.exceptions.BackpressureError` at the submitter, and
        ``"shed_oldest"`` admits the new request by failing the oldest
        queued one with :class:`~repro.exceptions.BackpressureError`.
    cache_capacity:
        Number of supporting-subgraph bundles the LRU
        :class:`~repro.serving.SubgraphCache` retains (``0`` disables
        caching).  Streaming workloads that replay recurring batches skip
        sampling entirely on a hit.  Keys are canonical (sorted node ids +
        depth), so permuted repeats of the same node-set hit too.
    result_cache_capacity:
        Opt-in result-level LRU (:class:`~repro.serving.ResultCache`;
        default ``0`` = disabled): micro-batches whose canonical node-set
        was served before are answered from the recorded result without
        touching a worker.  Replayed work is accounted separately from
        computed work in :class:`~repro.serving.ServingStatsSnapshot`
        (``macs`` vs ``replayed_macs``), keeping the computed-MAC numbers
        honest.
    prefetch_depth:
        Number of fetcher threads — and of support fetches outstanding — in
        the asynchronous prefetch pipeline
        (:class:`~repro.serving.prefetch.PrefetchPipeline`).  ``0``
        (default) resolves a subgraph-cache miss inline on the dispatcher,
        serializing transport fetch with compute.  Positive values hand
        each missed dispatch unit to a background fetcher, which runs the
        same resolve step, so unit N+1's cross-shard fetch rounds overlap
        unit N's compute; served results stay bit-identical (bundles are
        canonical-key interchangeable and sampling executes no MACs).
        Requires the supporting-subgraph cache, i.e. the fused engine and
        ``cache_capacity > 0``; composes with any ``wave_width``.
    wave_width:
        Maximum number of ready micro-batches the dispatcher fuses into one
        dispatch unit (a cross-request **wave**, :mod:`repro.serving.wave`).
        After the first coalesced micro-batch it drains, without waiting,
        up to ``wave_width - 1`` more that are already formed; ``1``
        (default) therefore always dispatches units of one.  A unit of two
        or more runs a single propagation sweep over the union support and
        scatters per-request results back — bit-identical to isolated
        execution, with shared propagation MACs attributed pro-rata to the
        member batches.  Values above 1 require the fused engine.
    """

    num_workers: int = 4
    max_batch_size: int = 256
    max_wait_ms: float = 2.0
    batch_policy: str = "static"
    batch_size_ceiling: int = 0
    wait_ms_ceiling: float = 0.0
    latency_slo_ms: float = 0.0
    queue_capacity: int = 1024
    overflow_policy: str = "block"
    cache_capacity: int = 64
    result_cache_capacity: int = 0
    prefetch_depth: int = 0
    wave_width: int = 1

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be positive, got {self.num_workers}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be non-negative, got {self.max_wait_ms}"
            )
        if self.batch_policy not in ("static", "marginal_latency"):
            raise ConfigurationError(
                "batch_policy must be 'static' or 'marginal_latency', "
                f"got {self.batch_policy!r}"
            )
        if self.batch_size_ceiling and self.batch_size_ceiling < self.max_batch_size:
            raise ConfigurationError(
                f"batch_size_ceiling ({self.batch_size_ceiling}) must be 0 "
                f"(= max_batch_size) or >= max_batch_size ({self.max_batch_size})"
            )
        if self.wait_ms_ceiling and self.wait_ms_ceiling < self.max_wait_ms:
            raise ConfigurationError(
                f"wait_ms_ceiling ({self.wait_ms_ceiling}) must be 0 "
                f"(= max_wait_ms) or >= max_wait_ms ({self.max_wait_ms})"
            )
        if self.latency_slo_ms < 0:
            raise ConfigurationError(
                f"latency_slo_ms must be non-negative, got {self.latency_slo_ms}"
            )
        if self.batch_policy == "marginal_latency" and self.latency_slo_ms == 0:
            raise ConfigurationError(
                "the 'marginal_latency' policy needs a positive latency_slo_ms"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.overflow_policy not in ("block", "reject", "shed_oldest"):
            raise ConfigurationError(
                "overflow_policy must be 'block', 'reject' or 'shed_oldest', "
                f"got {self.overflow_policy!r}"
            )
        if self.cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be non-negative, got {self.cache_capacity}"
            )
        if self.result_cache_capacity < 0:
            raise ConfigurationError(
                f"result_cache_capacity must be non-negative, got "
                f"{self.result_cache_capacity}"
            )
        if self.prefetch_depth < 0:
            raise ConfigurationError(
                f"prefetch_depth must be non-negative, got {self.prefetch_depth}"
            )
        if self.wave_width < 1:
            raise ConfigurationError(
                f"wave_width must be positive, got {self.wave_width}"
            )

    def with_updates(self, **kwargs) -> "ServingConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded graph store (:mod:`repro.shard`).

    Attributes
    ----------
    num_shards:
        Number of shards the node set is partitioned into.  ``1`` keeps the
        whole graph in one shard (useful as the sharded-path oracle).
    strategy:
        ``"hash"`` (default) assigns nodes by a deterministic multiplicative
        hash of the node id — stateless, so any party can compute ownership
        without the partition table.  ``"degree_balanced"`` greedily assigns
        nodes in decreasing-degree order to the shard with the least
        accumulated degree (LPT scheduling), balancing per-shard *edge* load
        on skewed-degree graphs at the cost of an explicit owner table.
    replication_factor:
        Baseline number of read replicas per shard in the plan's replica
        map.  ``1`` (default) means no redundancy — the plan still carries a
        (trivial) replica map, so the replicated transport path works
        uniformly.
    hot_shard_boost:
        Extra replicas granted to *hot* shards on top of
        ``replication_factor``.  Node-adaptive propagation concentrates
        traffic on hub-heavy shards; boosting only those keeps the replica
        budget where the load is.  ``0`` (default) replicates uniformly.
    hot_shard_fraction:
        Fraction of shards (by accumulated degree load, ties to the lower
        shard id) that count as hot.  At least one shard is hot whenever
        ``hot_shard_boost > 0``.
    """

    num_shards: int = 2
    strategy: str = "hash"
    replication_factor: int = 1
    hot_shard_boost: int = 0
    hot_shard_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if self.strategy not in ("hash", "degree_balanced"):
            raise ConfigurationError(
                f"strategy must be 'hash' or 'degree_balanced', got "
                f"{self.strategy!r}"
            )
        if self.replication_factor < 1:
            raise ConfigurationError(
                f"replication_factor must be positive, got "
                f"{self.replication_factor}"
            )
        if self.hot_shard_boost < 0:
            raise ConfigurationError(
                f"hot_shard_boost must be non-negative, got {self.hot_shard_boost}"
            )
        if not 0.0 < self.hot_shard_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_shard_fraction must lie in (0, 1], got "
                f"{self.hot_shard_fraction}"
            )

    def with_updates(self, **kwargs) -> "ShardConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs of the health monitor / SLO / auto-rebalance loop
    (:mod:`repro.obs.monitor`, :mod:`repro.obs.slo`,
    :mod:`repro.obs.rebalance`).

    All durations are measured on the injectable
    :class:`~repro.serving.clock.Clock` — under a
    :class:`~repro.serving.clock.FakeClock` the "1m"/"1h" burn windows are
    virtual-time equivalents, which is what makes the whole control loop
    deterministic in tests.

    Attributes
    ----------
    window_seconds:
        Span of the sliding windows behind every ``*_window`` gauge.
    num_buckets:
        Sub-window buckets per sliding window; expiry granularity is
        ``window_seconds / num_buckets``.
    cadence_seconds:
        Minimum spacing between :meth:`~repro.obs.monitor.HealthMonitor.
        maybe_tick` snapshots.
    sample_cap:
        Retained distribution samples per window (oldest buckets evict
        whole; within a bucket excess samples are dropped and counted).
    latency_slo_threshold_seconds:
        Per-request latency above this counts against the latency SLO's
        error budget.  ``0`` disables the latency SLO.
    error_slo_budget_fraction:
        Allowed fraction of failed requests.  ``0`` disables the error SLO.
    burn_rate_threshold:
        Both windows must burn the budget faster than this multiple for the
        alert condition to hold.
    resolve_after_seconds:
        How long the condition must stay clear before ``firing`` resolves
        (hysteresis against flapping).
    min_alert_events:
        Fast-window event floor below which no alert fires (a single slow
        request in an idle window is not an incident).
    cooldown_seconds:
        Minimum spacing between auto-rebalance plan installs.
    """

    window_seconds: float = 60.0
    num_buckets: int = 12
    cadence_seconds: float = 5.0
    sample_cap: int = 4096
    latency_slo_threshold_seconds: float = 0.0
    error_slo_budget_fraction: float = 0.0
    burn_rate_threshold: float = 1.0
    resolve_after_seconds: float = 30.0
    min_alert_events: int = 8
    cooldown_seconds: float = 120.0

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ConfigurationError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.num_buckets < 1:
            raise ConfigurationError(
                f"num_buckets must be positive, got {self.num_buckets}"
            )
        if self.cadence_seconds < 0:
            raise ConfigurationError(
                f"cadence_seconds must be non-negative, got {self.cadence_seconds}"
            )
        if self.sample_cap < 1:
            raise ConfigurationError(
                f"sample_cap must be positive, got {self.sample_cap}"
            )
        if self.latency_slo_threshold_seconds < 0:
            raise ConfigurationError(
                f"latency_slo_threshold_seconds must be non-negative, got "
                f"{self.latency_slo_threshold_seconds}"
            )
        if not 0.0 <= self.error_slo_budget_fraction < 1.0:
            raise ConfigurationError(
                f"error_slo_budget_fraction must lie in [0, 1), got "
                f"{self.error_slo_budget_fraction}"
            )
        if self.burn_rate_threshold <= 0:
            raise ConfigurationError(
                f"burn_rate_threshold must be positive, got "
                f"{self.burn_rate_threshold}"
            )
        if self.resolve_after_seconds < 0:
            raise ConfigurationError(
                f"resolve_after_seconds must be non-negative, got "
                f"{self.resolve_after_seconds}"
            )
        if self.min_alert_events < 1:
            raise ConfigurationError(
                f"min_alert_events must be positive, got {self.min_alert_events}"
            )
        if self.cooldown_seconds < 0:
            raise ConfigurationError(
                f"cooldown_seconds must be non-negative, got "
                f"{self.cooldown_seconds}"
            )

    def with_updates(self, **kwargs) -> "MonitorConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class GateTrainingConfig:
    """Hyper-parameters for training the NAP gates (Section III-A2)."""

    epochs: int = 60
    lr: float = 0.01
    weight_decay: float = 0.0
    gumbel_temperature: float = 1.0
    penalty_mu: float = 1000.0
    penalty_phi: float = 1000.0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.gumbel_temperature <= 0:
            raise ConfigurationError("gumbel_temperature must be positive")
        if self.penalty_mu <= 0 or self.penalty_phi <= 0:
            raise ConfigurationError("penalty constants must be positive")

    def with_updates(self, **kwargs) -> "GateTrainingConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)
