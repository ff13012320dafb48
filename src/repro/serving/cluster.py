"""One fluent entry point for standing up a sharded serving fleet.

Standing a fleet up means walking three layers — prepare the
:class:`~repro.shard.ShardedPredictor`, wire its store (transport, replica
rails, feature tiers, tracer), then wrap a :class:`~repro.shard.ShardRouter`
around it.  :class:`ClusterBuilder` is the one public way to do that, behind
one declarative chain::

    router = (
        ClusterBuilder(predictor)
        .graph(graph, features)
        .shards(4)
        .replicated(rails=2)
        .tiered_features(budget_bytes=1 << 20)
        .traced(tracer)
        .wave(width=4)
        .build()
    )
    with router:
        responses = router.predict_many(request_stream)

Every step records intent; nothing touches the predictor until
:meth:`ClusterBuilder.build`, which applies the steps in dependency order
(prepare → transport → feature tiers → router) and returns the
:class:`~repro.shard.ShardRouter` itself.  The store's own setters are
internal; the one other supported hook is
:meth:`~repro.shard.ShardedPredictor.use_transport`, for swapping the fetch
backend of an already-prepared predictor.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..core.config import ServingConfig, ShardConfig
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # runtime imports are lazy — repro.shard imports this package
    from ..shard.predictor import ShardedPredictor
    from ..shard.router import ShardRouter

__all__ = ["ClusterBuilder"]


class ClusterBuilder:
    """Fluent facade over predictor preparation, store wiring and routing.

    Each chained call stores a declaration and returns ``self``;
    :meth:`build` materializes the fleet.  A builder is single-shot —
    reusing it after ``build()`` raises, because the predictor it
    configured is now owned by the returned router.
    """

    def __init__(
        self,
        predictor: ShardedPredictor,
        serving_config: ServingConfig | None = None,
    ) -> None:
        self._predictor = predictor
        self._serving_config = serving_config
        self._graph = None
        self._features = None
        self._shard_config: ShardConfig | None = None
        self._plan = None
        self._transport = None
        self._replicated: dict | None = None
        self._tiered: dict | None = None
        self._tracer = None
        self._wave_width: int | None = None
        self._clock = None
        self._built = False

    # -- declarations ---------------------------------------------------- #
    def graph(self, graph, features) -> "ClusterBuilder":
        """Deploy onto ``graph``/``features`` (required unless prepared)."""
        self._graph = graph
        self._features = features
        return self

    def shards(
        self, num_shards: int, *, strategy: str = "degree_balanced", **kwargs
    ) -> "ClusterBuilder":
        """Partition into ``num_shards`` shards (``ShardConfig`` knobs pass through)."""
        self._shard_config = ShardConfig(
            num_shards=num_shards, strategy=strategy, **kwargs
        )
        return self

    def plan(self, plan) -> "ClusterBuilder":
        """Deploy onto a pre-built :class:`~repro.shard.partitioner.ShardPlan`.

        The versioned-rollout path: prepare the successor deployment onto
        ``plan`` (typically ``active_plan.with_version(...)``) and hand the
        built predictor to the live router's
        :meth:`~repro.shard.ShardRouter.install_plan`.
        """
        self._plan = plan
        return self

    def transport(self, transport) -> "ClusterBuilder":
        """Fetch through ``transport`` — an instance, or a callable of the store.

        Subsumes ``prepare(transport=...)``.
        Mutually exclusive with :meth:`replicated`, which builds its own
        transport.
        """
        self._transport = transport
        return self

    def replicated(self, rails=None, **kwargs) -> "ClusterBuilder":
        """Fetch through replica rails (:class:`~repro.transport.ReplicatedTransport` knobs).

        ``rails`` is an int (build that many in-process rails), a list of
        :class:`~repro.transport.ShardTransport` rails, a callable taking
        the prepared store and returning such a list (for rails that wrap
        the store's own shard blocks), or ``None`` (one rail per
        ``plan.max_replication``).
        """
        self._replicated = {"rails": rails, **kwargs}
        return self

    def tiered_features(self, budget_bytes: int, **kwargs) -> "ClusterBuilder":
        """Cap resident feature rows fleet-wide (``storage_dir``/``degree_weight`` pass through)."""
        self._tiered = {"budget_bytes": budget_bytes, **kwargs}
        return self

    def traced(self, tracer) -> "ClusterBuilder":
        """Attach one tracer to the router, servers, store and transport."""
        self._tracer = tracer
        return self

    def wave(self, width: int) -> "ClusterBuilder":
        """Fuse up to ``width`` ready micro-batches per engine sweep.

        Sets ``ServingConfig.wave_width`` on every per-shard server (see
        :mod:`repro.serving.wave` for the equivalence and MAC-attribution
        contract).
        """
        self._wave_width = width
        return self

    def serving(self, config: ServingConfig) -> "ClusterBuilder":
        """Use ``config`` for every per-shard server (else the default)."""
        self._serving_config = config
        return self

    def clock(self, clock) -> "ClusterBuilder":
        """Drive every server off ``clock`` (tests use a FakeClock)."""
        self._clock = clock
        return self

    # -- materialization ------------------------------------------------- #
    def build_predictor(self) -> "ShardedPredictor":
        """Apply every declaration except routing; returns the predictor.

        The generation-build entry point: a versioned rollout (or an
        :class:`~repro.obs.AutoRebalancer` build callable) needs a fully
        wired successor predictor to hand to
        :meth:`~repro.shard.router.ShardRouter.install_plan`, while the
        *existing* router keeps serving.  Consumes the builder like
        :meth:`build`; serving-only declarations (``serving``, ``wave``,
        ``clock``) are ignored here — they belong to the
        router the predictor will join.
        """
        predictor = self._configure_predictor()
        self._built = True
        return predictor

    def build(self) -> "ShardRouter":
        """Apply the declarations in dependency order; returns the fleet's router."""
        predictor = self._configure_predictor()
        serving_config = (
            self._serving_config
            if self._serving_config is not None
            else ServingConfig()
        )
        if self._wave_width is not None:
            serving_config = replace(serving_config, wave_width=self._wave_width)
        from ..shard.router import ShardRouter

        router = ShardRouter(
            predictor,
            serving_config,
            clock=self._clock,
            tracer=self._tracer,
        )
        self._built = True
        return router

    def _configure_predictor(self) -> "ShardedPredictor":
        """Prepare the predictor and wire its store per the declarations."""
        if self._built:
            raise ConfigurationError(
                "this ClusterBuilder already built its fleet; create a new "
                "builder per fleet"
            )
        if self._transport is not None and self._replicated is not None:
            raise ConfigurationError(
                "transport(...) and replicated(...) are mutually exclusive: "
                "the replicated rails *are* the transport"
            )
        predictor = self._predictor
        if not predictor.prepared:
            if self._graph is None or self._features is None:
                raise ConfigurationError(
                    "the predictor is not prepared: give the builder "
                    ".graph(graph, features) (and .shards(k))"
                )
            if self._shard_config is None:
                raise ConfigurationError(
                    "the predictor is not prepared: give the builder "
                    ".shards(num_shards)"
                )
            predictor.prepare(
                self._graph,
                self._features,
                self._shard_config,
                plan=self._plan,
            )
        elif self._graph is not None or self._shard_config is not None:
            raise ConfigurationError(
                "the predictor is already prepared; drop .graph()/.shards() "
                "or pass an unprepared predictor"
            )
        store = predictor.store
        if self._transport is not None:
            transport = self._transport
            if callable(transport) and not hasattr(transport, "fetch"):
                transport = transport(store)
            store._set_transport(transport)
        elif self._replicated is not None:
            spec = dict(self._replicated)
            rails = spec.pop("rails", None)
            if callable(rails):
                rails = rails(store)
            elif isinstance(rails, int):
                from ..transport import LocalTransport

                rails = [LocalTransport(store.shards) for _ in range(rails)]
            store._set_replicated_transport(rails, **spec)
        if self._tiered is not None:
            store._set_tiered_features(**self._tiered)
        return predictor

