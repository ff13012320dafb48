"""Sharded graph store: per-shard CSR blocks with halo maps, a row source.

Construction (``ShardedGraphStore.from_graph``) is the offline partitioning
job: it has the full graph, splits it under a :class:`ShardPlan` and builds
one :class:`GraphShard` per partition — after which the store retains **no**
full-graph state beyond O(n) ownership vectors.  Each shard holds:

* the raw adjacency rows of its owned nodes (structure only, for BFS
  frontier expansion and shard-local degree computation);
* the *normalized* adjacency rows ``Â = D̃^(γ−1) Ã D̃^(−γ)``, whose values
  are computed shard-locally from owned degrees plus the **halo-exchanged**
  degrees of ghost columns — bit-identical to the single-process
  :func:`~repro.graph.normalization.normalized_adjacency` because the
  per-entry formula ``(d_i^(γ−1) · ã_ij) · d_j^(−γ)`` is evaluated in the
  same association and dtype;
* the feature rows and the degree vector of its owned nodes — the O(n)
  stationary state split the ROADMAP sharding item asks for.

Columns of both blocks are numbered within ``col_global`` — the *sorted*
union of owned and halo ids.  Sorted local numbering is load-bearing: it
keeps every row's entries in ascending-global-column order, exactly as the
global CSR stores them, so the rows a shard serves are the global rows
array-for-array (same CSR entry order, same values) and the fused engine's
per-row summation order — hence predictions — cannot drift.

Serving is the online path.  :meth:`ShardedGraphStore.row_source` binds the
store to a home shard as a :class:`~repro.graph.sampling.RowSource`, and the
one support builder (:func:`~repro.graph.sampling.build_support_bundle`)
runs over it: each BFS hop asks the owners of the frontier for their
neighbours, then one round fetches the batch's Â rows (stitched into one
local CSR in hop order) and one round its hop-0 features.  Every fetch goes
through a pluggable :class:`~repro.transport.ShardTransport` — in-process
zero-copy by default (:class:`~repro.transport.LocalTransport`), swappable
for the TCP backend (:class:`~repro.transport.SocketTransport`) or the
fault-injecting test wrapper via
:class:`~repro.serving.cluster.ClusterBuilder` — and each call's per-shard
requests form one transport *round*, which is the unit the socket backend
pipelines.  Per-shard fetch counters (:class:`ShardTraffic`) quantify the
cross-shard rows *and bytes* a networked deployment pays.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..core.config import ShardConfig
from ..exceptions import GraphConstructionError
from ..graph.kernels import _flat_nnz_positions, select_local_csr
from ..graph.normalization import NormalizationScheme, resolve_gamma
from ..graph.sparse import CSRGraph
from ..transport import LocalTransport, ShardTransport
from ..transport.base import (
    OP_ADJACENCY,
    OP_DEGREES,
    OP_FEATURES,
    OP_FRONTIER,
    payload_nbytes,
)
from .partitioner import GraphPartitioner, ShardPlan


@dataclass
class GraphShard:
    """One partition's local state: row blocks, halo maps, features, degrees.

    Attributes
    ----------
    shard_id:
        This shard's index in the plan.
    owned:
        Sorted global ids of the nodes this shard owns (its rows).
    col_global:
        Sorted global ids of every column its rows reference — owned nodes
        plus the halo.  Local column ``c`` means global ``col_global[c]``.
    halo:
        The ghost nodes: ``col_global`` minus ``owned``.  Their degrees were
        fetched from their owners during the build (the halo exchange); at
        serving time their feature rows and adjacency rows are fetched the
        same way during cross-shard bundle assembly.
    adj_indptr / adj_indices:
        Raw adjacency rows (no self loops, structure only) in local column
        numbering — the BFS substrate.
    nrm_indptr / nrm_indices / nrm_data:
        Normalized-adjacency rows in local column numbering, values in the
        deployment dtype.
    features:
        Feature rows of the owned nodes (deployment dtype, C-contiguous).
    degrees_with_loops:
        ``d_i + 1`` of the owned nodes (float64, computed shard-locally from
        the full local rows) — this shard's slice of the stationary state.
    """

    shard_id: int
    owned: np.ndarray
    col_global: np.ndarray
    halo: np.ndarray
    adj_indptr: np.ndarray
    adj_indices: np.ndarray
    nrm_indptr: np.ndarray
    nrm_indices: np.ndarray
    nrm_data: np.ndarray
    features: np.ndarray
    degrees_with_loops: np.ndarray

    @property
    def num_owned(self) -> int:
        return int(self.owned.shape[0])

    @property
    def num_halo(self) -> int:
        return int(self.halo.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident bytes of this shard's state (the per-shard footprint)."""
        arrays = (
            self.owned,
            self.col_global,
            self.halo,
            self.adj_indptr,
            self.adj_indices,
            self.nrm_indptr,
            self.nrm_indices,
            self.nrm_data,
            self.features,
            self.degrees_with_loops,
        )
        return int(sum(a.nbytes for a in arrays))


#: Transport op -> the (local, remote) :class:`ShardTraffic` row counters.
_TRAFFIC_COUNTERS = {
    OP_FRONTIER: ("frontier_cols_local", "frontier_cols_remote"),
    OP_ADJACENCY: ("adjacency_rows_local", "adjacency_rows_remote"),
    OP_FEATURES: ("feature_rows_local", "feature_rows_remote"),
    OP_DEGREES: ("degree_rows_local", "degree_rows_remote"),
}


@dataclass
class ShardTraffic:
    """Counters of cross-shard data movement during bundle assembly.

    "Remote" means the fetched row's owner differs from the requesting
    batch's home shard — the rows a networked deployment would ship over the
    wire.  Counted only when callers pass a home shard.

    ``bytes_local`` / ``bytes_remote`` account the *payloads* of those
    fetches — request row ids out plus response arrays back — i.e. the
    bytes-on-the-wire a networked transport moves for the same fetches
    (framing overhead excluded; the socket backend's
    :class:`~repro.transport.TransportStats` adds the framed totals).
    """

    bundles_assembled: int = 0
    adjacency_rows_local: int = 0
    adjacency_rows_remote: int = 0
    feature_rows_local: int = 0
    feature_rows_remote: int = 0
    frontier_cols_local: int = 0
    frontier_cols_remote: int = 0
    degree_rows_local: int = 0
    degree_rows_remote: int = 0
    bytes_local: int = 0
    bytes_remote: int = 0

    def count(self, op: str, local: bool, rows: int, nbytes: int) -> None:
        """Fold one request/response pair of ``op`` into the counters."""
        name = _TRAFFIC_COUNTERS[op][0 if local else 1]
        setattr(self, name, getattr(self, name) + rows)
        if local:
            self.bytes_local += nbytes
        else:
            self.bytes_remote += nbytes

    def as_dict(self) -> dict:
        remote = self.adjacency_rows_remote + self.feature_rows_remote
        local = self.adjacency_rows_local + self.feature_rows_local
        total_bytes = self.bytes_local + self.bytes_remote
        return {
            "bundles_assembled": self.bundles_assembled,
            "adjacency_rows_local": self.adjacency_rows_local,
            "adjacency_rows_remote": self.adjacency_rows_remote,
            "feature_rows_local": self.feature_rows_local,
            "feature_rows_remote": self.feature_rows_remote,
            "frontier_cols_local": self.frontier_cols_local,
            "frontier_cols_remote": self.frontier_cols_remote,
            "degree_rows_local": self.degree_rows_local,
            "degree_rows_remote": self.degree_rows_remote,
            "remote_row_fraction": remote / (remote + local) if remote + local else 0.0,
            "bytes_local": self.bytes_local,
            "bytes_remote": self.bytes_remote,
            "remote_byte_fraction": (
                self.bytes_remote / total_bytes if total_bytes else 0.0
            ),
        }


@dataclass
class ShardedGraphStore:
    """Owns the shards and serves their rows to the support builder."""

    plan: ShardPlan
    shards: list[GraphShard]
    num_nodes: int
    num_features: int
    num_edges: int
    gamma: float
    dtype: np.dtype
    traffic: ShardTraffic = field(default_factory=ShardTraffic)

    def __post_init__(self) -> None:
        # global id -> row within its owner's block, for O(1) routing.
        local_row = np.full(self.num_nodes, -1, dtype=np.int64)
        for shard in self.shards:
            local_row[shard.owned] = np.arange(shard.num_owned, dtype=np.int64)
        self._local_row = local_row
        # The store is shared by every shard server's dispatcher and worker
        # threads; traffic counters are read-modify-write and need the lock
        # to stay exact (the benchmark records them).
        self._traffic_lock = threading.Lock()
        # All online fetches route through the transport; the default is the
        # in-process zero-copy backend (today's behavior).
        self._transport: ShardTransport = LocalTransport(self.shards)
        # Optional request tracing: when a tracer is attached *and* the
        # calling thread has an active trace context, every transport round
        # becomes a ``fetch.round`` span (see repro.obs).
        self._tracer = None
        # Populated by _set_tiered_features: one TieredFeatureStore per shard.
        self._feature_tiers: list = []

    # ------------------------------------------------------------------ #
    # Transport plumbing
    # ------------------------------------------------------------------ #
    @property
    def transport(self) -> ShardTransport:
        """The backend every online fetch (BFS, rows, features) goes through."""
        return self._transport

    def _set_transport(self, transport: ShardTransport) -> "ShardedGraphStore":
        """Swap the fetch backend (local / socket / fault-injecting).

        The transport must reach exactly this store's shards; bundles are
        bit-identical across backends because every backend answers with the
        same arrays (see :mod:`repro.transport`).  Internal: configure
        fleets through :class:`~repro.serving.cluster.ClusterBuilder`.
        """
        if transport.num_shards != self.num_shards:
            raise GraphConstructionError(
                f"transport reaches {transport.num_shards} shards, store has "
                f"{self.num_shards}"
            )
        self._transport = transport
        if self._tracer is not None:
            transport.use_tracer(self._tracer)
        return self

    def _set_tracer(self, tracer) -> "ShardedGraphStore":
        """Attach a :class:`~repro.obs.Tracer` to the fetch path.

        Each transport round issued while the calling thread holds an active
        trace context (the serving layer activates one per support build /
        engine run) is recorded as a ``fetch.round`` span carrying the
        per-shard row counts; the transport itself also receives the tracer
        so the socket backend can propagate ids over the wire and the
        replicated backend can mark retries and failovers.  ``None`` detaches.
        Internal: configure fleets through
        :class:`~repro.serving.cluster.ClusterBuilder`.
        """
        self._tracer = tracer
        self._transport.use_tracer(tracer)
        return self

    def _set_replicated_transport(
        self,
        rails=None,
        *,
        retry_policy=None,
        clock=None,
        probe_after_rounds: int = 4,
        route_by: str = "rows",
        latency_window_seconds: float = 30.0,
    ) -> "ShardedGraphStore":
        """Route fetches through replica rails under the plan's replica map.

        ``rails`` is one full :class:`~repro.transport.ShardTransport` per
        replica rail; ``None`` builds ``plan.max_replication`` in-process
        :class:`~repro.transport.LocalTransport` rails over this store's own
        shard blocks (shared, read-only — the in-process stand-in for a
        replicated fleet).  Returns the store; the installed transport is a
        :class:`~repro.transport.ReplicatedTransport` honoring
        ``plan.replicas``, ``retry_policy`` and ``probe_after_rounds``;
        ``route_by="latency"`` spreads reads by windowed per-replica
        latency instead of rows served (see
        :class:`~repro.transport.ReplicatedTransport`).
        """
        from ..transport.replica import ReplicatedTransport

        if rails is None:
            rails = [
                LocalTransport(self.shards)
                for _ in range(self.plan.max_replication)
            ]
        # An unreplicated plan places every shard on every provided rail.
        return self._set_transport(
            ReplicatedTransport(
                rails,
                self.plan.replicas,
                retry_policy=retry_policy,
                clock=clock,
                probe_after_rounds=probe_after_rounds,
                route_by=route_by,
                latency_window_seconds=latency_window_seconds,
            )
        )

    def _set_tiered_features(
        self,
        budget_bytes: int,
        *,
        storage_dir: str | None = None,
        degree_weight: float = 4.0,
    ) -> "ShardedGraphStore":
        """Swap every shard's feature matrix for a tiered hot/cold store.

        ``budget_bytes`` is the fleet-wide RAM budget for resident feature
        rows, split across shards proportionally to their owned-row counts
        (each shard gets at least one row).  Hot rows live in an
        admission-controlled cache (aged access frequency plus
        ``degree_weight``-scaled log-degree bias — hub rows, the ones
        node-adaptive propagation hits constantly, win admission); cold
        rows are served from an ``np.memmap`` spill file under
        ``storage_dir`` (default: the system temp dir).  Feature fetches
        remain bit-identical; ``memory_report()`` gains per-shard tier
        residency.  Every transport backend picks the tier up for free:
        :func:`~repro.transport.base.answer_from_shard` indexes
        ``shard.features`` the same way it indexed the ndarray.
        """
        from .feature_store import TieredFeatureRows, TieredFeatureStore

        if self._feature_tiers:
            raise GraphConstructionError("features are already tiered")
        if budget_bytes < 1:
            raise GraphConstructionError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        total_rows = sum(shard.num_owned for shard in self.shards)
        tiers = []
        for shard in self.shards:
            matrix = np.asarray(shard.features)
            share = (
                int(budget_bytes * shard.num_owned / total_rows)
                if total_rows
                else budget_bytes
            )
            store = TieredFeatureStore(
                matrix,
                budget_bytes=max(share, int(matrix.itemsize * matrix.shape[1])),
                degrees=shard.degrees_with_loops,
                degree_weight=degree_weight,
                storage_dir=storage_dir,
            )
            shard.features = TieredFeatureRows(store)
            tiers.append(store)
        self._feature_tiers = tiers
        return self

    @property
    def feature_tiers(self) -> list:
        """The per-shard tiered feature stores (empty when not tiered)."""
        return list(self._feature_tiers)

    def _fetch_round(
        self, op: str, node_ids: np.ndarray, home_shard: int | None
    ) -> list[tuple[np.ndarray, object]]:
        """One owner-grouped transport round of ``op`` over ``node_ids``.

        Groups the ids by owner, issues every owner's request as one
        (traced) round, counts the traffic against ``home_shard`` and
        returns ``(mask, response)`` per owner — ``mask`` selects the owner's
        ids within ``node_ids``.  Owners come in ascending shard id, so
        stitched outputs do not depend on the backend's answer order.
        """
        owners = self.plan.owner[node_ids]
        local_rows = self._local_row[node_ids]
        requests = []
        for shard_id in range(self.num_shards):
            mask = owners == shard_id
            if mask.any():
                requests.append((shard_id, mask, local_rows[mask]))
        if not requests:
            return []
        responses = self._traced_fetch(
            op, [(shard_id, rows) for shard_id, _, rows in requests]
        )
        if home_shard is not None:
            with self._traffic_lock:
                for (shard_id, _, rows), response in zip(requests, responses):
                    self.traffic.count(
                        op, shard_id == home_shard, int(rows.shape[0]),
                        int(rows.nbytes) + payload_nbytes(response),
                    )
        return [(mask, response) for (_, mask, _), response in zip(requests, responses)]

    def _traced_fetch(self, op: str, requests: list) -> list:
        """Issue one transport round, as a ``fetch.round`` span when traced.

        The span is a child of the calling thread's active context (the
        support-build or engine-compute span the serving layer activated)
        and carries the round's per-shard row counts — the raw material of
        :meth:`repro.obs.CriticalPathAnalyzer.shard_load`.  While the round
        runs, the span's own context is active, so the socket client stamps
        its ids onto every frame and the replicated transport parents its
        retry/failover events correctly.
        """
        fetch = getattr(self._transport, op)
        tracer = self._tracer
        if tracer is None:
            return fetch(requests)
        ctx = tracer.child(tracer.current())
        if ctx is None:
            return fetch(requests)
        start = tracer.clock.now()
        with tracer.activate(ctx):
            payloads = fetch(requests)
        tracer.emit(
            "fetch.round",
            ctx,
            start,
            tracer.clock.now(),
            op=op,
            shards=[int(shard_id) for shard_id, _ in requests],
            rows=[int(np.asarray(rows).shape[0]) for _, rows in requests],
        )
        return payloads

    # ------------------------------------------------------------------ #
    # Construction (the offline partitioning job)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls,
        graph: CSRGraph,
        features: np.ndarray,
        config: ShardConfig,
        *,
        gamma: str | float | NormalizationScheme = NormalizationScheme.SYMMETRIC,
        dtype: np.dtype | str = np.float32,
        plan: ShardPlan | None = None,
    ) -> "ShardedGraphStore":
        """Partition ``graph`` and build the per-shard blocks.

        The normalized-adjacency values are computed *per shard* from owned
        degrees plus halo-exchanged ghost degrees, in the same elementwise
        association the global :func:`normalized_adjacency` uses, so the
        distributed blocks are bit-identical to slices of the global Â.
        """
        dtype = np.dtype(dtype)
        if features.ndim != 2 or features.shape[0] != graph.num_nodes:
            raise GraphConstructionError(
                f"features must have shape (n, f) with n={graph.num_nodes}, "
                f"got {features.shape}"
            )
        if plan is None:
            plan = GraphPartitioner(config).partition(graph)
        coeff = resolve_gamma(gamma)
        features = np.ascontiguousarray(features, dtype=dtype)

        adjacency = graph.adjacency
        a_tilde = graph.add_self_loops().adjacency
        # Global D̃ row sums exist only transiently here, standing in for the
        # per-owner degree service a networked build would query; every shard
        # reads exactly its owned + halo slice of it.
        deg_tilde = np.asarray(a_tilde.sum(axis=1)).ravel()

        shards = []
        for shard_id in range(plan.num_shards):
            owned = plan.owned[shard_id]
            shards.append(
                cls._build_shard(
                    shard_id, owned, adjacency, a_tilde, deg_tilde, features,
                    coeff, dtype,
                )
            )
        return cls(
            plan=plan,
            shards=shards,
            num_nodes=graph.num_nodes,
            num_features=int(features.shape[1]),
            num_edges=graph.num_edges,
            gamma=coeff,
            dtype=dtype,
        )

    @staticmethod
    def _build_shard(
        shard_id: int,
        owned: np.ndarray,
        adjacency: sp.csr_matrix,
        a_tilde: sp.csr_matrix,
        deg_tilde: np.ndarray,
        features: np.ndarray,
        coeff: float,
        dtype: np.dtype,
    ) -> GraphShard:
        index_dtype = adjacency.indices.dtype

        # Raw adjacency rows (structure + shard-local degree computation).
        adj_flat, adj_row_ends = _flat_nnz_positions(adjacency.indptr, owned)
        adj_indptr = np.concatenate(([0], adj_row_ends)).astype(index_dtype)
        adj_cols_global = adjacency.indices[adj_flat].astype(np.int64)

        # Normalized rows: Ã structure (adds the diagonal).
        nrm_flat, nrm_row_ends = _flat_nnz_positions(a_tilde.indptr, owned)
        nrm_indptr = np.concatenate(([0], nrm_row_ends)).astype(index_dtype)
        nrm_cols_global = a_tilde.indices[nrm_flat].astype(np.int64)

        # Local column space: sorted union of owned and referenced columns.
        # Sorted order preserves each row's ascending-column entry order.
        col_global = np.union1d(owned, nrm_cols_global)
        halo = np.setdiff1d(col_global, owned, assume_unique=True)

        # Shard-local degree computation over the full local rows (the
        # edge-cut keeps complete rows, halo columns included), matching
        # scipy's row-sum accumulation of the global graph entry for entry.
        local_block = sp.csr_matrix(
            (
                adjacency.data[adj_flat],
                np.searchsorted(col_global, adj_cols_global),
                adj_indptr.astype(np.int64),
            ),
            shape=(owned.shape[0], col_global.shape[0]),
        )
        degrees_with_loops = np.asarray(local_block.sum(axis=1)).ravel() + 1.0

        # Halo exchange: ghost-column D̃ degrees come from their owners; the
        # left factor uses owned degrees only.  The per-entry association
        # ``(left_i * ã_ij) * right_j`` mirrors scipy's diag @ Ã @ diag.
        deg_cols = deg_tilde[col_global]
        safe_cols = np.where(deg_cols > 0, deg_cols, 1.0)
        deg_own = deg_tilde[owned]
        safe_own = np.where(deg_own > 0, deg_own, 1.0)
        left_own = np.power(safe_own, coeff - 1.0)
        right_cols = np.power(safe_cols, -coeff)
        nrm_indices = np.searchsorted(col_global, nrm_cols_global)
        lengths = np.diff(nrm_indptr.astype(np.int64))
        nrm_data = (
            (np.repeat(left_own, lengths) * a_tilde.data[nrm_flat])
            * right_cols[nrm_indices]
        ).astype(dtype)

        return GraphShard(
            shard_id=shard_id,
            owned=owned,
            col_global=col_global,
            halo=halo,
            adj_indptr=adj_indptr,
            adj_indices=np.searchsorted(col_global, adj_cols_global).astype(index_dtype),
            nrm_indptr=nrm_indptr,
            nrm_indices=nrm_indices.astype(index_dtype),
            nrm_data=nrm_data,
            features=np.ascontiguousarray(features[owned]),
            degrees_with_loops=degrees_with_loops,
        )

    # ------------------------------------------------------------------ #
    # Routing helpers
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def owner_of(self, node_ids: np.ndarray) -> np.ndarray:
        return self.plan.shard_of(node_ids)

    def local_rows(self, node_ids: np.ndarray) -> np.ndarray:
        """Row of each node within its owner's block."""
        return self._local_row[np.asarray(node_ids, dtype=np.int64)]

    def row_source(self, home_shard: int | None = None) -> "ShardRowSource":
        """This store as a :class:`~repro.graph.sampling.RowSource`.

        Traffic is counted against ``home_shard`` — the shard whose workers
        build the bundles; ``None`` counts no rows (bundles still count).
        """
        return ShardRowSource(self, home_shard)

    def fetch_degrees(
        self, node_ids: np.ndarray, *, home_shard: int | None = None
    ) -> np.ndarray:
        """``d_i + 1`` of ``node_ids`` (float64), fetched from their owners.

        The degree fetch of the stationary protocol expressed through the
        transport — a networked coordinator reads halo degrees this way
        during the shard build and can re-verify owner slices at runtime.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size and (
            node_ids.min() < 0 or node_ids.max() >= self.num_nodes
        ):
            raise GraphConstructionError("node ids out of range")
        out = np.empty(node_ids.shape[0], dtype=np.float64)
        for mask, response in self._fetch_round(OP_DEGREES, node_ids, home_shard):
            out[mask] = response
        return out

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def memory_report(self) -> dict:
        """Per-shard resident bytes and halo sizes (benchmark surface)."""
        report = {
            "num_shards": self.num_shards,
            "strategy": self.plan.strategy,
            "cut_edges": self.plan.cut_edges,
            "per_shard": [
                {
                    "shard": shard.shard_id,
                    "owned_nodes": shard.num_owned,
                    "halo_nodes": shard.num_halo,
                    "halo_fraction": (
                        shard.num_halo / shard.num_owned if shard.num_owned else 0.0
                    ),
                    "nbytes": shard.nbytes,
                }
                for shard in self.shards
            ],
            "max_shard_nbytes": max(shard.nbytes for shard in self.shards),
            "total_halo_nodes": sum(shard.num_halo for shard in self.shards),
        }
        if self._feature_tiers:
            tiers = [store.report() for store in self._feature_tiers]
            report["feature_tiers"] = tiers
            report["feature_budget_bytes"] = sum(
                tier["budget_bytes"] for tier in tiers
            )
            report["feature_resident_nbytes"] = sum(
                tier["resident_nbytes"] for tier in tiers
            )
            report["feature_peak_resident_nbytes"] = sum(
                tier["peak_resident_nbytes"] for tier in tiers
            )
            report["feature_cold_nbytes"] = sum(
                tier["cold_nbytes"] for tier in tiers
            )
        return report


class ShardRowSource:
    """A :class:`ShardedGraphStore` bound to a home shard, as a row source.

    Every call is one owner-grouped transport round (a ``fetch.round`` span
    when traced), so a bundle of depth ``k`` costs at most ``k`` frontier
    rounds, one Â-row round and one feature round whatever the backend.
    Responses arrive in global ids with each row's entries in ascending
    global-column order — the global CSR's order — so the stitched arrays
    equal :class:`~repro.graph.sampling.LocalRowSource`'s array for array.
    """

    def __init__(self, store: ShardedGraphStore, home_shard: int | None = None) -> None:
        self.store = store
        self.home_shard = home_shard

    @property
    def num_nodes(self) -> int:
        return self.store.num_nodes

    def neighbors(self, frontier: np.ndarray) -> np.ndarray:
        pieces = [
            response
            for _, response in self.store._fetch_round(OP_FRONTIER, frontier, self.home_shard)
        ]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        if len(pieces) == 1:
            return np.asarray(pieces[0], dtype=np.int64)
        return np.concatenate(pieces)

    def local_csr(
        self, node_ids: np.ndarray, lookup: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stitch per-owner Â rows into ``Â[node_ids][:, node_ids]`` form.

        The owners' answers, concatenated, form one CSR block holding the
        nodes' rows in owner order; selecting them back in node order is
        the same kernel the in-process source runs on the global Â.
        """
        store = self.store
        answers = store._fetch_round(OP_ADJACENCY, node_ids, self.home_shard)
        lengths = np.concatenate([np.asarray(adj.lengths) for _, adj in answers])
        in_owner_order = np.concatenate([np.flatnonzero(mask) for mask, _ in answers])
        position = np.empty(node_ids.shape[0], dtype=np.int64)
        position[in_owner_order] = np.arange(node_ids.shape[0], dtype=np.int64)
        return select_local_csr(
            np.concatenate(([0], np.cumsum(lengths))),
            np.concatenate([adj.columns for _, adj in answers]),
            np.concatenate([adj.data for _, adj in answers]),
            position,
            lookup,
            store.shards[0].nrm_indices.dtype,
        )

    def feature_rows(self, node_ids: np.ndarray) -> np.ndarray:
        """Hop-0 feature rows; answering them completes a bundle."""
        store = self.store
        out = np.empty((node_ids.shape[0], store.num_features), dtype=store.dtype)
        for mask, response in store._fetch_round(OP_FEATURES, node_ids, self.home_shard):
            out[mask] = response
        with store._traffic_lock:
            store.traffic.bundles_assembled += 1
        return out
