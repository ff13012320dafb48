"""Supporting-node sampling for inductive inference.

When a batch of unseen nodes is classified with propagation depth ``k``, the
features of every node within ``k`` hops of the batch (the *supporting nodes*)
are touched.  This module extracts those neighbourhoods and builds the local
sub-adjacency over which online propagation runs — the number of supporting
nodes is exactly the quantity the paper's acceleration attacks.

Hot-path architecture
---------------------
:func:`k_hop_neighborhood` returns the local nodes **sorted by hop distance**
(targets first, then the hop-1 frontier, and so on).  The inference engine
relies on this ordering: the set of rows within ``h`` hops of the targets is
always a *prefix* of the local row range, so per-depth support pruning is a
single ``searchsorted`` over :attr:`SupportingSubgraph.hops` instead of a BFS
(see :mod:`repro.graph.kernels` and :mod:`repro.core.inference`).  All index
maps are vectorised numpy inverse permutations — no Python dict lookups.

Row sources
-----------
The BFS and the bundle builder read the graph through a :class:`RowSource`:
one round of neighbour ids per hop, one round of local ``Â`` rows and one
round of hop-0 feature rows per bundle.  :class:`LocalRowSource` answers
from one process's graph, ``Â`` and features;
:class:`~repro.shard.store.ShardRowSource` answers from a sharded store
through its transport.  Both hand back the same arrays, so one BFS and one
builder serve every deployment bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np
import scipy.sparse as sp

from ..exceptions import GraphConstructionError
from .kernels import (
    extract_local_csr_arrays,
    extract_submatrix,
    gather_columns,
    global_to_local_map,
)
from .sparse import CSRGraph


@dataclass(frozen=True)
class SupportingSubgraph:
    """A k-hop neighbourhood extracted for a batch of target nodes.

    Attributes
    ----------
    node_ids:
        Global ids of all nodes in the subgraph, **sorted by hop distance**
        from the batch (targets occupy the leading positions).
    target_local:
        Local indices (into ``node_ids``) of the batch targets.
    adjacency:
        Local adjacency matrix restricted to ``node_ids``, or ``None`` when
        the caller requested ``include_adjacency=False`` (the inference
        engine extracts the *normalized* adjacency itself and never needs
        this one).
    hops:
        The hop distance from the batch at which each local node was first
        reached (0 for targets).  Non-decreasing by construction.
    global_to_local:
        Inverse-permutation map of length ``num_nodes`` with
        ``global_to_local[node_ids[i]] == i`` and ``-1`` elsewhere.
    """

    node_ids: np.ndarray
    target_local: np.ndarray
    adjacency: sp.csr_matrix | None
    hops: np.ndarray
    global_to_local: np.ndarray | None = None

    @property
    def num_supporting_nodes(self) -> int:
        """Total number of nodes touched, including the targets themselves."""
        return int(self.node_ids.shape[0])

    def prefix_within(self, hop: int) -> int:
        """Number of leading local rows within ``hop`` hops of the targets.

        Because ``hops`` is sorted, the rows needing an update at a given
        remaining depth form the prefix ``[0, prefix_within(h))`` — this is
        the hop-indexed support pruning used by the fused inference engine.
        """
        return int(np.searchsorted(self.hops, hop, side="right"))

    def as_graph(self) -> CSRGraph:
        """Wrap the local adjacency in a :class:`CSRGraph`."""
        if self.adjacency is None:
            raise GraphConstructionError(
                "this SupportingSubgraph was extracted with include_adjacency=False"
            )
        return CSRGraph(self.adjacency)


class RowSource(Protocol):
    """Where the support builder reads graph rows from, one round per call.

    ``neighbors`` serves one BFS hop, ``local_csr`` the batch's local ``Â``
    and ``feature_rows`` its hop-0 features.  Answers are in global ids and
    the deployment dtype, and every source returns the same arrays for the
    same ids, so the bundle does not depend on which source built it.
    """

    @property
    def num_nodes(self) -> int: ...

    def neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated global neighbour ids of ``frontier`` (duplicates kept)."""

    def local_csr(
        self, node_ids: np.ndarray, lookup: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw ``(indptr, indices, data)`` of ``Â[node_ids][:, node_ids]``.

        ``lookup`` is the graph-sized map from global id to local row
        (``-1`` outside ``node_ids``).
        """

    def feature_rows(self, node_ids: np.ndarray) -> np.ndarray:
        """The C-contiguous feature rows of ``node_ids``, in order."""


class LocalRowSource:
    """The in-process row source: one graph, its ``Â`` and its features.

    ``a_hat`` and ``features`` may be ``None`` when only the BFS runs.
    """

    def __init__(
        self,
        graph: CSRGraph,
        a_hat: sp.csr_matrix | None = None,
        features: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.a_hat = a_hat
        self.features = features

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def neighbors(self, frontier: np.ndarray) -> np.ndarray:
        adjacency = self.graph.adjacency
        return gather_columns(adjacency.indptr, adjacency.indices, frontier)

    def local_csr(
        self, node_ids: np.ndarray, lookup: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return extract_local_csr_arrays(self.a_hat, node_ids, lookup=lookup)

    def feature_rows(self, node_ids: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.features[node_ids])


def k_hop_neighborhood(
    source: CSRGraph | RowSource,
    targets: np.ndarray,
    depth: int,
    *,
    include_adjacency: bool = True,
) -> SupportingSubgraph:
    """Extract the ``depth``-hop supporting subgraph around ``targets``.

    Parameters
    ----------
    source:
        The full graph (train nodes plus unseen test nodes), or any
        :class:`RowSource` — one ``neighbors`` round per hop.
    targets:
        Global node ids of the inference batch.
    depth:
        Maximum propagation depth ``T_max``; supporting nodes further than
        this many hops away cannot influence the batch.
    include_adjacency:
        When false, skip building the local adjacency matrix (the inference
        engine only needs the node ordering and hop distances — it extracts
        the normalized adjacency itself, so building this one would double
        the sampling cost).  Only an in-process graph can build it.
    """
    rows = LocalRowSource(source) if isinstance(source, CSRGraph) else source
    num_nodes = rows.num_nodes
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise GraphConstructionError("k_hop_neighborhood requires a non-empty batch")
    if targets.min() < 0 or targets.max() >= num_nodes:
        raise GraphConstructionError("target node ids out of range")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if include_adjacency and not isinstance(rows, LocalRowSource):
        raise GraphConstructionError("a local adjacency needs an in-process graph")

    visited = np.zeros(num_nodes, dtype=bool)
    newly = np.zeros(num_nodes, dtype=bool)
    hop_of = np.full(num_nodes, -1, dtype=np.int64)
    frontier = np.unique(targets)
    visited[frontier] = True
    hop_of[frontier] = 0
    order = [frontier]
    for hop in range(1, depth + 1):
        if frontier.size == 0:
            break
        # All neighbours of the current frontier in one round; the boolean
        # scatter deduplicates them without the sort that np.unique would
        # pay on the (duplicate-heavy) neighbour list, and emits the new
        # frontier ascending whatever order the source answered in.
        neighbor_ids = rows.neighbors(frontier)
        neighbor_ids = neighbor_ids[~visited[neighbor_ids]]
        if neighbor_ids.size == 0:
            frontier = neighbor_ids
            continue
        newly[neighbor_ids] = True
        new = np.flatnonzero(newly)
        newly[new] = False
        visited[new] = True
        hop_of[new] = hop
        order.append(new)
        frontier = new

    node_ids = np.concatenate(order)
    lookup = global_to_local_map(node_ids, num_nodes)
    target_local = lookup[targets]
    local_adj = None
    if include_adjacency:
        local_adj = extract_submatrix(rows.graph.adjacency, node_ids, lookup=lookup)
    return SupportingSubgraph(
        node_ids=node_ids,
        target_local=target_local,
        adjacency=local_adj,
        hops=hop_of[node_ids],
        global_to_local=lookup,
    )


@dataclass(frozen=True)
class SupportBundle:
    """Everything the inference engine needs from sampling, in one reusable unit.

    A bundle packages the *data-movement* products of supporting-node
    extraction — the hop-ordered neighbourhood, the local normalized-adjacency
    CSR arrays and the gathered hop-0 feature rows — so a serving layer can
    build it once and replay it for every later batch with the same node
    composition (see :class:`repro.serving.SubgraphCache`).  Bundles carry no
    arithmetic: reusing one skips BFS, index remapping and feature gathering
    only, so MAC accounting is unaffected.

    All arrays are treated as read-only by the engine: propagation reads the
    hop-0 rows from :attr:`local_features` and writes depth ≥ 1 states into
    worker-owned double buffers, never back into the bundle.
    """

    support: SupportingSubgraph
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    local_features: np.ndarray
    build_seconds: float

    @property
    def num_local(self) -> int:
        return self.support.num_supporting_nodes

    def with_target_order(self, rank: np.ndarray) -> "SupportBundle":
        """A view of this bundle whose targets are permuted by ``rank``.

        Everything else about a bundle — the hop-ordered node list, the local
        CSR arrays, the hop-0 feature rows — depends only on the *set* of
        targets: BFS starts from ``np.unique(targets)`` and orders each hop
        by ascending global id.  Only ``target_local`` (the local row of each
        target occurrence, in batch order) is order-sensitive.  Given the
        permutation from :func:`canonical_order`, this returns a shallow view
        whose ``target_local`` matches the permuted batch, sharing every
        array with the original — the serving cache stores one canonical
        bundle per node-set and rebases it per hit.
        """
        rank = np.asarray(rank, dtype=np.int64)
        if rank.shape != self.support.target_local.shape:
            raise GraphConstructionError(
                f"target permutation has length {rank.shape[0]}, bundle has "
                f"{self.support.target_local.shape[0]} targets"
            )
        support = replace(self.support, target_local=self.support.target_local[rank])
        return replace(self, support=support)

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint (used for cache sizing diagnostics)."""
        arrays = (
            self.support.node_ids,
            self.support.target_local,
            self.support.hops,
            self.indptr,
            self.indices,
            self.data,
            self.local_features,
        )
        total = sum(a.nbytes for a in arrays)
        if self.support.global_to_local is not None:
            total += self.support.global_to_local.nbytes
        return int(total)


def canonical_order(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_targets, rank)`` such that ``sorted_targets[rank] == targets``.

    ``sorted_targets`` is the canonical (ascending, duplicates preserved)
    form every permutation of a batch shares; ``rank`` re-permutes anything
    computed in canonical batch order — most importantly a canonical
    bundle's ``target_local`` — back to the actual request order (see
    :meth:`SupportBundle.with_target_order`).
    """
    targets = np.asarray(targets, dtype=np.int64)
    order = np.argsort(targets, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    return targets[order], rank


def support_cache_key(targets: np.ndarray, depth: int) -> bytes:
    """Cache key identifying a batch's supporting subgraph.

    The key is **canonical** — depth plus the *sorted* target ids — so every
    permutation of the same node multiset maps to one entry.  The sampling
    products genuinely depend only on the set (BFS starts from the unique
    targets and orders each hop by ascending id); the one order-sensitive
    piece, ``target_local``, is restored per use by rebasing the cached
    bundle through :meth:`SupportBundle.with_target_order`.
    """
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if targets.size and np.any(targets[1:] < targets[:-1]):
        targets = np.sort(targets, kind="stable")
    return depth.to_bytes(8, "little") + targets.tobytes()


def build_support_bundle(
    rows: RowSource, targets: np.ndarray, depth: int
) -> SupportBundle:
    """Extract the cacheable sampling products for one inference batch.

    One BFS (:func:`k_hop_neighborhood`, one ``neighbors`` round per hop),
    one ``local_csr`` round and one ``feature_rows`` round for the hop-0
    features.  The source's features must already carry the inference dtype
    — the bundle stores whatever it is given, so a cache holds exactly one
    precision per deployment.

    The graph-sized ``global_to_local`` lookup is only needed *during*
    extraction; it is dropped from the stored subgraph so a cached bundle
    costs O(subgraph), not O(num_nodes) — on a large deployment the lookup
    would otherwise dominate every entry of the serving cache.
    """
    start = time.perf_counter()
    support = k_hop_neighborhood(rows, targets, depth, include_adjacency=False)
    indptr, indices, data = rows.local_csr(support.node_ids, support.global_to_local)
    local_features = rows.feature_rows(support.node_ids)
    return SupportBundle(
        support=replace(support, global_to_local=None),
        indptr=indptr,
        indices=indices,
        data=data,
        local_features=local_features,
        build_seconds=time.perf_counter() - start,
    )


def supporting_node_counts(
    graph: CSRGraph,
    targets: np.ndarray,
    max_depth: int,
) -> list[int]:
    """Number of supporting nodes reached at each depth ``0..max_depth``.

    Useful for the batch-size experiment (Figure 5): the count grows roughly
    exponentially with depth until it saturates at the connected component
    size.
    """
    sub = k_hop_neighborhood(graph, targets, max_depth, include_adjacency=False)
    return [sub.prefix_within(depth) for depth in range(max_depth + 1)]


def batch_iterator(node_ids: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Split ``node_ids`` into consecutive batches of at most ``batch_size``."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    node_ids = np.asarray(node_ids, dtype=np.int64)
    return [
        node_ids[start:start + batch_size]
        for start in range(0, node_ids.shape[0], batch_size)
    ]
