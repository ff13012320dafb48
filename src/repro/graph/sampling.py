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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

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


def k_hop_neighborhood(
    graph: CSRGraph,
    targets: np.ndarray,
    depth: int,
    *,
    include_adjacency: bool = True,
) -> SupportingSubgraph:
    """Extract the ``depth``-hop supporting subgraph around ``targets``.

    Parameters
    ----------
    graph:
        The full graph (train nodes plus unseen test nodes).
    targets:
        Global node ids of the inference batch.
    depth:
        Maximum propagation depth ``T_max``; supporting nodes further than
        this many hops away cannot influence the batch.
    include_adjacency:
        When false, skip building the local adjacency matrix (the inference
        engine only needs the node ordering and hop distances — it extracts
        the normalized adjacency itself, so building this one would double
        the sampling cost).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise GraphConstructionError("k_hop_neighborhood requires a non-empty batch")
    if targets.min() < 0 or targets.max() >= graph.num_nodes:
        raise GraphConstructionError("target node ids out of range")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")

    adjacency = graph.adjacency
    indptr, indices = adjacency.indptr, adjacency.indices
    visited = np.zeros(graph.num_nodes, dtype=bool)
    newly = np.zeros(graph.num_nodes, dtype=bool)
    hop_of = np.full(graph.num_nodes, -1, dtype=np.int64)
    frontier = np.unique(targets)
    visited[frontier] = True
    hop_of[frontier] = 0
    order = [frontier]
    for hop in range(1, depth + 1):
        if frontier.size == 0:
            break
        # All neighbours of the current frontier, gathered from the raw CSR
        # arrays; the boolean scatter deduplicates them without the sort that
        # np.unique would pay on the (duplicate-heavy) neighbour list.
        neighbor_ids = gather_columns(indptr, indices, frontier)
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

    node_ids = np.concatenate(order) if order else np.unique(targets)
    lookup = global_to_local_map(node_ids, graph.num_nodes)
    target_local = lookup[targets]
    local_adj = None
    if include_adjacency:
        local_adj = extract_submatrix(adjacency, node_ids, lookup=lookup)
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
    graph: CSRGraph,
    normalized_adjacency: sp.csr_matrix,
    features: np.ndarray,
    targets: np.ndarray,
    depth: int,
) -> SupportBundle:
    """Extract the cacheable sampling products for one inference batch.

    One BFS (:func:`k_hop_neighborhood`), one zero-copy local-CSR extraction
    and one contiguous gather of the hop-0 feature rows.  ``features`` must
    already carry the inference dtype — the bundle stores whatever it is
    given, so a cache holds exactly one precision per deployment.

    The graph-sized ``global_to_local`` lookup is only needed *during*
    extraction; it is dropped from the stored subgraph so a cached bundle
    costs O(subgraph), not O(num_nodes) — on a large deployment the lookup
    would otherwise dominate every entry of the serving cache.
    """
    start = time.perf_counter()
    support = k_hop_neighborhood(graph, targets, depth, include_adjacency=False)
    indptr, indices, data = extract_local_csr_arrays(
        normalized_adjacency, support.node_ids, lookup=support.global_to_local
    )
    local_features = np.ascontiguousarray(features[support.node_ids])
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
