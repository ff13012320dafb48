"""Tests for the sharded graph store: blocks, halo maps, bundle assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import ShardConfig
from repro.exceptions import GraphConstructionError
from repro.graph import normalized_adjacency
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.graph.kernels import global_to_local_map
from repro.graph.sampling import LocalRowSource, build_support_bundle, k_hop_neighborhood
from repro.graph.sparse import CSRGraph
from repro.shard import ShardedGraphStore
from repro.transport import ShardServerGroup


@pytest.fixture(scope="module")
def deployment():
    spec = SyntheticGraphSpec(
        num_nodes=250, num_classes=4, avg_degree=7.0, degree_exponent=2.0
    )
    graph, _ = generate_community_graph(spec, rng=11)
    rng = np.random.default_rng(0)
    features = rng.normal(size=(graph.num_nodes, 9)).astype(np.float32)
    return graph, features


@pytest.fixture(scope="module")
def store(deployment):
    graph, features = deployment
    return ShardedGraphStore.from_graph(
        graph, features, ShardConfig(num_shards=3, strategy="hash"),
        gamma=0.5, dtype=np.float32,
    )


class TestShardBlocks:
    def test_halo_is_col_global_minus_owned(self, store):
        for shard in store.shards:
            assert np.array_equal(
                shard.halo, np.setdiff1d(shard.col_global, shard.owned)
            )
            # Local column numbering is sorted-global — load-bearing for
            # bit-identical row assembly.
            assert np.all(np.diff(shard.col_global) > 0)

    def test_normalized_rows_match_global_a_hat(self, deployment, store):
        graph, _ = deployment
        a_hat = normalized_adjacency(graph, gamma=0.5).astype(np.float32, copy=False)
        for shard in store.shards:
            for local_row in (0, shard.num_owned // 2, shard.num_owned - 1):
                node = shard.owned[local_row]
                lo, hi = shard.nrm_indptr[local_row], shard.nrm_indptr[local_row + 1]
                cols = shard.col_global[shard.nrm_indices[lo:hi]]
                glo, ghi = a_hat.indptr[node], a_hat.indptr[node + 1]
                assert np.array_equal(cols, a_hat.indices[glo:ghi])
                # Shard-local values (halo-exchanged degrees) are bit-equal
                # to the global normalized adjacency.
                assert np.array_equal(shard.nrm_data[lo:hi], a_hat.data[glo:ghi])

    def test_degrees_computed_shard_locally_match_global(self, deployment, store):
        graph, _ = deployment
        expected = graph.degrees() + 1.0
        for shard in store.shards:
            assert np.array_equal(shard.degrees_with_loops, expected[shard.owned])

    def test_features_are_owned_slices(self, deployment, store):
        _, features = deployment
        for shard in store.shards:
            assert np.array_equal(shard.features, features[shard.owned])
            assert shard.features.dtype == np.float32

    def test_memory_report_shape(self, store):
        report = store.memory_report()
        assert report["num_shards"] == 3
        assert len(report["per_shard"]) == 3
        assert report["max_shard_nbytes"] == max(
            entry["nbytes"] for entry in report["per_shard"]
        )

    def test_mismatched_features_rejected(self, deployment):
        graph, features = deployment
        with pytest.raises(GraphConstructionError):
            ShardedGraphStore.from_graph(
                graph, features[:10], ShardConfig(num_shards=2)
            )


def _path_triangle_isolated():
    """A path 0-…-5, a triangle 6-7-8 and an isolated node 9."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (6, 8)]
    rows, cols = zip(*edges)
    adjacency = sp.coo_matrix(
        (np.ones(2 * len(edges)), (rows + cols, cols + rows)), shape=(10, 10)
    ).tocsr()
    return CSRGraph(adjacency)


@pytest.fixture(scope="module", params=["local", "store-local", "store-socket"])
def row_sources(request):
    """``(graph, reference source, source under test)`` for one source kind.

    The reference is the in-process :class:`LocalRowSource`; the store is
    bound to home shard 0 over each transport backend in turn.
    """
    graph = _path_triangle_isolated()
    features = np.arange(graph.num_nodes * 3, dtype=np.float32).reshape(-1, 3)
    a_hat = normalized_adjacency(graph, gamma=0.5).astype(np.float32, copy=False)
    reference = LocalRowSource(graph, a_hat, features)
    if request.param == "local":
        yield graph, reference, LocalRowSource(graph, a_hat, features)
        return
    store = ShardedGraphStore.from_graph(
        graph, features, ShardConfig(num_shards=3, strategy="hash"),
        gamma=0.5, dtype=np.float32,
    )
    if request.param == "store-local":
        yield graph, reference, store.row_source(0)
        return
    with ShardServerGroup(store.shards) as group, group.connect() as rail:
        store._set_transport(rail)
        yield graph, reference, store.row_source(0)


class TestRowSourceContract:
    """Every row source answers the three rounds with the same arrays."""

    def test_num_nodes(self, row_sources):
        graph, _, source = row_sources
        assert source.num_nodes == graph.num_nodes

    def test_neighbors_are_the_frontier_rows(self, row_sources):
        _, reference, source = row_sources
        for frontier in ([3], [0, 5, 7], [9], [2, 9]):
            frontier = np.array(frontier, dtype=np.int64)
            # Owner-grouped sources answer owner by owner: the multiset of
            # neighbour ids is the contract, not their order.
            assert np.array_equal(
                np.sort(source.neighbors(frontier)),
                np.sort(reference.neighbors(frontier)),
            )

    def test_local_csr_and_features_match(self, row_sources):
        _, reference, source = row_sources
        node_ids = np.array([4, 3, 5, 2, 9, 7], dtype=np.int64)
        lookup = global_to_local_map(node_ids, reference.num_nodes)
        for mine, expected in zip(
            source.local_csr(node_ids, lookup), reference.local_csr(node_ids, lookup)
        ):
            assert np.array_equal(mine, expected)
            assert mine.dtype == expected.dtype
        rows = source.feature_rows(node_ids)
        assert np.array_equal(rows, reference.feature_rows(node_ids))
        assert rows.flags.c_contiguous

    @pytest.mark.parametrize(
        "targets, depth",
        [
            ([3, 3, 0, 3], 2),  # duplicate targets
            ([4, 7], 0),  # depth 0: the targets alone
            ([9], 3),  # isolated target: the frontier empties at hop 1
            ([9, 1, 6], 3),  # an isolated target beside live ones
        ],
    )
    def test_bundle_matches_the_local_source(self, row_sources, targets, depth):
        _, reference, source = row_sources
        targets = np.array(targets, dtype=np.int64)
        mine = build_support_bundle(source, targets, depth)
        expected = build_support_bundle(reference, targets, depth)
        for name in ("indptr", "indices", "data", "local_features"):
            assert np.array_equal(getattr(mine, name), getattr(expected, name))
            assert getattr(mine, name).dtype == getattr(expected, name).dtype
        for name in ("node_ids", "target_local", "hops"):
            assert np.array_equal(
                getattr(mine.support, name), getattr(expected.support, name)
            )
        assert np.array_equal(mine.support.node_ids[mine.support.target_local], targets)


class TestCrossShardExpansion:
    def test_bundle_bit_identical_to_global(self, deployment, store):
        graph, features = deployment
        features32 = np.ascontiguousarray(features, dtype=np.float32)
        a_hat = normalized_adjacency(graph, gamma=0.5).astype(np.float32, copy=False)
        local = LocalRowSource(graph, a_hat, features32)
        rng = np.random.default_rng(9)
        for size in (1, 13, 64):
            targets = rng.choice(graph.num_nodes, size=size, replace=False)
            mine = build_support_bundle(store.row_source(), targets, 3)
            reference = build_support_bundle(local, targets, 3)
            for name in ("indptr", "indices", "data", "local_features"):
                assert np.array_equal(getattr(mine, name), getattr(reference, name))
                assert getattr(mine, name).dtype == getattr(reference, name).dtype
            for name in ("node_ids", "target_local", "hops"):
                assert np.array_equal(
                    getattr(mine.support, name), getattr(reference.support, name)
                )
            assert mine.support.global_to_local is None

    def test_duplicate_targets_supported(self, deployment, store):
        graph, features = deployment
        a_hat = normalized_adjacency(graph, gamma=0.5).astype(np.float32, copy=False)
        targets = np.array([5, 5, 17, 5])
        mine = build_support_bundle(store.row_source(), targets, 2)
        reference = build_support_bundle(
            LocalRowSource(graph, a_hat, np.ascontiguousarray(features, np.float32)),
            targets, 2,
        )
        assert np.array_equal(mine.support.target_local, reference.support.target_local)

    def test_validation_matches_global(self, store):
        source = store.row_source()
        with pytest.raises(GraphConstructionError):
            build_support_bundle(source, np.array([], dtype=np.int64), 2)
        with pytest.raises(GraphConstructionError):
            build_support_bundle(source, np.array([10**6]), 2)
        with pytest.raises(GraphConstructionError):
            build_support_bundle(source, np.array([-1]), 2)
        with pytest.raises(ValueError):
            build_support_bundle(source, np.array([0]), -1)
        with pytest.raises(GraphConstructionError):
            k_hop_neighborhood(source, np.array([0]), 1, include_adjacency=True)


class TestTraffic:
    def test_home_shard_attribution(self, deployment):
        graph, features = deployment
        store = ShardedGraphStore.from_graph(
            graph, features, ShardConfig(num_shards=2), dtype=np.float32
        )
        targets = store.shards[0].owned[:8]
        build_support_bundle(store.row_source(0), targets, 2)
        t = store.traffic
        assert t.bundles_assembled == 1
        assert t.adjacency_rows_local + t.adjacency_rows_remote > 0
        assert t.feature_rows_local > 0  # hop-0 rows are home-owned
        # Without a home shard nothing further is attributed.
        before = t.adjacency_rows_local + t.adjacency_rows_remote
        build_support_bundle(store.row_source(), targets, 2)
        after = t.adjacency_rows_local + t.adjacency_rows_remote
        assert after == before
