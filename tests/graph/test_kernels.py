"""Unit tests for the zero-copy sparse kernels behind the NAI hot path."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ShapeError
from repro.graph import (
    CSRGraph,
    auto_masked_spmm,
    contiguous_runs,
    extract_local_csr_arrays,
    extract_submatrix,
    gather_columns,
    gathered_row_spmm,
    global_to_local_map,
    hop_distances,
    k_hop_neighborhood,
    masked_row_spmm,
    masked_row_spmm_reference,
    runs_nnz,
)


@pytest.fixture(scope="module")
def random_csr():
    rng = np.random.default_rng(42)
    dense = (rng.random((60, 60)) < 0.1).astype(np.float64)
    dense *= rng.random((60, 60))
    return sp.csr_matrix(dense)


@pytest.fixture(scope="module")
def source_matrix():
    rng = np.random.default_rng(7)
    return np.ascontiguousarray(rng.standard_normal((60, 9)))


class TestContiguousRuns:
    def test_empty_mask(self):
        assert contiguous_runs(np.zeros(5, dtype=bool)).shape == (0, 2)

    def test_full_mask_single_run(self):
        assert contiguous_runs(np.ones(4, dtype=bool)).tolist() == [[0, 4]]

    def test_fragmented_mask(self):
        mask = np.array([True, False, True, True, False, True])
        assert contiguous_runs(mask).tolist() == [[0, 1], [2, 4], [5, 6]]

    def test_runs_nnz_matches_mask(self, random_csr):
        rng = np.random.default_rng(0)
        mask = rng.random(60) < 0.4
        runs = contiguous_runs(mask)
        expected = int(np.diff(random_csr.indptr)[mask].sum())
        assert runs_nnz(random_csr.indptr, runs) == expected


class TestMaskedSpMM:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_naive_submatrix_product(self, random_csr, source_matrix, dtype):
        matrix = random_csr.astype(dtype)
        source = np.ascontiguousarray(source_matrix, dtype=dtype)
        rng = np.random.default_rng(3)
        mask = rng.random(60) < 0.5
        rows = np.flatnonzero(mask)
        out = np.full((60, 9), np.nan, dtype=dtype)
        nnz = masked_row_spmm(
            matrix.indptr, matrix.indices, matrix.data, source, out, contiguous_runs(mask)
        )
        expected = masked_row_spmm_reference(matrix, source, rows)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.allclose(out[rows], expected, atol=tol)
        # Untouched rows keep their previous (NaN) contents.
        assert np.isnan(out[~mask]).all()
        assert nnz == int(np.diff(matrix.indptr)[mask].sum())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gathered_matches_naive(self, random_csr, source_matrix, dtype):
        matrix = random_csr.astype(dtype)
        source = np.ascontiguousarray(source_matrix, dtype=dtype)
        rows = np.array([0, 3, 4, 11, 30, 59])
        out = np.full((60, 9), np.nan, dtype=dtype)
        nnz = gathered_row_spmm(
            matrix.indptr, matrix.indices, matrix.data, source, out, rows
        )
        expected = masked_row_spmm_reference(matrix, source, rows)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.allclose(out[rows], expected, atol=tol)
        assert nnz == int(np.diff(matrix.indptr)[rows].sum())

    def test_auto_dispatch_agrees_with_reference_on_any_mask(self, random_csr, source_matrix):
        rng = np.random.default_rng(11)
        for density in (0.05, 0.5, 0.95):
            mask = rng.random(60) < density
            if not mask.any():
                continue
            out = np.zeros((60, 9))
            auto_masked_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix, out, mask,
            )
            rows = np.flatnonzero(mask)
            expected = masked_row_spmm_reference(random_csr, source_matrix, rows)
            assert np.allclose(out[rows], expected, atol=1e-12)

    def test_run_dispatch_threshold_is_a_pure_perf_knob(self, random_csr, source_matrix):
        """Both dispatch strategies compute identical rows and nnz counts.

        ``max_zero_copy_runs=0`` forces the compacting gather for every mask;
        a huge threshold forces per-run zero-copy dispatch.  The crossover
        must never change results, only performance.
        """
        rng = np.random.default_rng(23)
        mask = rng.random(60) < 0.4
        rows = np.flatnonzero(mask)
        expected = masked_row_spmm_reference(random_csr, source_matrix, rows)
        nnz_counts = []
        for threshold in (0, 1_000_000):
            out = np.zeros((60, 9))
            nnz = auto_masked_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix, out, mask, max_zero_copy_runs=threshold,
            )
            nnz_counts.append(nnz)
            assert np.allclose(out[rows], expected, atol=1e-12)
        assert nnz_counts[0] == nnz_counts[1]

    def test_assume_bounded_skips_only_the_bounds_scan(self, random_csr, source_matrix):
        """assume_bounded must not change results for in-bounds arrays."""
        mask = np.zeros(60, dtype=bool)
        mask[5:25] = True
        rows = np.flatnonzero(mask)
        expected = masked_row_spmm_reference(random_csr, source_matrix, rows)
        out = np.zeros((60, 9))
        auto_masked_spmm(
            random_csr.indptr, random_csr.indices, random_csr.data,
            source_matrix, out, mask, assume_bounded=True,
        )
        assert np.allclose(out[rows], expected, atol=1e-12)

    def test_empty_runs_are_noops(self, random_csr, source_matrix):
        out = np.full((60, 9), 3.14)
        nnz = masked_row_spmm(
            random_csr.indptr, random_csr.indices, random_csr.data,
            source_matrix, out, np.empty((0, 2), dtype=np.int64),
        )
        assert nnz == 0
        assert (out == 3.14).all()

    def test_dtype_mismatch_rejected(self, random_csr, source_matrix):
        out = np.zeros((60, 9), dtype=np.float32)
        with pytest.raises(ShapeError):
            masked_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix, out, np.array([[0, 60]]),
            )

    def test_short_source_rejected_instead_of_oob_read(self, random_csr, source_matrix):
        out = np.zeros((60, 9))
        short_source = np.ascontiguousarray(source_matrix[:40])
        with pytest.raises(ShapeError):
            masked_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                short_source, out, np.array([[0, 60]]),
            )

    def test_shape_mismatch_rejected(self, random_csr, source_matrix):
        out = np.zeros((10, 9))
        with pytest.raises(ShapeError):
            masked_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix, out, np.array([[0, 10]]),
            )


class TestGatherAndDistances:
    def test_gather_columns_matches_scipy_slicing(self, random_csr):
        rows = np.array([2, 5, 7, 40])
        expected = random_csr[rows].indices
        assert np.array_equal(
            gather_columns(random_csr.indptr, random_csr.indices, rows), expected
        )

    def test_gather_columns_empty_rows(self):
        matrix = sp.csr_matrix((5, 5))
        out = gather_columns(matrix.indptr, matrix.indices, np.array([0, 3]))
        assert out.size == 0

    def test_hop_distances_on_path_graph(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        adj = graph.adjacency
        dist = hop_distances(adj.indptr, adj.indices, np.array([0]), 6, max_hops=3)
        assert dist.tolist() == [0, 1, 2, 3, 7, 7]  # 7 == sentinel num_nodes + 1

    def test_hop_distances_multi_source(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        adj = graph.adjacency
        dist = hop_distances(adj.indptr, adj.indices, np.array([0, 5]), 6, max_hops=5)
        assert dist.tolist() == [0, 1, 2, 2, 1, 0]


class TestExtraction:
    def test_global_to_local_roundtrip(self):
        node_ids = np.array([7, 3, 9])
        lookup = global_to_local_map(node_ids, 12)
        assert lookup[7] == 0 and lookup[3] == 1 and lookup[9] == 2
        assert (lookup[[0, 1, 2, 4]] == -1).all()

    def test_extract_submatrix_matches_double_fancy_index(self, random_csr):
        node_ids = np.array([5, 0, 17, 44, 3])
        ours = extract_submatrix(random_csr, node_ids)
        expected = random_csr[node_ids][:, node_ids]
        assert np.allclose(ours.toarray(), expected.toarray())

    def test_extract_local_arrays_feed_the_kernel(self, random_csr, source_matrix):
        node_ids = np.arange(60)[::-1].copy()  # a permutation
        indptr, indices, data = extract_local_csr_arrays(random_csr, node_ids)
        out = np.zeros((60, 9))
        masked_row_spmm(indptr, indices, data, source_matrix, out, np.array([[0, 60]]))
        permuted = random_csr[node_ids][:, node_ids]
        assert np.allclose(out, permuted @ source_matrix)

    def test_extract_empty_selection_rows(self):
        matrix = sp.csr_matrix((6, 6))
        sub = extract_submatrix(matrix, np.array([1, 4]))
        assert sub.shape == (2, 2)
        assert sub.nnz == 0

    def test_k_hop_local_adjacency_uses_fast_extraction(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        sub = k_hop_neighborhood(graph, np.array([2]), 2)
        dense = graph.adjacency.toarray()[np.ix_(sub.node_ids, sub.node_ids)]
        assert np.allclose(sub.adjacency.toarray(), dense)

    def test_k_hop_hops_are_sorted_and_prefix_counts_match(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        sub = k_hop_neighborhood(graph, np.array([0]), 4)
        assert (np.diff(sub.hops) >= 0).all()
        for hop in range(5):
            assert sub.prefix_within(hop) == int(np.count_nonzero(sub.hops <= hop))

    def test_k_hop_without_adjacency(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        sub = k_hop_neighborhood(graph, np.array([2]), 1, include_adjacency=False)
        assert sub.adjacency is None
        with pytest.raises(Exception):
            sub.as_graph()
