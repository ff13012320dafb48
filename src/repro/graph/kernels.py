"""Zero-copy sparse kernels for the NAI online-inference hot path.

The inference engine repeatedly needs ``(Â_local @ X)[rows]`` for a shrinking
set of supporting rows.  Materialising ``Â_local[rows]`` with scipy fancy
indexing allocates a fresh CSR matrix at every depth step; this module instead
operates directly on the raw ``indptr/indices/data`` arrays of one CSR matrix
built per batch:

* :func:`masked_row_spmm` computes the SpMM for a set of *contiguous row
  runs*, writing into a caller-owned, preallocated output buffer.  Each run
  is dispatched to scipy's compiled ``csr_matvecs`` routine with zero-copy
  slices of the CSR arrays — no submatrix is ever constructed.
* :func:`contiguous_runs` converts a boolean row mask into those runs.
  Because :func:`~repro.graph.sampling.k_hop_neighborhood` orders the local
  nodes by hop distance, the "rows within ``h`` hops of the targets" mask is
  a *prefix* of the row range (a single run) until the first early exit, and
  stays highly clustered afterwards.
* :func:`hop_distances` is a multi-source BFS over the raw CSR arrays used to
  re-derive hop distances when early exits shrink the target set.
* :func:`select_local_csr` builds the per-batch local CSR arrays with a
  single row gather plus one vectorised column remap, avoiding scipy's slow
  ``[:, cols]`` fancy column indexing; :func:`extract_local_csr_arrays` and
  :func:`extract_submatrix` run it on one in-process matrix.

All kernels are dtype-parametric: they run in whatever floating dtype the
caller's buffers carry (the inference engine threads ``NAIConfig.dtype``
through here so the whole hot path can run in float32).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..exceptions import ShapeError

try:  # pragma: no cover - exercised implicitly by every masked_row_spmm call
    from scipy.sparse import _sparsetools as _st

    _CSR_MATVECS = getattr(_st, "csr_matvecs", None)
except ImportError:  # pragma: no cover - very old / stripped-down scipy
    _CSR_MATVECS = None


def contiguous_runs(mask: np.ndarray) -> np.ndarray:
    """Decompose a boolean mask into ``(start, stop)`` runs of True entries.

    >>> contiguous_runs(np.array([True, True, False, True])).tolist()
    [[0, 2], [3, 4]]
    """
    mask = np.asarray(mask, dtype=bool)
    padded = np.concatenate(([False], mask, [False])).astype(np.int8)
    boundaries = np.flatnonzero(np.diff(padded))
    return boundaries.reshape(-1, 2)


def runs_nnz(indptr: np.ndarray, runs: np.ndarray) -> int:
    """Number of stored entries covered by the row ``runs`` of a CSR matrix."""
    if len(runs) == 0:
        return 0
    runs = np.asarray(runs)
    return int((indptr[runs[:, 1]] - indptr[runs[:, 0]]).sum())


def _check_spmm_buffers(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    source: np.ndarray,
    out: np.ndarray,
    *,
    assume_bounded: bool = False,
) -> None:
    num_rows = indptr.shape[0] - 1
    if source.ndim != 2 or out.ndim != 2:
        raise ShapeError("masked_row_spmm needs 2-D source and output buffers")
    if out.shape[0] != num_rows or source.shape[1] != out.shape[1]:
        raise ShapeError(
            f"buffer shapes {source.shape} -> {out.shape} do not match a "
            f"{num_rows}-row CSR matrix"
        )
    if not assume_bounded and indices.size and int(indices.max()) >= source.shape[0]:
        # The compiled kernel does no bounds checking: a short source buffer
        # would be read out of bounds in C rather than raise.  The scan is
        # O(nnz) per call, so hot loops dispatching the *same* immutable CSR
        # arrays every depth (whose columns are bounded by construction —
        # see extract_local_csr_arrays) pass assume_bounded=True to skip it.
        raise ShapeError(
            f"source has {source.shape[0]} rows but the CSR matrix references "
            f"column {int(indices.max())}"
        )
    if not (data.dtype == source.dtype == out.dtype):
        raise ShapeError(
            "masked_row_spmm requires matching dtypes, got "
            f"data={data.dtype}, source={source.dtype}, out={out.dtype}"
        )
    if not source.flags.c_contiguous or not out.flags.c_contiguous:
        raise ShapeError("masked_row_spmm buffers must be C-contiguous")


def _flat_nnz_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions into ``indices``/``data`` of all entries of ``rows``.

    Returns ``(flat, row_ends)`` where ``flat`` indexes every stored entry of
    the selected rows in row order and ``row_ends`` is the exclusive cumulative
    entry count per selected row (so ``concatenate(([0], row_ends))`` is the
    compacted indptr).  This is the gather shared by every kernel that walks a
    row subset without materialising a submatrix.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows].astype(np.int64)
    lengths = indptr[rows + 1].astype(np.int64) - starts
    row_ends = np.cumsum(lengths)
    total = int(row_ends[-1]) if lengths.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), row_ends
    flat = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (row_ends - lengths), lengths
    )
    return flat, row_ends


def masked_row_spmm(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    source: np.ndarray,
    out: np.ndarray,
    runs: np.ndarray,
    *,
    assume_bounded: bool = False,
) -> int:
    """``out[a:b] = (A @ source)[a:b]`` for every run ``(a, b)``; returns nnz.

    ``A`` is given by its raw CSR arrays; rows outside the runs are left
    untouched (the caller's double-buffering contract guarantees they are
    never read again).  Returns the number of stored entries visited, which
    is exactly the MAC count of the product divided by the feature width.
    ``assume_bounded`` skips the O(nnz) column-bounds scan for CSR arrays
    whose columns are known < ``source.shape[0]`` by construction.
    """
    _check_spmm_buffers(indptr, indices, data, source, out, assume_bounded=assume_bounded)
    num_cols = source.shape[0]
    width = source.shape[1]
    flat_source = source.reshape(-1)
    total = 0
    for a, b in runs:
        a, b = int(a), int(b)
        if b <= a:
            continue
        out[a:b] = 0.0
        if _CSR_MATVECS is not None:
            # The compiled routine reads absolute offsets from ``indptr``,
            # so the un-rebased slice indexes the full indices/data arrays.
            _CSR_MATVECS(
                b - a, num_cols, width,
                indptr[a:b + 1], indices, data,
                flat_source, out[a:b].reshape(-1),
            )
        else:  # pragma: no cover - fallback for scipy without _sparsetools
            lo, hi = int(indptr[a]), int(indptr[b])
            segment = sp.csr_matrix(
                (data[lo:hi], indices[lo:hi], indptr[a:b + 1] - lo),
                shape=(b - a, num_cols),
            )
            out[a:b] = segment @ source
        total += int(indptr[b] - indptr[a])
    return total


def gathered_row_spmm(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    source: np.ndarray,
    out: np.ndarray,
    rows: np.ndarray,
    *,
    assume_bounded: bool = False,
) -> int:
    """``out[rows] = (A @ source)[rows]`` for an arbitrary (sorted) row set.

    Compacts the selected rows' entries into temporary CSR arrays with one
    vectorised gather and runs a single compiled SpMM over them.  Costs one
    extra pass over the selected nnz, but issues exactly one kernel call —
    the right trade once a row mask fragments into many contiguous runs.
    """
    _check_spmm_buffers(indptr, indices, data, source, out, assume_bounded=assume_bounded)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return 0
    flat, row_ends = _flat_nnz_positions(indptr, rows)
    total = flat.size
    if total == 0:
        out[rows] = 0.0
        return 0
    sub_indptr = np.concatenate(([0], row_ends)).astype(indices.dtype)
    sub_indices = indices[flat]
    sub_data = data[flat]
    block = np.zeros((rows.size, source.shape[1]), dtype=source.dtype)
    if _CSR_MATVECS is not None:
        _CSR_MATVECS(
            rows.size, source.shape[0], source.shape[1],
            sub_indptr, sub_indices, sub_data,
            source.reshape(-1), block.reshape(-1),
        )
    else:  # pragma: no cover - fallback for scipy without _sparsetools
        segment = sp.csr_matrix(
            (sub_data, sub_indices, sub_indptr), shape=(rows.size, source.shape[0])
        )
        block = segment @ source
    out[rows] = block
    return total


#: Above this many contiguous runs, per-run kernel dispatch overhead exceeds
#: the extra gather pass of :func:`gathered_row_spmm`.  The crossover depends
#: on nnz-per-run and feature width; the fused engine uses this default.
_MAX_ZERO_COPY_RUNS = 8


def auto_masked_spmm(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    source: np.ndarray,
    out: np.ndarray,
    mask: np.ndarray,
    *,
    max_zero_copy_runs: int = _MAX_ZERO_COPY_RUNS,
    assume_bounded: bool = False,
) -> int:
    """Masked SpMM choosing the cheaper strategy for the mask's shape.

    Clustered masks (the common case — rows are hop-ordered) go through the
    zero-copy per-run path; fragmented masks compact their rows first so a
    single kernel call covers them.  ``max_zero_copy_runs`` sets the run-count
    crossover between the two strategies.  Either way exactly the masked rows
    are computed, so the returned nnz count equals the algorithmic MAC count.
    """
    runs = contiguous_runs(mask)
    if len(runs) <= max_zero_copy_runs:
        return masked_row_spmm(
            indptr, indices, data, source, out, runs, assume_bounded=assume_bounded
        )
    return gathered_row_spmm(
        indptr, indices, data, source, out, np.flatnonzero(mask),
        assume_bounded=assume_bounded,
    )


def gather_columns(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated column indices of ``rows`` without building a submatrix."""
    flat, _ = _flat_nnz_positions(indptr, rows)
    return indices[flat]


def hop_distances(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    num_nodes: int,
    max_hops: int,
) -> np.ndarray:
    """Multi-source BFS hop distances over raw CSR arrays.

    Nodes further than ``max_hops`` from every source keep the sentinel value
    ``num_nodes + 1`` (greater than any reachable distance), so callers can
    threshold the result directly with ``dist <= h``.
    """
    unreachable = num_nodes + 1
    dist = np.full(num_nodes, unreachable, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    if frontier.size == 0:
        return dist
    dist[frontier] = 0
    for hop in range(1, max_hops + 1):
        if frontier.size == 0:
            break
        neighbors = gather_columns(indptr, indices, frontier)
        new = np.unique(neighbors)
        new = new[dist[new] == unreachable]
        dist[new] = hop
        frontier = new
    return dist


def global_to_local_map(node_ids: np.ndarray, num_nodes: int) -> np.ndarray:
    """Inverse-permutation map: ``map[global_id] = local_row`` (-1 elsewhere).

    Replaces the per-node Python-dict lookups the sampling layer used to
    build; one vectorised gather turns any array of global ids into local
    rows.
    """
    lookup = np.full(num_nodes, -1, dtype=np.int64)
    lookup[np.asarray(node_ids, dtype=np.int64)] = np.arange(
        len(node_ids), dtype=np.int64
    )
    return lookup


def extract_local_csr_arrays(
    matrix: sp.csr_matrix,
    node_ids: np.ndarray,
    *,
    lookup: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw ``(indptr, indices, data)`` of ``matrix[node_ids][:, node_ids]``.

    One vectorised pass over the selected rows: gather the flat nnz
    positions, remap the column indices through the inverse-permutation
    ``lookup`` and drop the columns that fall outside the subgraph.  No
    intermediate scipy matrix is built — the result feeds
    :func:`masked_row_spmm` directly, and scipy's (much slower) fancy
    ``[:, cols]`` column indexing is never invoked.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if lookup is None:
        lookup = global_to_local_map(node_ids, matrix.shape[1])
    return select_local_csr(
        matrix.indptr, matrix.indices, matrix.data, node_ids, lookup,
        matrix.indices.dtype,
    )


def select_local_csr(
    indptr: np.ndarray,
    columns: np.ndarray,
    data: np.ndarray,
    rows: np.ndarray,
    lookup: np.ndarray,
    index_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local CSR of ``rows`` of a block whose ``columns`` are global ids.

    Gathers the rows' entries in the order ``rows`` lists them, renumbers
    each column through the inverse-permutation ``lookup`` and drops the
    columns outside the subgraph (``lookup == -1``).  The in-process source
    runs it on the global ``Â``; the sharded source on the owners' fetched
    rows, so both produce the same arrays entry for entry.
    """
    flat, row_ends = _flat_nnz_positions(indptr, rows)
    cols = lookup[columns[flat]]
    keep = cols >= 0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    gathered_indptr = np.concatenate(([0], row_ends))
    return (
        kept_before[gathered_indptr].astype(index_dtype),
        cols[keep].astype(index_dtype),
        data[flat[keep]],
    )


def extract_submatrix(
    matrix: sp.csr_matrix,
    node_ids: np.ndarray,
    *,
    lookup: np.ndarray | None = None,
) -> sp.csr_matrix:
    """``matrix[node_ids][:, node_ids]`` via :func:`extract_local_csr_arrays`."""
    node_ids = np.asarray(node_ids, dtype=np.int64)
    new_indptr, new_indices, new_data = extract_local_csr_arrays(
        matrix, node_ids, lookup=lookup
    )
    return sp.csr_matrix(
        (new_data, new_indices, new_indptr),
        shape=(node_ids.shape[0], node_ids.shape[0]),
    )


def masked_row_spmm_reference(
    matrix: sp.csr_matrix,
    source: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Naive ``matrix[rows] @ source`` — the oracle the kernel tests check against."""
    return np.asarray(matrix[rows] @ source)
