"""The shard transport interface: how bundle assembly fetches remote rows.

:class:`~repro.shard.store.ShardedGraphStore` reaches its shards through
exactly four fetch primitives, extracted here as :class:`ShardTransport`
operations.  The first three serve the one support builder through the
store's row source (:class:`~repro.shard.store.ShardRowSource`):

``frontier_columns``
    The concatenated global neighbour ids of a set of owned rows — one BFS
    hop of :func:`~repro.graph.sampling.k_hop_neighborhood`.
``adjacency_rows``
    The normalized-adjacency rows of a set of owned rows, as per-row lengths
    plus flat global column ids and values — the substrate of local-CSR
    stitching.
``feature_rows``
    The hop-0 feature rows of a set of owned rows.
``degree_rows``
    The ``d_i + 1`` degrees of a set of owned rows (the stationary slice).

Every call is a **round**: a list of ``(shard_id, rows)`` requests answered
positionally.  A round is the transport's unit of pipelining — the socket
backend writes every request of a round before reading the first response,
so one cross-shard hop costs one round trip instead of one per shard.

All responses are expressed in *global* ids and deployment dtypes, so the
row source is transport-agnostic and — because every backend
returns the same arrays — bundles are bit-identical across backends.

Backends
--------
:class:`~repro.transport.local.LocalTransport`
    Zero-copy views over in-process :class:`~repro.shard.store.GraphShard`
    blocks (the pre-transport behavior).
:class:`~repro.transport.socket.SocketTransport`
    Length-prefixed binary RPC over TCP with per-shard connection reuse and
    cross-hop request pipelining, served by
    :class:`~repro.transport.socket.ShardServer`.
:class:`~repro.transport.fault.FaultInjectingTransport`
    Wraps any backend with scripted drops, latency, reordering and
    disconnects — the test harness of the fault model.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Operation names, also used as wire opcodes (see :mod:`.wire`).
OP_FRONTIER = "frontier_columns"
OP_ADJACENCY = "adjacency_rows"
OP_FEATURES = "feature_rows"
OP_DEGREES = "degree_rows"

ALL_OPS = (OP_FRONTIER, OP_ADJACENCY, OP_FEATURES, OP_DEGREES)

#: One round's worth of requests: ``(shard_id, local_rows)`` pairs.
RequestBatch = Sequence[tuple[int, np.ndarray]]


@dataclass(frozen=True)
class AdjacencyRows:
    """One shard's answer to an ``adjacency_rows`` request.

    ``lengths[i]`` entries of row ``i`` live at the matching flat positions
    of ``columns`` (global column ids, ascending within each row — the same
    entry order the global CSR stores) and ``data`` (values in the
    deployment dtype).
    """

    lengths: np.ndarray
    columns: np.ndarray
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.lengths.nbytes + self.columns.nbytes + self.data.nbytes)


def payload_nbytes(payload) -> int:
    """Logical byte size of a response payload (any op)."""
    if isinstance(payload, AdjacencyRows):
        return payload.nbytes
    return int(np.asarray(payload).nbytes)


@dataclass
class TransportStats:
    """Counters every backend keeps: rounds, per-op requests, bytes moved.

    ``request_bytes`` / ``response_bytes`` count the *logical* payloads (row
    ids out, arrays back).  The socket backend additionally reports framed
    wire bytes (headers included) via its own ``wire_bytes_*`` counters.

    ``retries`` / ``failovers`` / ``health_transitions`` stay zero on plain
    backends; :class:`~repro.transport.replica.ReplicatedTransport` counts
    its retry-policy re-attempts, its mid-round replica switches, and every
    replica health flip (healthy ↔ unhealthy) there.
    """

    rounds: int = 0
    requests: dict[str, int] = field(
        default_factory=lambda: {op: 0 for op in ALL_OPS}
    )
    request_bytes: int = 0
    response_bytes: int = 0
    retries: int = 0
    failovers: int = 0
    health_transitions: int = 0

    def record_round(
        self, op: str, num_requests: int, request_bytes: int, response_bytes: int
    ) -> None:
        self.rounds += 1
        self.requests[op] = self.requests.get(op, 0) + num_requests
        self.request_bytes += request_bytes
        self.response_bytes += response_bytes

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "requests": dict(self.requests),
            "request_bytes": self.request_bytes,
            "response_bytes": self.response_bytes,
            "total_bytes": self.request_bytes + self.response_bytes,
            "retries": self.retries,
            "failovers": self.failovers,
            "health_transitions": self.health_transitions,
        }


class ShardTransport(ABC):
    """Abstract fetch surface between bundle assembly and the shard blocks.

    Subclasses implement :meth:`fetch` — one round of positional
    ``(shard_id, rows)`` requests for one operation — and the four public
    methods simply name the operations.  Implementations must be safe to
    call from multiple serving threads (take a lock if the underlying
    channel is stateful).
    """

    def __init__(self) -> None:
        self.stats = TransportStats()
        self._stats_lock = threading.Lock()
        #: Optional :class:`~repro.obs.Tracer`.  Backends that can enrich a
        #: trace (the socket client propagating ids over the wire, the
        #: replicated transport marking retries/failovers) read the current
        #: thread-local round context from it; ``None`` (default) costs one
        #: attribute check per round.
        self.tracer = None

    def use_tracer(self, tracer) -> "ShardTransport":
        """Attach a tracer (wrappers propagate it to their inner backends)."""
        self.tracer = tracer
        return self

    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def num_shards(self) -> int:
        """How many shards this transport can reach."""

    @abstractmethod
    def fetch(self, op: str, requests: RequestBatch) -> list:
        """Answer one round of requests, positionally.

        Raises :class:`~repro.exceptions.TransportError` when a shard cannot
        be reached or a response cannot be read; a failed round leaves no
        partial state behind (the caller retries the whole round or fails).
        """

    def close(self) -> None:
        """Release any connections; further fetches may fail."""

    # ------------------------------------------------------------------ #
    # The four named operations of the store's fetch surface
    # ------------------------------------------------------------------ #
    def frontier_columns(self, requests: RequestBatch) -> list[np.ndarray]:
        """Concatenated global neighbour ids of each request's rows."""
        return self.fetch(OP_FRONTIER, requests)

    def adjacency_rows(self, requests: RequestBatch) -> list[AdjacencyRows]:
        """Normalized-adjacency rows (lengths + global columns + values)."""
        return self.fetch(OP_ADJACENCY, requests)

    def feature_rows(self, requests: RequestBatch) -> list[np.ndarray]:
        """Feature rows of each request's rows, deployment dtype."""
        return self.fetch(OP_FEATURES, requests)

    def degree_rows(self, requests: RequestBatch) -> list[np.ndarray]:
        """``d_i + 1`` (float64) of each request's rows."""
        return self.fetch(OP_DEGREES, requests)

    # ------------------------------------------------------------------ #
    def _record_round(
        self, op: str, requests: RequestBatch, payloads: Sequence
    ) -> None:
        request_bytes = sum(np.asarray(rows).nbytes for _, rows in requests)
        response_bytes = sum(payload_nbytes(p) for p in payloads)
        with self._stats_lock:
            self.stats.record_round(op, len(requests), request_bytes, response_bytes)

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def answer_from_shard(shard, op: str, rows: np.ndarray):
    """Serve one request against an in-process ``GraphShard``.

    This is the single source of truth for what each operation returns —
    :class:`~repro.transport.local.LocalTransport` calls it directly and
    :class:`~repro.transport.socket.ShardServer` calls it behind the wire,
    which is how every backend stays bit-identical.
    """
    from ..graph.kernels import _flat_nnz_positions

    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= shard.num_owned):
        raise IndexError(
            f"row ids out of range for shard {shard.shard_id} "
            f"({shard.num_owned} owned rows)"
        )
    if op == OP_FRONTIER:
        flat, _ = _flat_nnz_positions(shard.adj_indptr, rows)
        return shard.col_global[shard.adj_indices[flat]]
    if op == OP_ADJACENCY:
        flat, seg_ends = _flat_nnz_positions(shard.nrm_indptr, rows)
        lengths = np.diff(np.concatenate(([0], seg_ends)))
        return AdjacencyRows(
            lengths=lengths,
            columns=shard.col_global[shard.nrm_indices[flat]],
            data=shard.nrm_data[flat],
        )
    if op == OP_FEATURES:
        return shard.features[rows]
    if op == OP_DEGREES:
        return shard.degrees_with_loops[rows]
    raise ValueError(f"unknown transport operation {op!r}")
