"""Networked shard transport: TCP RPC client and per-shard servers.

:class:`ShardServer` owns one :class:`~repro.shard.store.GraphShard` and
serves its CSR blocks over length-prefixed binary frames (see
:mod:`.wire`); one accept loop, one thread per connection, requests on a
connection answered strictly in arrival order.  That ordering guarantee is
what makes client-side **pipelining** safe: :class:`SocketTransport` writes
every request of a round before reading the first response, so a
cross-shard hop pays one round trip instead of one per shard.

Connections are opened lazily, reused across rounds, and torn down on any
framing error; the next round transparently reconnects, which is the
"retry once on reconnect" recovery story the fault tests exercise.

``serve_shard`` is the blocking process target — a networked deployment
runs one per machine (``multiprocessing.Process(target=serve_shard, ...)``
or an equivalent service wrapper); :class:`ShardServerGroup` starts the
whole fleet in-process (threads, real TCP on loopback) for tests and
benchmarks.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Sequence

from ..exceptions import TransportError
from . import wire
from .base import RequestBatch, ShardTransport, answer_from_shard


class ShardServer:
    """Serves one shard's blocks over TCP; one thread per connection.

    ``trace_log`` (optional) is a path the server appends one JSON span per
    *traced* request to — requests whose frames carry a
    :data:`~repro.transport.wire.TRACE_FLAG` header.  Each record parents
    under the client's in-flight ``fetch.round`` span (the propagated span
    id), with server-minted span ids offset by the server pid so ids from
    different processes never collide; ``repro.obs.load_spans_jsonl``
    reads the file back for cross-process trace stitching.  Timestamps are
    ``time.monotonic()`` — on Linux a system-wide clock, so they are
    directly comparable with a client tracing on the monotonic clock.
    """

    def __init__(
        self,
        shard,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_log: str | os.PathLike | None = None,
    ) -> None:
        self.shard = shard
        self.trace_log = trace_log
        self._trace_span_ids = iter(range(1, 1 << 62))
        self._listener = socket.create_server((host, port))
        # A timed accept loop: closing the listener from another thread does
        # not reliably wake a blocking accept(), so the loop polls the stop
        # flag a few times a second instead — stop() returns promptly.
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._stopping = False
        self.requests_served = 0

    # ------------------------------------------------------------------ #
    def start(self) -> "ShardServer":
        """Begin accepting connections on a background thread."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"shard-server-{self.shard.shard_id}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every live connection."""
        self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            _close_socket(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def drop_connections(self) -> None:
        """Kill live connections only (the listener survives) — fault hook.

        Clients see a mid-stream disconnect and must surface a
        :class:`~repro.exceptions.TransportError`; their next round
        reconnects against the still-listening server.
        """
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            _close_socket(conn)

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            conn.settimeout(None)
            with self._conn_lock:
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    payload = wire.read_frame(
                        conn, shard_id=self.shard.shard_id
                    )
                except TransportError:
                    return
                if payload is None:
                    return
                try:
                    op, rows, trace = wire.decode_request_traced(payload)
                    started = time.monotonic()
                    response = wire.response_parts(
                        op, answer_from_shard(self.shard, op, rows)
                    )
                    if trace is not None and self.trace_log is not None:
                        self._log_span(op, rows, trace, started)
                except TransportError as error:
                    response = [wire.encode_error(str(error))]
                except Exception as error:  # noqa: BLE001 - shipped to client
                    response = [
                        wire.encode_error(f"{type(error).__name__}: {error}")
                    ]
                # One thread per connection: the counter needs the lock.
                with self._conn_lock:
                    self.requests_served += 1
                try:
                    wire.send_frame(conn, response)
                except (OSError, TransportError):
                    return
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            _close_socket(conn)

    def _log_span(
        self, op: str, rows, trace: tuple[int, int], started: float
    ) -> None:
        """Append one server-side span for a traced request (JSONL)."""
        trace_id, parent_span_id = trace
        pid = os.getpid()
        with self._conn_lock:
            span_id = (pid << 24) + next(self._trace_span_ids)
        record = {
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_span_id,
            "name": f"server.{op}",
            "start": started,
            "end": time.monotonic(),
            "attributes": {
                "shard": int(self.shard.shard_id),
                "rows": int(rows.shape[0]),
                "pid": pid,
            },
        }
        # One O_APPEND write per record keeps concurrent connection threads
        # (and forked sibling servers sharing the file) line-atomic.
        with open(self.trace_log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_shard(
    shard,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
    port_out=None,
    trace_log: str | os.PathLike | None = None,
) -> None:
    """Blocking process target: serve ``shard`` until the process dies.

    Designed for ``multiprocessing.Process(target=serve_shard, ...)`` with
    the fork start method (the shard's arrays are inherited, not pickled).
    ``port_out`` (optional, e.g. ``multiprocessing.Value("i")``) receives
    the actually-bound port — pass ``port=0`` to let the OS pick one —
    and ``ready`` (e.g. ``multiprocessing.Event``) is set once the listener
    accepts connections, so the parent knows when to dial.
    """
    server = ShardServer(shard, host=host, port=port, trace_log=trace_log).start()
    if port_out is not None:
        port_out.value = server.address[1]
    if ready is not None:
        ready.set()
    assert server._accept_thread is not None
    server._accept_thread.join()


class ShardServerGroup:
    """One :class:`ShardServer` per shard of a store — the loopback fleet."""

    def __init__(
        self,
        shards: Sequence,
        *,
        host: str = "127.0.0.1",
        trace_log: str | os.PathLike | None = None,
    ) -> None:
        # One shared trace log is safe: every server appends line-atomically.
        self.servers = [
            ShardServer(shard, host=host, trace_log=trace_log) for shard in shards
        ]

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [server.address for server in self.servers]

    def start(self) -> "ShardServerGroup":
        for server in self.servers:
            server.start()
        return self

    def stop(self) -> None:
        for server in self.servers:
            server.stop()

    def connect(self, **transport_kwargs) -> "SocketTransport":
        """A :class:`SocketTransport` wired to every server in the group."""
        return SocketTransport(self.addresses, **transport_kwargs)

    def __enter__(self) -> "ShardServerGroup":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class SocketTransport(ShardTransport):
    """RPC client over per-shard TCP connections with round pipelining.

    Parameters
    ----------
    addresses:
        ``(host, port)`` of each shard's server, indexed by shard id.
        Every request of a round is written before the first response is
        read — one round trip per cross-shard hop.
    timeout_seconds:
        Socket timeout for connects, sends and receives.  A stuck server
        surfaces as a :class:`~repro.exceptions.TransportError` instead of a
        hang — the watchdog of last resort for the serving stack.
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        *,
        timeout_seconds: float = 30.0,
    ) -> None:
        super().__init__()
        self.addresses = [tuple(address) for address in addresses]
        self.timeout_seconds = timeout_seconds
        self._connections: dict[int, socket.socket] = {}
        self._closed = False
        # One round at a time: connections are stateful streams, and the
        # response-matching contract (in-order per connection) only holds if
        # rounds do not interleave.  Serving threads share one transport.
        self._round_lock = threading.Lock()
        self._ever_dialed: set[int] = set()
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        #: All connections ever established, first dials included.
        self.connections_opened = 0
        #: Re-dials only — a clean run against healthy servers keeps this 0.
        self.reconnects = 0

    @property
    def num_shards(self) -> int:
        return len(self.addresses)

    # ------------------------------------------------------------------ #
    def fetch(self, op: str, requests: RequestBatch) -> list:
        if self._closed:
            raise TransportError(
                "the socket transport is closed", op=op, retryable=False
            )
        with self._round_lock:
            try:
                frames = self._fetch_pipelined(op, requests)
            except TransportError:
                # A round that died mid-flight may leave unread responses in
                # *other* shards' streams; reusing those connections would
                # desync every later round.  Reset them all — the next round
                # redials lazily (the retry-once-on-reconnect contract).
                for shard_id in list(self._connections):
                    self._drop_connection(shard_id)
                raise
        # Every stream is fully drained at this point; decoding (which also
        # re-raises server-side application errors) cannot desync anything,
        # so connections survive a decode failure.  Server-side application
        # errors are deterministic (bad rows stay bad) — non-retryable, with
        # the answering shard attached so failover can route around it.
        payloads = []
        for (shard_id, _), frame in zip(requests, frames):
            try:
                payloads.append(wire.decode_response(op, frame))
            except TransportError as error:
                raise TransportError(
                    f"shard {shard_id} answered {op} with an error: {error}",
                    op=op,
                    shard_id=shard_id,
                    retryable=False,
                ) from error
        self._record_round(op, requests, payloads)
        return payloads

    def _fetch_pipelined(self, op: str, requests: RequestBatch) -> list[memoryview]:
        # Phase 1: write every request frame.  Multiple requests to one
        # shard keep their relative order, so responses on that connection
        # come back positionally.
        for shard_id, rows in requests:
            self._send(op, shard_id, rows)
        # Phase 2: read the response frames in request order.
        return [self._receive_frame(op, shard_id) for shard_id, _ in requests]

    def _send(self, op: str, shard_id: int, rows) -> None:
        trace = None
        if self.tracer is not None:
            ctx = self.tracer.current()
            if ctx is not None:
                trace = (ctx.trace_id, ctx.span_id)
        parts = wire.request_parts(op, rows, trace=trace)
        conn = self._connection(op, shard_id)
        try:
            self.wire_bytes_sent += wire.send_frame(conn, parts)
        except OSError as error:
            self._drop_connection(shard_id)
            raise TransportError(
                f"send to shard {shard_id} failed: {error}",
                op=op,
                shard_id=shard_id,
            ) from error

    def _receive_frame(self, op: str, shard_id: int) -> memoryview:
        conn = self._connections.get(shard_id)
        if conn is None:
            raise TransportError(
                f"no connection to shard {shard_id} to receive from",
                op=op,
                shard_id=shard_id,
            )
        try:
            # op/shard context rides into wire.read_frame so even the raw
            # mid-frame-EOF error is attributable on its own (the re-wrap
            # below adds the same context for this call site's raises).
            payload = wire.read_frame(conn, op=op, shard_id=shard_id)
        except TransportError as error:
            self._drop_connection(shard_id)
            raise TransportError(
                f"receive from shard {shard_id} failed: {error}",
                op=op,
                shard_id=shard_id,
                retryable=error.retryable,
            ) from error
        if payload is None:
            self._drop_connection(shard_id)
            raise TransportError(
                f"shard {shard_id} closed the connection mid-round",
                op=op,
                shard_id=shard_id,
            )
        self.wire_bytes_received += len(payload) + 4
        return payload

    # ------------------------------------------------------------------ #
    def _connection(self, op: str, shard_id: int) -> socket.socket:
        if not 0 <= shard_id < len(self.addresses):
            raise TransportError(
                f"shard {shard_id} out of range [0, {len(self.addresses)})",
                op=op,
                shard_id=shard_id,
                retryable=False,
            )
        conn = self._connections.get(shard_id)
        if conn is not None:
            return conn
        host, port = self.addresses[shard_id]
        try:
            conn = socket.create_connection((host, port), timeout=self.timeout_seconds)
        except OSError as error:
            # Connection-refused during a kill window heals when the server
            # returns: explicitly retryable, with the failed op and shard
            # attached so RetryPolicy/failover act on it uniformly.
            raise TransportError(
                f"cannot connect to shard {shard_id} at {host}:{port}: {error}",
                op=op,
                shard_id=shard_id,
                retryable=True,
            ) from error
        conn.settimeout(self.timeout_seconds)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._connections[shard_id] = conn
        self.connections_opened += 1
        if shard_id in self._ever_dialed:
            self.reconnects += 1
        self._ever_dialed.add(shard_id)
        return conn

    def _drop_connection(self, shard_id: int) -> None:
        conn = self._connections.pop(shard_id, None)
        if conn is not None:
            _close_socket(conn)

    def disconnect(self) -> None:
        """Drop every live connection (the next round reconnects lazily)."""
        with self._round_lock:
            for shard_id in list(self._connections):
                self._drop_connection(shard_id)

    def close(self) -> None:
        with self._round_lock:
            self._closed = True
            for shard_id in list(self._connections):
                self._drop_connection(shard_id)


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
