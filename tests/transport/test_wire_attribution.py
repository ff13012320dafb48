"""Transport-error attribution: wire failures must name their endpoint.

Regression suite for the failover-attribution bug: ``wire.read_frame`` used
to raise anonymous :class:`~repro.exceptions.TransportError`\\ s, so a
replica dying mid-frame could only be attributed by the *wrapping* call
site — and any path that surfaced the raw wire error made
:class:`~repro.transport.ReplicatedTransport` implicate every endpoint of
the sub-round instead of exactly the dead one.  Every error raised at the
wire layer now carries ``op``/``shard_id`` when the caller knows them.
"""

import socket
import struct
import threading
from collections import deque

import numpy as np
import pytest

from repro.core import ShardConfig
from repro.exceptions import TransportError
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.graph.sampling import build_support_bundle
from repro.serving import FakeClock
from repro.shard import ShardedGraphStore
from repro.transport import (
    NO_RETRY,
    LocalTransport,
    ReplicatedTransport,
    ShardServer,
    SocketTransport,
)
from repro.transport import wire


class ScriptedSocket:
    """Replays a fixed recv script; raises anything placed in the script."""

    def __init__(self, chunks):
        self._chunks = deque(chunks)

    def recv(self, count):
        if not self._chunks:
            return b""
        item = self._chunks.popleft()
        if isinstance(item, Exception):
            raise item
        return item[:count] if len(item) > count else item


class TestReadFrameAttribution:
    def test_mid_frame_eof_carries_op_and_shard(self):
        sock = ScriptedSocket([wire._LEN.pack(100), b"only ten b"])
        with pytest.raises(TransportError, match="mid-frame") as info:
            wire.read_frame(sock, op="feature_rows", shard_id=3)
        assert info.value.op == "feature_rows"
        assert info.value.shard_id == 3

    def test_partial_header_eof_carries_op_and_shard(self):
        sock = ScriptedSocket([b"\x00\x00"])  # half a length prefix
        with pytest.raises(TransportError, match="mid-frame") as info:
            wire.read_frame(sock, op="frontier", shard_id=1)
        assert info.value.op == "frontier"
        assert info.value.shard_id == 1

    def test_oversized_frame_length_carries_op_and_shard(self):
        sock = ScriptedSocket([wire._LEN.pack(wire.MAX_FRAME_BYTES + 1)])
        with pytest.raises(TransportError, match="cap") as info:
            wire.read_frame(sock, op="adjacency_rows", shard_id=0)
        assert info.value.op == "adjacency_rows"
        assert info.value.shard_id == 0
        assert info.value.retryable is False

    def test_os_error_carries_op_and_shard(self):
        sock = ScriptedSocket([OSError("connection reset")])
        with pytest.raises(TransportError, match="read failed") as info:
            wire.read_frame(sock, op="feature_rows", shard_id=2)
        assert info.value.op == "feature_rows"
        assert info.value.shard_id == 2

    def test_clean_eof_at_frame_boundary_is_none(self):
        assert wire.read_frame(ScriptedSocket([]), op="frontier", shard_id=5) is None

    def test_context_is_optional(self):
        sock = ScriptedSocket([wire._LEN.pack(8), b"1234"])
        with pytest.raises(TransportError) as info:
            wire.read_frame(sock)
        assert info.value.op is None
        assert info.value.shard_id is None


# ---------------------------------------------------------------------- #
# End to end: a replica killed mid-frame is the only endpoint implicated
# ---------------------------------------------------------------------- #
class MidFrameKillServer:
    """Accepts like a shard server, then dies ten bytes into every answer."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._stopped = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        while not self._stopped:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                wire.read_frame(conn)  # consume one request frame
                # A frame header promising 1000 bytes, then the kill.
                conn.sendall(wire._LEN.pack(1000) + b"x" * 10)
            except Exception:
                pass
            finally:
                conn.close()

    def stop(self):
        self._stopped = True
        try:
            self._listener.close()
        except OSError:
            pass


@pytest.fixture()
def two_shard_store():
    spec = SyntheticGraphSpec(
        num_nodes=200, num_classes=4, avg_degree=6.0, degree_exponent=2.1
    )
    graph, _ = generate_community_graph(spec, rng=9)
    features = (
        np.random.default_rng(2).normal(size=(graph.num_nodes, 5)).astype(np.float32)
    )
    return ShardedGraphStore.from_graph(
        graph, features, ShardConfig(num_shards=2, strategy="degree_balanced"),
        gamma=0.5, dtype=np.float32,
    )


class TestMidFrameKillFailover:
    def test_exactly_the_culpable_replica_goes_unhealthy(self, two_shard_store):
        store = two_shard_store
        targets = np.arange(24)
        oracle = build_support_bundle(store.row_source(), targets, 3)

        rogue = MidFrameKillServer()
        real = ShardServer(store.shards[1]).start()
        rail0 = SocketTransport(
            [rogue.address, real.address], timeout_seconds=10.0
        )
        rail1 = LocalTransport(store.shards)
        transport = ReplicatedTransport(
            [rail0, rail1], retry_policy=NO_RETRY, clock=FakeClock()
        )
        store._set_transport(transport)
        try:
            bundle = build_support_bundle(store.row_source(), targets, 3)
            health = transport.describe()
            stats = transport.stats.as_dict()
        finally:
            store._set_transport(LocalTransport(store.shards))
            rail0.disconnect()
            real.stop()
            rogue.stop()

        # The round survived by failing over, bit-identically.
        np.testing.assert_array_equal(bundle.indptr, oracle.indptr)
        np.testing.assert_array_equal(bundle.indices, oracle.indices)
        np.testing.assert_array_equal(bundle.data, oracle.data)
        np.testing.assert_array_equal(bundle.local_features, oracle.local_features)
        assert stats["failovers"] >= 1

        # Exactly one endpoint is implicated: shard 0 on the rogue rail.
        healthy = {
            (shard_id, endpoint["rail"]): endpoint["healthy"]
            for shard_id, endpoints in health["shards"].items()
            for endpoint in endpoints
        }
        assert healthy[(0, 0)] is False
        assert healthy[(0, 1)] is True
        assert healthy[(1, 0)] is True
        assert healthy[(1, 1)] is True

    def test_the_raised_wire_error_names_the_shard(self, two_shard_store):
        """Without replication the surfaced error itself must attribute."""
        store = two_shard_store
        rogue = MidFrameKillServer()
        real = ShardServer(store.shards[1]).start()
        transport = SocketTransport(
            [rogue.address, real.address], timeout_seconds=10.0
        )
        store._set_transport(transport)
        try:
            with pytest.raises(TransportError) as info:
                build_support_bundle(store.row_source(), np.arange(24), 3)
        finally:
            store._set_transport(LocalTransport(store.shards))
            transport.disconnect()
            real.stop()
            rogue.stop()
        assert info.value.shard_id == 0
        assert info.value.op is not None
