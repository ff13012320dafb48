"""Unit tests for the transport layer: wire format, backends, stats."""

import numpy as np
import pytest

from repro.core import ShardConfig
from repro.exceptions import GraphConstructionError, TransportError
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.graph.sampling import build_support_bundle
from repro.serving import FakeClock
from repro.shard import ShardedGraphStore
from repro.transport import (
    ALL_OPS,
    OP_ADJACENCY,
    OP_FEATURES,
    OP_FRONTIER,
    AdjacencyRows,
    FaultInjectingTransport,
    LocalTransport,
    ShardServerGroup,
    SocketTransport,
)
from repro.transport import wire
from repro.transport.base import answer_from_shard


@pytest.fixture(scope="module")
def store():
    spec = SyntheticGraphSpec(
        num_nodes=180, num_classes=4, avg_degree=6.0, degree_exponent=2.0
    )
    graph, _ = generate_community_graph(spec, rng=5)
    features = np.random.default_rng(1).normal(
        size=(graph.num_nodes, 7)
    ).astype(np.float32)
    return ShardedGraphStore.from_graph(
        graph, features, ShardConfig(num_shards=3, strategy="hash"),
        gamma=0.5, dtype=np.float32,
    )


class TestWireFormat:
    def test_request_roundtrip(self):
        for op in ALL_OPS:
            rows = np.array([3, 1, 4, 1, 5], dtype=np.int64)
            decoded_op, decoded_rows = wire.decode_request(
                wire.encode_request(op, rows)
            )
            assert decoded_op == op
            np.testing.assert_array_equal(decoded_rows, rows)

    def test_empty_rows_roundtrip(self):
        op, rows = wire.decode_request(
            wire.encode_request(OP_FRONTIER, np.empty(0, dtype=np.int64))
        )
        assert op == OP_FRONTIER and rows.shape == (0,)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_response_roundtrips(self, dtype):
        rng = np.random.default_rng(0)
        cases = {
            OP_FRONTIER: np.array([9, 2, 2, 7], dtype=np.int64),
            OP_ADJACENCY: AdjacencyRows(
                lengths=np.array([2, 0, 3], dtype=np.int64),
                columns=np.array([1, 5, 0, 2, 6], dtype=np.int64),
                data=rng.normal(size=5).astype(dtype),
            ),
            OP_FEATURES: rng.normal(size=(4, 3)).astype(dtype),
            "degree_rows": np.array([2.0, 5.0, 1.0]),
        }
        for op, payload in cases.items():
            decoded = wire.decode_response(op, wire.encode_response(op, payload))
            if isinstance(payload, AdjacencyRows):
                for name in ("lengths", "columns", "data"):
                    np.testing.assert_array_equal(
                        getattr(decoded, name), getattr(payload, name)
                    )
                    assert getattr(decoded, name).dtype == getattr(payload, name).dtype
            else:
                np.testing.assert_array_equal(decoded, payload)
                assert decoded.dtype == np.asarray(payload).dtype

    def test_error_response_raises_at_decode(self):
        with pytest.raises(TransportError, match="boom"):
            wire.decode_response(OP_FRONTIER, wire.encode_error("boom"))

    def test_corrupt_dtype_code_raises_transport_error(self):
        encoded = bytearray(
            wire.encode_response(OP_FEATURES, np.zeros((1, 2), dtype=np.float32))
        )
        encoded[1 + 16] = 99  # status byte + two u64 dims, then the dtype code
        with pytest.raises(TransportError, match="dtype code"):
            wire.decode_response(OP_FEATURES, bytes(encoded))

    def test_oversized_frame_rejected_on_read(self):
        import struct

        class FakeSocket:
            def __init__(self, data):
                self.data = data

            def recv(self, count):
                chunk, self.data = self.data[:count], self.data[count:]
                return chunk

        corrupt = struct.pack("<I", wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(TransportError, match="cap"):
            wire.read_frame(FakeSocket(corrupt))


class TestLocalTransport:
    def test_matches_direct_shard_answers(self, store):
        transport = LocalTransport(store.shards)
        rows = np.array([0, 2, 5], dtype=np.int64)
        for op in ALL_OPS:
            payloads = transport.fetch(op, [(1, rows)])
            expected = answer_from_shard(store.shards[1], op, rows)
            if isinstance(expected, AdjacencyRows):
                for name in ("lengths", "columns", "data"):
                    np.testing.assert_array_equal(
                        getattr(payloads[0], name), getattr(expected, name)
                    )
            else:
                np.testing.assert_array_equal(payloads[0], expected)

    def test_out_of_range_shard_raises(self, store):
        transport = LocalTransport(store.shards)
        with pytest.raises(TransportError):
            transport.frontier_columns([(9, np.array([0]))])

    def test_closed_transport_raises(self, store):
        transport = LocalTransport(store.shards)
        transport.close()
        with pytest.raises(TransportError):
            transport.feature_rows([(0, np.array([0]))])

    def test_stats_count_rounds_and_bytes(self, store):
        transport = LocalTransport(store.shards)
        transport.feature_rows([(0, np.array([0, 1])), (1, np.array([0]))])
        stats = transport.stats.as_dict()
        assert stats["rounds"] == 1
        assert stats["requests"][OP_FEATURES] == 2
        assert stats["response_bytes"] == 3 * store.num_features * 4
        assert stats["request_bytes"] == 3 * 8


class TestSocketTransport:
    def test_pipelined_round_matches_local(self, store):
        local = LocalTransport(store.shards)
        rows = np.array([1, 3], dtype=np.int64)
        requests = [(0, rows), (2, rows), (0, np.array([4], dtype=np.int64))]
        with ShardServerGroup(store.shards) as group:
            with group.connect() as remote:
                for op in ALL_OPS:
                    mine = remote.fetch(op, requests)
                    reference = local.fetch(op, requests)
                    for got, expected in zip(mine, reference):
                        if isinstance(expected, AdjacencyRows):
                            for name in ("lengths", "columns", "data"):
                                np.testing.assert_array_equal(
                                    getattr(got, name), getattr(expected, name)
                                )
                        else:
                            np.testing.assert_array_equal(got, expected)
                # One connection per touched shard, reused across 4 rounds;
                # nothing failed, so no re-dials happened.
                assert remote.connections_opened == 2
                assert remote.reconnects == 0
                assert remote.wire_bytes_sent > 0
                assert remote.wire_bytes_received > 0

    def test_server_side_error_propagates_and_connection_survives(self, store):
        with ShardServerGroup(store.shards) as group:
            with group.connect() as remote:
                with pytest.raises(TransportError, match="out of range"):
                    remote.feature_rows([(0, np.array([10 ** 6]))])
                opened = remote.connections_opened
                # The error travelled as a response frame — the connection is
                # still healthy and the next round reuses it.
                payloads = remote.feature_rows([(0, np.array([0]))])
                assert payloads[0].shape == (1, store.num_features)
                assert remote.connections_opened == opened
                assert remote.reconnects == 0

    def test_unreachable_server_raises_not_hangs(self):
        transport = SocketTransport(
            [("127.0.0.1", 1)], timeout_seconds=2.0
        )
        with pytest.raises(TransportError, match="connect"):
            transport.frontier_columns([(0, np.array([0]))])

    def test_serve_shard_as_forked_process_target(self, store):
        """One shard served from a *separate process*, fetched over TCP."""
        multiprocessing = pytest.importorskip("multiprocessing")
        from repro.transport import serve_shard

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork start method unavailable")
        ready = context.Event()
        port_out = context.Value("i", 0)
        process = context.Process(
            target=serve_shard,
            kwargs={"shard": store.shards[0], "ready": ready, "port_out": port_out},
            daemon=True,
        )
        process.start()
        try:
            assert ready.wait(10.0)
            transport = SocketTransport(
                [("127.0.0.1", port_out.value)], timeout_seconds=10.0
            )
            with transport:
                rows = np.array([0, 1, 2], dtype=np.int64)
                payloads = transport.feature_rows([(0, rows)])
            np.testing.assert_array_equal(
                payloads[0], store.shards[0].features[rows]
            )
        finally:
            process.terminate()
            process.join(5.0)


class TestFaultInjectingTransport:
    def test_script_validation(self, store):
        with pytest.raises(ValueError):
            FaultInjectingTransport(
                LocalTransport(store.shards), script=["ok", "explode"]
            )

    def test_scripted_drop_then_recovery(self, store):
        fault = FaultInjectingTransport(
            LocalTransport(store.shards), script=["drop", "ok"]
        )
        rows = np.array([0], dtype=np.int64)
        with pytest.raises(TransportError, match="injected drop"):
            fault.feature_rows([(0, rows)])
        assert fault.faults_injected == 1
        payloads = fault.feature_rows([(0, rows)])
        np.testing.assert_array_equal(payloads[0], store.shards[0].features[:1])

    def test_disconnect_blocks_until_reconnect(self, store):
        fault = FaultInjectingTransport(LocalTransport(store.shards))
        fault.disconnect()
        with pytest.raises(TransportError):
            fault.degree_rows([(0, np.array([0]))])
        with pytest.raises(TransportError):
            fault.degree_rows([(0, np.array([0]))])
        fault.reconnect()
        payloads = fault.degree_rows([(0, np.array([0]))])
        np.testing.assert_array_equal(
            payloads[0], store.shards[0].degrees_with_loops[:1]
        )

    def test_latency_charged_to_injected_clock(self, store):
        clock = FakeClock()
        fault = FaultInjectingTransport(
            LocalTransport(store.shards), latency_seconds=0.25, clock=clock
        )
        fault.feature_rows([(0, np.array([0]))])
        fault.feature_rows([(1, np.array([0]))])
        assert clock.now() == pytest.approx(0.5)

    def test_reorder_returns_caller_order(self, store):
        fault = FaultInjectingTransport(LocalTransport(store.shards), reorder=True)
        requests = [
            (0, np.array([0, 1], dtype=np.int64)),
            (1, np.array([2], dtype=np.int64)),
            (2, np.array([0], dtype=np.int64)),
        ]
        reference = LocalTransport(store.shards).feature_rows(requests)
        mine = fault.feature_rows(requests)
        for got, expected in zip(mine, reference):
            np.testing.assert_array_equal(got, expected)


class TestStoreTransportPlumbing:
    def test_set_transport_validates_shard_count(self, store):
        with pytest.raises(GraphConstructionError):
            store._set_transport(LocalTransport(store.shards[:1]))

    def test_fetch_degrees_matches_owner_slices(self, store):
        node_ids = np.arange(0, store.num_nodes, 3)
        degrees = store.fetch_degrees(node_ids, home_shard=0)
        owners = store.plan.owner[node_ids]
        rows = store.local_rows(node_ids)
        expected = np.empty(node_ids.shape[0])
        for shard in store.shards:
            mask = owners == shard.shard_id
            expected[mask] = shard.degrees_with_loops[rows[mask]]
        np.testing.assert_array_equal(degrees, expected)
        assert store.traffic.degree_rows_local + store.traffic.degree_rows_remote > 0

    def test_traffic_counts_bytes_with_home_shard(self, store):
        before = store.traffic.bytes_local + store.traffic.bytes_remote
        build_support_bundle(store.row_source(0), store.shards[0].owned[:6], 2)
        after = store.traffic.bytes_local + store.traffic.bytes_remote
        assert after > before
        payload = store.traffic.as_dict()
        for key in ("bytes_local", "bytes_remote", "remote_byte_fraction"):
            assert key in payload
