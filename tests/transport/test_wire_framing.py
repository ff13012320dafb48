"""Copy-free framing: same bytes on the wire, any chunking on the way back.

``wire.send_frame`` gathers a header and array views into the socket and
``wire.read_frame`` fills one preallocated buffer; neither builds the
message as ``bytes``.  These tests pin the two halves against the plain
``frame(encode_*(...))`` form: the sender must emit exactly those bytes,
and the reader must reassemble them however the stream is cut.
"""

import socket
import threading

import numpy as np
import pytest

from repro.exceptions import TransportError
from repro.transport import (
    ALL_OPS,
    OP_ADJACENCY,
    OP_DEGREES,
    OP_FEATURES,
    OP_FRONTIER,
    AdjacencyRows,
    wire,
)


def payloads(dtype):
    rng = np.random.default_rng(3)
    return {
        OP_FRONTIER: np.array([9, 2, 2, 7, 11], dtype=np.int64),
        OP_ADJACENCY: AdjacencyRows(
            lengths=np.array([2, 0, 3], dtype=np.int64),
            columns=np.array([1, 5, 0, 2, 6], dtype=np.int64),
            data=rng.normal(size=5).astype(dtype),
        ),
        OP_FEATURES: rng.normal(size=(6, 5)).astype(dtype),
        OP_DEGREES: np.array([2.0, 5.0, 1.0]),
    }


def assert_payload_equal(decoded, expected):
    if isinstance(expected, AdjacencyRows):
        for name in ("lengths", "columns", "data"):
            np.testing.assert_array_equal(getattr(decoded, name), getattr(expected, name))
            assert getattr(decoded, name).dtype == getattr(expected, name).dtype
    else:
        np.testing.assert_array_equal(decoded, expected)
        assert decoded.dtype == np.asarray(expected).dtype


class RecordingSocket:
    """Accepts at most ``limit`` bytes per ``sendmsg`` — partial writes."""

    def __init__(self, limit):
        self.limit = limit
        self.data = bytearray()
        self.calls = 0

    def sendmsg(self, buffers):
        self.calls += 1
        taken = b"".join(bytes(buffer) for buffer in buffers)[: self.limit]
        self.data += taken
        return len(taken)


class ChunkedSocket:
    """Serves a byte string through ``recv_into`` in scripted chunk sizes."""

    def __init__(self, data, sizes):
        self.data = memoryview(bytes(data))
        self.sizes = sizes
        self.turn = 0

    def recv_into(self, view):
        size = min(self.sizes[self.turn % len(self.sizes)], len(view), len(self.data))
        self.turn += 1
        view[:size] = self.data[:size]
        self.data = self.data[size:]
        return size


class TestSenderGolden:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("limit", [1 << 30, 7])
    def test_response_frames_are_byte_identical(self, dtype, limit):
        for op, payload in payloads(dtype).items():
            sock = RecordingSocket(limit)
            sent = wire.send_frame(sock, wire.response_parts(op, payload))
            golden = wire.frame(wire.encode_response(op, payload))
            assert bytes(sock.data) == golden, op
            assert sent == len(golden)
            if limit >= len(golden):
                assert sock.calls == 1  # one gather write, no staging copy

    @pytest.mark.parametrize("trace", [None, (42, 99)])
    def test_request_frames_are_byte_identical(self, trace):
        rows = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        for op in ALL_OPS:
            sock = RecordingSocket(5)
            wire.send_frame(sock, wire.request_parts(op, rows, trace=trace))
            assert bytes(sock.data) == wire.frame(
                wire.encode_request(op, rows, trace=trace)
            )

    def test_non_contiguous_and_empty_arrays(self):
        wide = np.arange(40, dtype=np.float32).reshape(5, 8)
        for features in (wide[:, ::2], wide[::2], np.empty((0, 4), dtype=np.float32)):
            sock = RecordingSocket(1 << 30)
            wire.send_frame(sock, wire.response_parts(OP_FEATURES, features))
            decoded = wire.decode_response(OP_FEATURES, bytes(sock.data[4:]))
            np.testing.assert_array_equal(decoded, features)

    def test_error_frames(self):
        sock = RecordingSocket(3)
        wire.send_frame(sock, [wire.encode_error("boom")])
        assert bytes(sock.data) == wire.frame(wire.encode_error("boom"))

    def test_oversized_frame_is_refused_before_any_byte_moves(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        sock = RecordingSocket(1 << 30)
        with pytest.raises(TransportError, match="cap") as info:
            wire.send_frame(sock, [b"x" * 17])
        assert info.value.retryable is False
        assert sock.calls == 0


class TestReaderReassembly:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sizes", [[1], [3, 1, 7], [5, 64, 2], [1 << 20]])
    def test_every_op_survives_any_chunking(self, dtype, sizes):
        cases = payloads(dtype)
        stream = b"".join(
            wire.frame(wire.encode_response(op, payload)) for op, payload in cases.items()
        )
        sock = ChunkedSocket(stream, sizes)
        for op, payload in cases.items():
            frame = wire.read_frame(sock, op=op, shard_id=0)
            assert bytes(frame) == wire.encode_response(op, payload)
            assert_payload_equal(wire.decode_response(op, frame), payload)
        assert wire.read_frame(sock) is None  # clean EOF at the boundary

    def test_traced_and_untraced_requests_survive_chunking(self):
        rows = np.arange(17, dtype=np.int64)
        for trace in (None, (7, 8)):
            stream = wire.frame(wire.encode_request(OP_FEATURES, rows, trace=trace))
            frame = wire.read_frame(ChunkedSocket(stream, [1, 2]))
            op, decoded, got_trace = wire.decode_request_traced(frame)
            assert (op, got_trace) == (OP_FEATURES, trace)
            np.testing.assert_array_equal(decoded, rows)

    def test_decoded_arrays_are_read_only_views_of_one_buffer(self):
        features = np.arange(12, dtype=np.float32).reshape(4, 3)
        stream = wire.frame(wire.encode_response(OP_FEATURES, features))
        frame = wire.read_frame(ChunkedSocket(stream, [5]))
        decoded = wire.decode_response(OP_FEATURES, frame)
        assert np.shares_memory(decoded, np.frombuffer(frame, dtype=np.uint8))
        assert not decoded.flags.writeable

    @pytest.mark.parametrize(
        "stream, match",
        [
            (wire._LEN.pack(100) + b"only ten b", "mid-frame"),
            (b"\x00\x00", "mid-frame"),
            (wire._LEN.pack(wire.MAX_FRAME_BYTES + 1), "cap"),
        ],
    )
    def test_broken_streams_raise_attributed_errors(self, stream, match):
        with pytest.raises(TransportError, match=match) as info:
            wire.read_frame(ChunkedSocket(stream, [3]), op=OP_FEATURES, shard_id=4)
        assert info.value.op == OP_FEATURES
        assert info.value.shard_id == 4


class TestOverARealSocket:
    def test_large_frame_crosses_a_socketpair_intact(self):
        """Bigger than the socket buffer: partial sendmsg and short recv_into."""
        features = np.random.default_rng(0).normal(size=(4096, 64)).astype(np.float32)
        left, right = socket.socketpair()
        try:
            sender = threading.Thread(
                target=wire.send_frame,
                args=(left, wire.response_parts(OP_FEATURES, features)),
            )
            sender.start()
            frame = wire.read_frame(right, op=OP_FEATURES, shard_id=0)
            sender.join(timeout=10.0)
            np.testing.assert_array_equal(
                wire.decode_response(OP_FEATURES, frame), features
            )
            left.close()
            assert wire.read_frame(right) is None
        finally:
            left.close()
            right.close()

    def test_peer_closing_mid_frame_raises_with_context(self):
        left, right = socket.socketpair()
        try:
            left.sendall(wire._LEN.pack(1000) + b"x" * 10)
            left.close()
            with pytest.raises(TransportError, match="mid-frame") as info:
                wire.read_frame(right, op=OP_ADJACENCY, shard_id=1)
            assert (info.value.op, info.value.shard_id) == (OP_ADJACENCY, 1)
        finally:
            right.close()
