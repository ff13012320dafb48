"""Wire format of the socket shard transport.

Every message is one length-prefixed frame::

    [u32 frame_length] [payload ...]

Request payloads::

    [u8 opcode] [u64 num_rows] [int64 rows ...]

Response payloads::

    [u8 status] [body ...]

``status`` is 0 (OK — body is the op-specific encoding below) or 1 (error —
body is a UTF-8 message re-raised at the client as
:class:`~repro.exceptions.TransportError`).  Arrays travel as raw
little-endian buffers tagged with a dtype code, so a response decodes with
one ``np.frombuffer`` per array — no pickling, no per-element parsing.

A message is never re-materialised on its way through this module.  The
encoders (:func:`request_parts`, :func:`response_parts`) return a short
header plus *views* of the arrays, :func:`send_frame` hands those buffers
to one gather write, :func:`read_frame` fills a single preallocated buffer
with ``recv_into``, and the decoders take array views of that buffer at
computed offsets.  Per side, a payload byte is copied once: array → kernel
on send, kernel → receive buffer on read.  :func:`encode_request`,
:func:`encode_response` and :func:`frame` are the same encodings joined
into ``bytes`` — the form tests and tools compare against.

OK bodies by operation::

    frontier_columns:  [u64 count]                      [int64 columns]
    adjacency_rows:    [u64 rows] [u64 nnz] [u8 dtype]  [int64 lengths]
                                                        [int64 columns]
                                                        [dtype data]
    feature_rows:      [u64 rows] [u64 cols] [u8 dtype] [dtype data]
    degree_rows:       [u64 rows]                       [float64 data]
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import TransportError
from .base import (
    ALL_OPS,
    OP_ADJACENCY,
    OP_DEGREES,
    OP_FEATURES,
    OP_FRONTIER,
    AdjacencyRows,
)

_LEN = struct.Struct("<I")
_REQ_HEAD = struct.Struct("<BQ")
_U64 = struct.Struct("<Q")
_U64x2 = struct.Struct("<QQ")

OPCODES = {op: code for code, op in enumerate(ALL_OPS)}
OPS_BY_CODE = {code: op for op, code in OPCODES.items()}

STATUS_OK = 0
STATUS_ERROR = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPES_BY_CODE = {code: dtype for dtype, code in _DTYPE_CODES.items()}

#: Upper bound on a single frame (1 GiB) — a corrupt length prefix must not
#: trigger a gigantic allocation.
MAX_FRAME_BYTES = 1 << 30


def _raw(array, dtype=None) -> memoryview:
    """The bytes of ``array`` (C order, optionally cast) as a flat view."""
    return np.ascontiguousarray(array, dtype=dtype).reshape(-1).view(np.uint8).data


def _i64(array) -> memoryview:
    return _raw(array, "<i8")


def _dtype_code(dtype: np.dtype) -> int:
    try:
        return _DTYPE_CODES[np.dtype(dtype)]
    except KeyError:
        raise TransportError(
            f"dtype {dtype} is not wire-encodable", retryable=False
        ) from None


def _dtype_from_code(code: int) -> np.dtype:
    try:
        return _DTYPES_BY_CODE[code]
    except KeyError:
        raise TransportError(
            f"corrupt response: unknown dtype code {code}", retryable=False
        ) from None


#: High bit of the opcode byte flags an appended trace header (see below);
#: untraced requests stay byte-identical to the pre-tracing wire format.
TRACE_FLAG = 0x80


def request_parts(
    op: str, rows: np.ndarray, *, trace: tuple[int, int] | None = None
) -> list:
    """One request as ``[head, rows view]``; ``trace`` rides in-band.

    A traced request sets :data:`TRACE_FLAG` on the opcode and inserts
    ``[u64 trace_id] [u64 span_id]`` between the head and the rows, so the
    serving shard can mint spans that stitch into the caller's trace.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if trace is None:
        return [_REQ_HEAD.pack(OPCODES[op], rows.shape[0]), _i64(rows)]
    return [
        _REQ_HEAD.pack(OPCODES[op] | TRACE_FLAG, rows.shape[0])
        + _U64x2.pack(*trace),
        _i64(rows),
    ]


def encode_request(
    op: str, rows: np.ndarray, *, trace: tuple[int, int] | None = None
) -> bytes:
    """:func:`request_parts` joined into one ``bytes`` payload."""
    return b"".join(request_parts(op, rows, trace=trace))


def decode_request(payload: bytes) -> tuple[str, np.ndarray]:
    """Decode a request, dropping any trace header (compatibility surface)."""
    op, rows, _ = decode_request_traced(payload)
    return op, rows


def decode_request_traced(
    payload: bytes,
) -> tuple[str, np.ndarray, tuple[int, int] | None]:
    """Decode a request plus its ``(trace_id, span_id)`` header, if present."""
    opcode, num_rows = _REQ_HEAD.unpack_from(payload)
    trace = None
    offset = _REQ_HEAD.size
    if opcode & TRACE_FLAG:
        opcode &= ~TRACE_FLAG
        trace = _U64x2.unpack_from(payload, offset)
        offset += _U64x2.size
    if opcode not in OPS_BY_CODE:
        raise TransportError(f"unknown opcode {opcode}", retryable=False)
    rows = np.frombuffer(
        payload, dtype="<i8", count=num_rows, offset=offset
    ).astype(np.int64, copy=False)
    return OPS_BY_CODE[opcode], rows, trace


def encode_error(message: str) -> bytes:
    return bytes([STATUS_ERROR]) + message.encode("utf-8", errors="replace")


def response_parts(op: str, payload) -> list:
    """One OK response as ``[head, array view, ...]`` — nothing is copied."""
    head = bytes([STATUS_OK])
    if op == OP_FRONTIER:
        cols = np.asarray(payload, dtype=np.int64)
        return [head + _U64.pack(cols.shape[0]), _i64(cols)]
    if op == OP_ADJACENCY:
        assert isinstance(payload, AdjacencyRows)
        return [
            head
            + _U64x2.pack(payload.lengths.shape[0], payload.columns.shape[0])
            + bytes([_dtype_code(payload.data.dtype)]),
            _i64(payload.lengths),
            _i64(payload.columns),
            _raw(payload.data),
        ]
    if op == OP_FEATURES:
        rows = np.asarray(payload)
        return [
            head + _U64x2.pack(*rows.shape) + bytes([_dtype_code(rows.dtype)]),
            _raw(rows),
        ]
    if op == OP_DEGREES:
        degrees = np.asarray(payload, dtype=np.float64)
        return [head + _U64.pack(degrees.shape[0]), _raw(degrees)]
    raise ValueError(f"unknown transport operation {op!r}")


def encode_response(op: str, payload) -> bytes:
    """:func:`response_parts` joined into one ``bytes`` payload."""
    return b"".join(response_parts(op, payload))


def decode_response(op: str, payload):
    """Decode a response payload (any buffer) into views of that buffer."""
    status = payload[0]
    if status == STATUS_ERROR:
        message = str(memoryview(payload)[1:], "utf-8", errors="replace")
        raise TransportError(message, op=op)
    if status != STATUS_OK:
        raise TransportError(f"corrupt response status {status}", op=op)
    offset = 1  # the body starts after the status byte
    if op == OP_FRONTIER:
        (count,) = _U64.unpack_from(payload, offset)
        return np.frombuffer(
            payload, dtype="<i8", count=count, offset=offset + _U64.size
        ).astype(np.int64, copy=False)
    if op == OP_ADJACENCY:
        num_rows, nnz = _U64x2.unpack_from(payload, offset)
        offset += _U64x2.size
        dtype = _dtype_from_code(payload[offset])
        offset += 1
        lengths = np.frombuffer(payload, dtype="<i8", count=num_rows, offset=offset)
        offset += lengths.nbytes
        columns = np.frombuffer(payload, dtype="<i8", count=nnz, offset=offset)
        offset += columns.nbytes
        data = np.frombuffer(
            payload, dtype=dtype.newbyteorder("<"), count=nnz, offset=offset
        )
        return AdjacencyRows(
            lengths=lengths.astype(np.int64, copy=False),
            columns=columns.astype(np.int64, copy=False),
            data=data.astype(dtype, copy=False),
        )
    if op == OP_FEATURES:
        num_rows, num_cols = _U64x2.unpack_from(payload, offset)
        offset += _U64x2.size
        dtype = _dtype_from_code(payload[offset])
        flat = np.frombuffer(
            payload,
            dtype=dtype.newbyteorder("<"),
            count=num_rows * num_cols,
            offset=offset + 1,
        )
        return flat.astype(dtype, copy=False).reshape(num_rows, num_cols)
    if op == OP_DEGREES:
        (num_rows,) = _U64.unpack_from(payload, offset)
        return np.frombuffer(
            payload, dtype="<f8", count=num_rows, offset=offset + _U64.size
        ).astype(np.float64, copy=False)
    raise ValueError(f"unknown transport operation {op!r}")


def _check_frame_length(
    length: int, *, op: str | None = None, shard_id: int | None = None
) -> None:
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            retryable=False,
            op=op,
            shard_id=shard_id,
        )


def frame(payload: bytes) -> bytes:
    """Length-prefix ``payload`` into one wire frame (the ``bytes`` form)."""
    _check_frame_length(len(payload))
    return _LEN.pack(len(payload)) + payload


def send_frame(sock, parts) -> int:
    """Write ``parts`` as one frame with gather writes; returns bytes sent.

    Emits exactly ``frame(b"".join(parts))`` without building it: the
    length prefix and every part go to ``sendmsg`` as separate buffers (one
    syscall unless the kernel takes a partial write).  ``OSError`` from the
    socket propagates — the caller owns the connection's fate.
    """
    pending = [memoryview(part) for part in parts if len(part)]
    length = sum(view.nbytes for view in pending)
    _check_frame_length(length)
    pending.insert(0, memoryview(_LEN.pack(length)))
    while pending:
        sent = sock.sendmsg(pending)
        while pending and sent >= pending[0].nbytes:
            sent -= pending.pop(0).nbytes
        if sent:
            pending[0] = pending[0][sent:]
    return _LEN.size + length


#: Payloads are read at this offset of a fresh (aligned) buffer so that the
#: response body — one status byte in — and with it every 8-byte array that
#: directly follows a u64 header starts on an 8-byte boundary.
_BODY_ALIGN_PAD = 7


def read_frame(
    sock, *, op: str | None = None, shard_id: int | None = None
) -> memoryview | None:
    """Read one frame from ``sock``; ``None`` on clean EOF at a boundary.

    The payload is received straight into one preallocated buffer and
    returned as a read-only view of it; the decoders hand out array views
    of the same memory.

    Raises :class:`~repro.exceptions.TransportError` on a mid-frame
    disconnect (short read) — the caller must treat the connection as dead.
    Callers that know the in-flight operation pass ``op``/``shard_id`` so
    every raised error carries them: replica failover attributes a culprit
    endpoint from ``error.shard_id``, and an anonymous error forces it to
    implicate the whole sub-round instead of exactly the dead replica.
    """
    header = bytearray(_LEN.size)
    if not _read_exact(sock, memoryview(header), eof_ok=True, op=op, shard_id=shard_id):
        return None
    (length,) = _LEN.unpack(header)
    _check_frame_length(length, op=op, shard_id=shard_id)
    buffer = np.empty(_BODY_ALIGN_PAD + length, dtype=np.uint8)
    payload = memoryview(buffer)[_BODY_ALIGN_PAD:]
    _read_exact(sock, payload, eof_ok=False, op=op, shard_id=shard_id)
    return payload.toreadonly()


def _read_exact(
    sock,
    view: memoryview,
    *,
    eof_ok: bool,
    op: str | None = None,
    shard_id: int | None = None,
) -> bool:
    """Fill ``view`` from ``sock``; false on EOF before the first byte."""
    # Duck-typed sockets that only implement ``recv`` still work.
    recv_into = getattr(sock, "recv_into", None)
    count = len(view)
    got = 0
    while got < count:
        try:
            if recv_into is not None:
                received = recv_into(view[got:])
            else:
                chunk = sock.recv(count - got)
                received = len(chunk)
                view[got : got + received] = chunk
        except OSError as error:
            raise TransportError(
                f"socket read failed: {error}", op=op, shard_id=shard_id
            ) from error
        if not received:
            if eof_ok and got == 0:
                return False
            raise TransportError(
                f"connection closed mid-frame ({got}/{count} bytes read)",
                op=op,
                shard_id=shard_id,
            )
        got += received
    return True
