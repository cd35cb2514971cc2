"""Wire formats shared by the gateway parent, workers, and HTTP layer.

One canonical JSON-able shape per payload: evaluation records flatten
to plain dicts (enums as their ``.value``), serve responses carry the
record plus the typed status/error envelope, and ``record_digest``
hashes the canonical form so a record can be checked for bit-identity
against a stored digest (``perfbench`` checks every returned record
this way).

Parent and shard talk over a stream socket in frames: an 8-byte
big-endian payload length, then the payload, a pickle.  The worker
reads and writes frames with blocking calls (:func:`recv_frame`,
:func:`send_frame`); the parent's event loop encodes with
:func:`encode_frame` and cuts its receive buffer with
:func:`decode_frames`.  Both ends are this program, so unpickling a
frame runs only code this program wrote.

Inputs/outputs: :class:`~repro.core.metrics.EvaluationRecord` /
:class:`~repro.serve.engine.ServeResponse` objects in; sorted-key
JSON-compatible dicts and hex digests out.  Two records are equal iff
their canonical dicts are equal iff their digests are equal.  Frames:
any picklable message in, ``bytes`` out, and back.

Thread/process safety: pure functions, no shared state; safe from any
thread or process.  :func:`decode_frames` consumes the buffer it is
given, which belongs to its one caller.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import socket
import struct
from enum import Enum

from repro.core.metrics import EvaluationRecord
from repro.serve.engine import ServeResponse

_FRAME_HEADER = struct.Struct("!Q")


def record_to_dict(record: EvaluationRecord) -> dict:
    """Flatten one evaluation record into a JSON-able dict (enums → values)."""
    out: dict = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        out[field.name] = value.value if isinstance(value, Enum) else value
    return out


def canonical_record_json(record: EvaluationRecord) -> str:
    """Sorted-key JSON of the canonical dict: the bit-identity witness."""
    return json.dumps(record_to_dict(record), sort_keys=True, default=str)


def record_digest(record: EvaluationRecord | None) -> str | None:
    """Stable hex digest of a record's canonical JSON (``None`` passes through)."""
    if record is None:
        return None
    payload = canonical_record_json(record).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def response_to_dict(response: ServeResponse) -> dict:
    """Serialize one serve response (record included) for the HTTP layer.

    Timing fields are intentionally omitted: the HTTP contract exposes
    only deterministic content so two topologies serving the same trace
    return byte-identical bodies.
    """
    return {
        "request": {
            "method": response.request.method,
            "db_id": response.request.db_id,
            "question": response.request.question,
        },
        "status": response.status.value,
        "error": response.error,
        "cached": response.cached,
        "record": None if response.record is None else record_to_dict(response.record),
    }


def encode_frame(message: object) -> bytes:
    """One frame: the 8-byte length of the pickled ``message``, then the pickle."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: object) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> object:
    """Read one frame from a blocking socket; ``EOFError`` once the peer closed."""
    (size,) = _FRAME_HEADER.unpack(_recv_exactly(sock, _FRAME_HEADER.size))
    return pickle.loads(_recv_exactly(sock, size))


def _recv_exactly(sock: socket.socket, size: int) -> bytearray:
    buffer = bytearray(size)
    view = memoryview(buffer)
    received = 0
    while received < size:
        count = sock.recv_into(view[received:])
        if count == 0:
            raise EOFError("the peer closed the stream")
        received += count
    return buffer


def decode_frames(buffer: bytearray) -> list:
    """Remove every complete frame from the front of ``buffer``; their messages.

    A partial frame stays in ``buffer`` until more bytes arrive.
    """
    messages = []
    start = 0
    while len(buffer) - start >= _FRAME_HEADER.size:
        (size,) = _FRAME_HEADER.unpack_from(buffer, start)
        end = start + _FRAME_HEADER.size + size
        if len(buffer) < end:
            break
        messages.append(pickle.loads(buffer[start + _FRAME_HEADER.size:end]))
        start = end
    del buffer[:start]
    return messages
