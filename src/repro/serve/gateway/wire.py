"""Wire formats shared by the gateway parent, workers, and HTTP layer.

One canonical JSON-able shape per payload: evaluation records flatten
to plain dicts (enums as their ``.value``), serve responses carry the
record plus the typed status/error envelope, and ``record_digest``
hashes the canonical form so a record can be checked for bit-identity
against a stored digest (``perfbench`` checks every returned record
this way).

Inputs/outputs: :class:`~repro.core.metrics.EvaluationRecord` /
:class:`~repro.serve.engine.ServeResponse` objects in; sorted-key
JSON-compatible dicts and hex digests out.  Two records are equal iff
their canonical dicts are equal iff their digests are equal.

Thread/process safety: pure functions, no shared state; safe from any
thread or process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum

from repro.core.metrics import EvaluationRecord
from repro.serve.engine import ServeResponse


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
