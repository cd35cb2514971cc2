"""repro.serve.gateway: sharded multi-process serving behind HTTP.

The horizontal scale-out layer over :class:`repro.serve.ServingEngine`:
a :class:`HashRing` partitions databases across spawn-context worker
processes, :class:`ShardedGateway` routes requests/writes/invalidations
to owner shards and merges their metrics, and
:class:`GatewayHTTPServer` fronts it all with ``/query`` / ``/healthz``
/ ``/metrics`` endpoints.  See docs/SERVING.md ("The sharded gateway")
for the full contract.
"""

from repro.serve.gateway.cluster import (
    DEFAULT_CHUNK_SIZE,
    GatewayStats,
    ShardedGateway,
)
from repro.serve.gateway.http import GatewayHTTPClient, GatewayHTTPServer
from repro.serve.gateway.ring import DEFAULT_VNODES, HashRing, stable_hash
from repro.serve.gateway.wire import (
    canonical_record_json,
    query_body,
    record_digest,
    record_to_dict,
    response_to_dict,
)
from repro.serve.gateway.worker import owned_db_ids, worker_main

__all__ = [
    "HashRing",
    "stable_hash",
    "DEFAULT_VNODES",
    "ShardedGateway",
    "GatewayStats",
    "DEFAULT_CHUNK_SIZE",
    "GatewayHTTPServer",
    "GatewayHTTPClient",
    "worker_main",
    "owned_db_ids",
    "record_to_dict",
    "record_digest",
    "canonical_record_json",
    "response_to_dict",
    "query_body",
]
