"""repro.serve: online NL2SQL serving over the offline evaluation pipeline.

:mod:`repro.serve.engine` is the request scheduler (micro-batching,
in-flight coalescing, admission control, deadlines, warm start);
:mod:`repro.serve.scheduler` opens one decode window per micro-batch so
member requests' decoder draws run through the model's batched
``generate_many`` path (bit-identical candidates, hoisted per-question
work); :mod:`repro.serve.cache` is the cross-request response cache tier
(LRU, ``data_version``-invalidated); :mod:`repro.serve.workload`
generates seeded Zipf-skewed request streams; :mod:`repro.serve.gateway`
shards databases across spawn-context worker processes behind an async
HTTP gateway (``/query`` / ``/healthz`` / ``/metrics``).  See
docs/SERVING.md for the architecture and knob reference; serving speed
is measured by the ``serve_zipf_writes`` and ``gateway_http`` workloads
of ``perfbench/``.

Served responses are bit-identical to offline
:class:`~repro.core.evaluator.Evaluator` records under any concurrency,
batching, or coalescing schedule.  A :class:`ServeResponse` is the one
per-request record: under a tracer, :func:`ingest_serve_span` folds it
into the ``serve_*`` metrics, and each gateway shard folds its stage
spans with :func:`~repro.obs.registry.ingest_span` and returns its
registry for the gateway to merge with
:meth:`~repro.obs.registry.MetricsRegistry.merge`.
"""

from repro.serve.cache import DEFAULT_RESPONSE_CACHE_SIZE, ResponseCache
from repro.serve.engine import (
    ServeConfig,
    ServeFuture,
    ServeRequest,
    ServeResponse,
    ServeStats,
    ServeStatus,
    ServingEngine,
    ingest_serve_span,
    question_index,
)
from repro.serve.gateway import (
    GatewayHTTPClient,
    GatewayHTTPServer,
    GatewayStats,
    HashRing,
    ShardedGateway,
)
from repro.serve.scheduler import DecodeScheduler, DecodeWindowStats
from repro.serve.workload import WorkloadSpec, build_workload

__all__ = [
    "DecodeScheduler",
    "DecodeWindowStats",
    "HashRing",
    "ShardedGateway",
    "GatewayStats",
    "GatewayHTTPServer",
    "GatewayHTTPClient",
    "DEFAULT_RESPONSE_CACHE_SIZE",
    "ResponseCache",
    "ServeConfig",
    "ServeFuture",
    "ServeRequest",
    "ServeResponse",
    "ServeStats",
    "ServeStatus",
    "ServingEngine",
    "ingest_serve_span",
    "question_index",
    "WorkloadSpec",
    "build_workload",
]
