"""Gateway shard worker: one process, one ServingEngine, owned databases.

``worker_main`` is the spawn target for every gateway shard.  Workers
are started with the **spawn** context on purpose: nothing module-level
is inherited from the parent, so the one process-global switch, the
``repro.utils.cache`` memo switch, must arrive explicitly as the
``caches`` bool of the handshake — the single-process engine's habit of
"whatever the module globals happen to say" does not survive scale-out,
and making propagation explicit is the point.  The ``ping`` reply
reports the value the worker applied.

Each worker rebuilds the dataset deterministically from the picklable
:class:`~repro.datagen.benchmark.BenchmarkConfig` (the gateway parent
holds no dataset whose image it could send, as the parallel evaluator
does), derives its owned ``db_id`` slice from the
shared :class:`~repro.serve.gateway.ring.HashRing` parameters, and runs
a :class:`~repro.serve.engine.ServingEngine` restricted to that slice
(``ServeConfig.db_ids``) under its own ambient tracer.  The parent
talks to it over its end of a socket pair, in the frames of
:mod:`repro.serve.gateway.wire`, with ``(op, batch_id, ...)`` tuples;
every request gets a ``(batch_id, ("ok" | "error", payload))`` reply,
in the order the requests arrived.  After each reply the worker drains
its tracer and folds the stage spans of the computations it ran into
the tracer's registry with :func:`~repro.obs.registry.ingest_span`, as
offline runs do, so a shard keeps no span: ``/metrics`` carries them
as ``stage_seconds``, ``failures``, ``llm_calls`` and the span-counter
families.  Before a ``metrics`` reply the engine also folds in its
response-cache and read-path counters' growth since the last reply.

Inputs/outputs: frames in (``serve`` / ``apply`` / ``invalidate`` /
``stats`` / ``metrics`` / ``ping`` / ``shutdown``); counter dicts, the
shard's :class:`~repro.obs.registry.MetricsRegistry` (for ``metrics``),
or the replies to ``serve``, which come in one of two
forms.  A ``serve`` message is ``("serve", batch_id, items, bodies)``:
with ``bodies`` false the reply is the
:class:`~repro.serve.engine.ServeResponse` list (what
:meth:`~repro.serve.gateway.cluster.ShardedGateway.serve_many`
returns); with ``bodies`` true it is each response's finished ``/query``
body (:func:`~repro.serve.gateway.wire.query_body`), so the gateway's
loop forwards bytes and never decodes a response or a record.

Thread/process safety: ``worker_main`` owns its process and services
the socket from one loop with blocking reads and writes.  The parent
never blocks on the socket: its event loop reads every reply as it
arrives, so a worker's large reply cannot stall behind a large
request.
"""

from __future__ import annotations

import os
import socket
from dataclasses import replace

from repro.datagen.benchmark import BenchmarkConfig, build_benchmark
from repro.obs.registry import ingest_span
from repro.obs.trace import Tracer, tracing
from repro.serve.engine import ServeConfig, ServeRequest, ServingEngine
from repro.serve.gateway.ring import HashRing
from repro.serve.gateway.wire import query_body, recv_frame, send_frame
from repro.utils.cache import caches_enabled, set_caches_enabled


def owned_db_ids(dataset_db_ids: list[str], shard_id: int, ring: HashRing) -> list[str]:
    """The sorted slice of ``dataset_db_ids`` this shard owns."""
    return [db_id for db_id in sorted(dataset_db_ids) if ring.owner(db_id) == shard_id]


def worker_main(
    sock: socket.socket,
    shard_id: int,
    shards: int,
    vnodes: int,
    dataset_config: BenchmarkConfig,
    serve_config: ServeConfig,
    caches: bool,
) -> None:
    """Run one shard worker until a ``shutdown`` message arrives."""
    # Explicit switch propagation: under spawn the memo switch resets to
    # its default, so the parent's choice must be re-applied here.
    set_caches_enabled(caches)
    dataset = build_benchmark(dataset_config)
    ring = HashRing(shards, vnodes)
    owned = owned_db_ids(list(dataset.databases), shard_id, ring)
    config = replace(serve_config, db_ids=tuple(owned))
    tracer = Tracer()
    with tracing(tracer):
        engine = ServingEngine(dataset, config)
        engine.start()
        try:
            _serve_loop(sock, engine, dataset, tracer, shard_id, owned)
        finally:
            engine.close()
            sock.close()


def _serve_loop(sock, engine, dataset, tracer, shard_id, owned) -> None:
    while True:
        try:
            message = recv_frame(sock)
        except EOFError:
            return  # the gateway closed its end
        op = message[0]
        if op == "shutdown":
            return
        batch_id = message[1]
        try:
            payload = _dispatch(message, engine, dataset, tracer, shard_id, owned)
        except Exception as exc:  # noqa: BLE001 - worker must keep serving
            send_frame(sock, (batch_id, ("error", f"{type(exc).__name__}: {exc}")))
        else:
            send_frame(sock, (batch_id, ("ok", payload)))
        # Off the reply's path: the next message, a ``metrics`` one
        # included, finds these spans in the registry and none kept.
        for span in tracer.drain():
            ingest_span(tracer.metrics, dataset.name, span)


def _dispatch(message, engine, dataset, tracer, shard_id, owned):
    op = message[0]
    if op == "serve":
        _, _, items, bodies = message
        responses = engine.serve([
            ServeRequest(method, db_id, question, deadline_s)
            for method, db_id, question, deadline_s in items
        ])
        return [query_body(response) for response in responses] if bodies else responses
    if op == "apply":
        _, _, db_id, sql = message
        database = dataset.databases[db_id]
        affected = database.apply_write(sql)
        return {"affected": affected, "data_version": database.data_version}
    if op == "invalidate":
        _, _, db_id = message
        database = dataset.databases[db_id]
        database.mark_mutated()
        return {"data_version": database.data_version}
    if op == "stats":
        return {
            "shard": shard_id,
            "db_ids": list(owned),
            "engine": engine.stats.as_dict(),
            "cache": engine.cache_stats(),
            "pool": engine.pool_stats(),
        }
    if op == "metrics":
        engine._fold_counters()
        return tracer.metrics
    if op == "ping":
        return {
            "shard": shard_id,
            "pid": os.getpid(),
            "db_ids": list(owned),
            "caches": caches_enabled(),
        }
    raise ValueError(f"unknown gateway op {op!r}")
