"""Sharded gateway: a pool of spawn-context shard workers plus routing.

:class:`ShardedGateway` is the parent-side half of the scale-out layer.
It spawns ``shards`` worker processes (each running
:func:`~repro.serve.gateway.worker.worker_main` over its ring-owned
database slice), routes every request to the owner shard via the shared
:class:`~repro.serve.gateway.ring.HashRing`, and re-assembles responses
in request order.  Writes (``apply_write``) and out-of-band
invalidations route the same way, so ``Database.mark_mutated`` events
reach the shard whose response cache and replica pool actually hold the
stale state — :meth:`attach_dataset` bridges parent-side mutation
listeners across the process boundary.

Workers are deliberately started with the **spawn** context and handed
the parent's one module-global switch, the memo switch
(:func:`~repro.utils.cache.caches_enabled`), as a ``caches`` bool in the
handshake; nothing is inherited by accident.

The gateway owns one :mod:`asyncio` event loop, on a thread of its own,
and that loop owns the parent end of every shard's socket: requests are
written to it without blocking, replies are read as they arrive and
resolve the future of their batch id.  Every wait has a bound, a module
constant below; a reply that comes after its call gave up is dropped by
batch id.  :class:`~repro.serve.gateway.http.GatewayHTTPServer` runs on
the same loop and awaits shard replies directly: ``/query`` goes through
the same routing coroutine as :meth:`ShardedGateway.serve_many`, asking
the shard for the finished HTTP body instead of the response object, so
the loop decodes no response and encodes no record.

Inputs/outputs: a picklable
:class:`~repro.datagen.benchmark.BenchmarkConfig` +
:class:`~repro.serve.engine.ServeConfig` in;
:class:`~repro.serve.engine.ServeResponse` lists (``/query`` bodies as
bytes for the HTTP front end), per-shard stats dicts, and merged
Prometheus-ready metric exports out.

Thread/process safety: the public methods are synchronous wrappers that
run a coroutine on the loop and wait for it, so they are safe from any
thread but the loop's own, where they raise :class:`GatewayError`
instead of deadlocking.  Batch ids, pending replies and
:class:`GatewayStats` are touched only by the loop thread.  The gateway
itself must not be shipped across processes (workers hold OS sockets).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.datagen.benchmark import BenchmarkConfig, Dataset
from repro.errors import GatewayError
from repro.obs.prometheus import merge_metric_exports, render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve.engine import ServeConfig, ServeRequest, ServeResponse, ServeStatus
from repro.serve.gateway.ring import DEFAULT_VNODES, HashRing
from repro.serve.gateway.wire import decode_frames, encode_frame, query_body
from repro.serve.gateway.worker import worker_main
from repro.utils.cache import caches_enabled

#: Requests shipped per frame in :meth:`ShardedGateway.serve_many`;
#: bounds peak pickle size while keeping per-message overhead amortized.
DEFAULT_CHUNK_SIZE = 2048

#: How long :meth:`ShardedGateway.start` waits for every shard's first
#: ping, which answers only after the shard built its dataset and warmed.
START_TIMEOUT_S = 300.0
#: How long the gateway waits for one shard reply: a chunk of requests,
#: a write, an invalidation, a stats or a metrics export.
CALL_TIMEOUT_S = 60.0
#: How long :meth:`ShardedGateway.healthz` waits for each shard's ping.
HEALTH_TIMEOUT_S = 2.0
#: How long past a request's own deadline the gateway waits before it
#: answers ``TIMEOUT`` itself; the shard's own ``TIMEOUT`` normally wins.
DEADLINE_GRACE_S = 0.5
#: How long :meth:`ShardedGateway.close` waits for each shard process to
#: exit, and for the work left on the loop to end.
CLOSE_TIMEOUT_S = 30.0


@dataclass
class GatewayStats:
    """Deterministic parent-side routing counters."""

    requests: int = 0
    apply_writes: int = 0
    invalidations_forwarded: int = 0
    worker_errors: int = 0
    routed: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "apply_writes": self.apply_writes,
            "invalidations_forwarded": self.invalidations_forwarded,
            "worker_errors": self.worker_errors,
            "routed": {str(shard): count for shard, count in sorted(self.routed.items())},
        }


class _ShardTimeout(GatewayError):
    """A shard did not answer one call within its bound."""


def _expire(future: asyncio.Future, shard_id: int, timeout_s: float) -> None:
    if not future.done():
        future.set_exception(
            _ShardTimeout(f"shard {shard_id} did not answer within {timeout_s:g} s")
        )


class _Shard(asyncio.Protocol):
    """Parent-side end of one shard worker: its process and its socket.

    Runs on the gateway's loop.  Each reply frame resolves the pending
    future of its batch id; a reply whose call has given up finds no
    future and is dropped.
    """

    def __init__(self, shard_id: int, process, sock: socket.socket) -> None:
        self.shard_id = shard_id
        self.process = process
        self.sock = sock
        self.transport: asyncio.Transport | None = None
        self.pending: dict[int, asyncio.Future] = {}
        self.buffer = bytearray()
        self.error: str | None = f"shard {shard_id} worker is not connected"
        self.lost: asyncio.Future | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.error = None
        self.lost = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        for batch_id, (kind, payload) in decode_frames(self.buffer):
            future = self.pending.pop(batch_id, None)
            if future is None or future.done():
                continue  # its call gave up; drop the late reply
            if kind == "error":
                future.set_exception(GatewayError(f"shard {self.shard_id}: {payload}"))
            else:
                future.set_result(payload)

    def connection_lost(self, exc: Exception | None) -> None:
        self.error = f"shard {self.shard_id} worker pipe closed"
        for future in self.pending.values():
            if not future.done():
                future.set_exception(GatewayError(self.error))
        self.pending.clear()
        self.lost.set_result(None)


class ShardedGateway:
    """Consistent-hash sharded serving across spawn-context worker processes."""

    def __init__(
        self,
        dataset_config: BenchmarkConfig,
        serve_config: ServeConfig | None = None,
        shards: int = 2,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if shards <= 0:
            raise GatewayError("shards must be positive")
        self.dataset_config = dataset_config
        self.serve_config = serve_config if serve_config is not None else ServeConfig()
        self.ring = HashRing(shards, vnodes)
        self.shards = shards
        self.stats = GatewayStats()
        self.metrics = MetricsRegistry()
        self._batch_ids = itertools.count(1)
        self._shards: list[_Shard] = []
        self._servers: list = []  # HTTP front ends on this loop; closed first
        self._attached: list[tuple[object, object]] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ShardedGateway":
        """Start the loop thread, then spawn, warm, and handshake every shard."""
        if self._started:
            return self
        if self._closed:
            raise GatewayError("gateway is closed and cannot be restarted")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gateway-loop", daemon=True
        )
        self._thread.start()
        try:
            context = multiprocessing.get_context("spawn")
            caches = caches_enabled()
            for shard_id in range(self.shards):
                parent_sock, child_sock = socket.socketpair()
                with child_sock:  # the started worker holds its own copy
                    process = context.Process(
                        target=worker_main,
                        name=f"gateway-shard-{shard_id}",
                        args=(
                            child_sock, shard_id, self.shards, self.ring.vnodes,
                            self.dataset_config, self.serve_config, caches,
                        ),
                        daemon=True,
                    )
                    try:
                        process.start()
                    except BaseException:
                        parent_sock.close()
                        raise
                self._shards.append(_Shard(shard_id, process, parent_sock))
            self._on_loop(self._connect(), START_TIMEOUT_S)
        except BaseException:
            self.close()
            raise
        self._started = True
        return self

    async def _connect(self) -> None:
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            await loop.connect_accepted_socket(lambda shard=shard: shard, sock=shard.sock)
        # The ping reply arrives only after the worker finishes dataset
        # build + warm start, so this doubles as the readiness barrier.
        await asyncio.gather(*(
            self._call(shard, ("ping",), START_TIMEOUT_S) for shard in self._shards
        ))

    def close(self) -> None:
        """Close HTTP front ends, stop workers, join their processes and the loop."""
        if self._closed:
            return
        if threading.current_thread() is self._thread:
            raise GatewayError("close() cannot run on the gateway's own loop thread")
        self._closed = True
        for database, forwarder in self._attached:
            database.remove_mutation_listener(forwarder)
        self._attached.clear()
        if self._loop is None:
            return
        for server in list(self._servers):
            server.close()
        try:
            self._on_loop(self._send_shutdown(), CLOSE_TIMEOUT_S)
        except GatewayError:
            pass  # the joins below still bound the shutdown
        for shard in self._shards:
            shard.process.join(timeout=CLOSE_TIMEOUT_S)
            if shard.process.is_alive():
                shard.process.kill()  # a stopped process ignores anything gentler
                shard.process.join(timeout=CLOSE_TIMEOUT_S)
        try:
            self._on_loop(self._drain_loop(), CLOSE_TIMEOUT_S)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=CLOSE_TIMEOUT_S)
            if not self._thread.is_alive():
                self._loop.close()
            for shard in self._shards:
                shard.sock.close()
            self._started = False

    async def _send_shutdown(self) -> None:
        for shard in self._shards:
            if shard.transport is None:
                shard.sock.close()  # never connected: the worker reads EOF
            elif shard.error is None:
                shard.transport.write(encode_frame(("shutdown",)))

    async def _drain_loop(self) -> None:
        """End what is left on the loop: shard streams, then stray tasks."""
        for shard in self._shards:
            if shard.transport is not None:
                shard.transport.abort()
        await asyncio.gather(*(
            shard.lost for shard in self._shards if shard.lost is not None
        ))
        current = asyncio.current_task()
        tasks = [task for task in asyncio.all_tasks() if task is not current]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks)

    def __enter__(self) -> "ShardedGateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------

    def _on_loop(self, coroutine, timeout_s: float):
        """Run ``coroutine`` on the loop; wait for its result at most ``timeout_s``."""
        if self._thread is None or not self._thread.is_alive():
            coroutine.close()
            raise GatewayError("gateway is not running (use start() or a with-block)")
        if threading.current_thread() is self._thread:
            coroutine.close()
            raise GatewayError(
                "a blocking gateway call cannot run on the gateway's own loop thread"
            )
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(timeout_s)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise GatewayError(f"gateway call did not finish within {timeout_s:g} s") from None
        except concurrent.futures.CancelledError:
            raise GatewayError("gateway closed while the call was in flight") from None

    def _run(self, coroutine, timeout_s: float = 2 * CALL_TIMEOUT_S):
        """:meth:`_on_loop` for the public calls: the gateway must be running.

        The coroutine bounds each of its own waits; ``timeout_s`` is the
        backstop for a loop that stopped answering.
        """
        if not self._started or self._closed:
            coroutine.close()
            raise GatewayError("gateway is not running (use start() or a with-block)")
        return self._on_loop(coroutine, timeout_s)

    def _send(self, shard: _Shard, op: str, *args) -> tuple[int, asyncio.Future]:
        """Write one request frame to ``shard``; its future resolves with the reply."""
        batch_id = next(self._batch_ids)
        future = self._loop.create_future()
        if shard.error is not None:
            future.set_exception(GatewayError(shard.error))
        else:
            shard.pending[batch_id] = future
            shard.transport.write(encode_frame((op, batch_id, *args)))
        return batch_id, future

    async def _reply(
        self, shard: _Shard, batch_id: int, future: asyncio.Future, timeout_s: float
    ):
        """Await one reply for at most ``timeout_s``; a miss raises ``_ShardTimeout``."""
        timer = self._loop.call_later(timeout_s, _expire, future, shard.shard_id, timeout_s)
        try:
            return await future
        finally:
            timer.cancel()
            shard.pending.pop(batch_id, None)

    def _discard(self, shard: _Shard, batch_id: int, future: asyncio.Future) -> None:
        """Forget a call's reply; a no-op once the call has been awaited."""
        shard.pending.pop(batch_id, None)
        if future.done() and not future.cancelled():
            future.exception()  # retrieved: nobody is left to raise it to
        future.cancel()

    def _worker_error(self, shard_id: int) -> None:
        self.stats.worker_errors += 1
        self.metrics.count("gateway_worker_errors", shard=shard_id)

    async def _call(
        self, shard: _Shard, message: tuple, timeout_s: float = CALL_TIMEOUT_S
    ):
        """One request and its reply; every failure is a counted ``GatewayError``."""
        batch_id, future = self._send(shard, *message)
        try:
            return await self._reply(shard, batch_id, future, timeout_s)
        except GatewayError:
            self._worker_error(shard.shard_id)
            raise

    def _shard(self, shard_id: int) -> _Shard:
        if not self._started or self._closed:
            raise GatewayError("gateway is not running (use start() or a with-block)")
        return self._shards[shard_id]

    # -- routing --------------------------------------------------------

    def owner(self, db_id: str) -> int:
        """The shard that owns ``db_id`` on this gateway's ring."""
        return self.ring.owner(db_id)

    def _wait_bound(self, requests: list[ServeRequest]) -> tuple[float, bool]:
        """How long to wait for a chunk's reply, and whether a miss is a ``TIMEOUT``.

        A chunk whose every request carries a deadline (its own or the
        engine's default) is answered ``TIMEOUT`` by the gateway once
        the latest deadline plus :data:`DEADLINE_GRACE_S` has passed.
        """
        default = self.serve_config.default_deadline_s
        deadlines = [
            default if request.deadline_s is None else request.deadline_s
            for request in requests
        ]
        if None in deadlines:
            return CALL_TIMEOUT_S, False
        return min(CALL_TIMEOUT_S, max(0.0, *deadlines) + DEADLINE_GRACE_S), True

    async def _serve(
        self,
        requests: list[ServeRequest],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        bodies: bool = False,
    ) -> list[ServeResponse] | list[bytes]:
        """:meth:`serve_many` on the loop; ``/query`` awaits it directly.

        With ``bodies`` each result is the finished ``/query`` body
        (:func:`~repro.serve.gateway.wire.query_body`), built by the
        owner shard, so the loop forwards bytes it never decodes.
        """
        started = time.perf_counter()
        by_shard: dict[int, list[int]] = {}
        for index, request in enumerate(requests):
            by_shard.setdefault(self.ring.owner(request.db_id), []).append(index)
        self.stats.requests += len(requests)
        for shard_id, indices in by_shard.items():
            self.stats.routed[shard_id] = self.stats.routed.get(shard_id, 0) + len(indices)
            self.metrics.count("gateway_requests", value=float(len(indices)), shard=shard_id)
        results: list = [None] * len(requests)
        failures: list[str] = []
        in_flight = []
        try:
            # Every chunk is written before the first wait: chunks for
            # different shards run concurrently, one shard's in socket order.
            for shard_id in sorted(by_shard):
                shard = self._shard(shard_id)
                indices = by_shard[shard_id]
                for start in range(0, len(indices), chunk_size):
                    chunk = indices[start:start + chunk_size]
                    items = [
                        (r.method, r.db_id, r.question, r.deadline_s)
                        for r in (requests[index] for index in chunk)
                    ]
                    in_flight.append(
                        (shard, chunk, *self._send(shard, "serve", items, bodies))
                    )
            for shard, chunk, batch_id, future in in_flight:
                bound, answer_timeout = self._wait_bound([requests[i] for i in chunk])
                try:
                    payload = await self._reply(shard, batch_id, future, bound)
                except GatewayError as exc:
                    if answer_timeout and isinstance(exc, _ShardTimeout):
                        elapsed = time.perf_counter() - started
                        for index in chunk:
                            response = ServeResponse(
                                request=requests[index], status=ServeStatus.TIMEOUT,
                                error=f"gateway: {exc}", total_s=elapsed,
                            )
                            results[index] = query_body(response) if bodies else response
                        continue
                    self._worker_error(shard.shard_id)
                    failures.append(str(exc))
                else:
                    for index, result in zip(chunk, payload):
                        results[index] = result
        finally:
            for shard, _, batch_id, future in in_flight:
                self._discard(shard, batch_id, future)
        if failures:
            raise GatewayError("; ".join(failures))
        return results

    def serve_many(
        self,
        requests: list[ServeRequest],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> list[ServeResponse]:
        """Route a batch to owner shards; responses come back in request order.

        Chunks for different shards are in flight concurrently; chunks
        for one shard are pipelined in order on its socket.  Each chunk's
        reply is awaited for at most :data:`CALL_TIMEOUT_S` (a chunk
        whose requests all carry deadlines: until the latest one plus
        :data:`DEADLINE_GRACE_S`, then its responses are ``TIMEOUT``).
        """
        if chunk_size <= 0:
            raise GatewayError("chunk_size must be positive")
        chunks = -(-len(requests) // chunk_size)
        return self._run(self._serve(requests, chunk_size), CALL_TIMEOUT_S * (chunks + 1))

    def serve(self, requests: list[ServeRequest]) -> list[ServeResponse]:
        """Alias of :meth:`serve_many` (engine-compatible shape)."""
        return self.serve_many(requests)

    def ask(
        self, method: str, db_id: str, question: str,
        deadline_s: float | None = None,
    ) -> ServeResponse:
        """Route one request and wait for its response."""
        return self.serve_many(
            [ServeRequest(method, db_id, question, deadline_s)]
        )[0]

    # -- writes & invalidation ------------------------------------------

    async def _apply_write(self, db_id: str, sql: str) -> dict:
        shard_id = self.owner(db_id)
        self.stats.apply_writes += 1
        self.metrics.count("gateway_apply_writes", shard=shard_id)
        return await self._call(self._shard(shard_id), ("apply", db_id, sql))

    async def _invalidate(self, db_id: str) -> dict:
        shard_id = self.owner(db_id)
        self.stats.invalidations_forwarded += 1
        self.metrics.count("gateway_invalidations", shard=shard_id)
        return await self._call(self._shard(shard_id), ("invalidate", db_id))

    def apply_write(self, db_id: str, sql: str) -> dict:
        """Execute one DML statement on the owner shard's master copy.

        The worker's ``Database.apply_write`` commits, bumps
        ``data_version``, and fires the shard-local mutation listeners,
        so the owning response cache invalidates exactly as it would in
        a single process.
        """
        return self._run(self._apply_write(db_id, sql))

    def invalidate(self, db_id: str) -> dict:
        """Forward an out-of-band mutation event to the owner shard."""
        return self._run(self._invalidate(db_id))

    def attach_dataset(self, dataset: Dataset) -> None:
        """Bridge a parent-side dataset's mutation events to owner shards.

        Registers one mutation listener per database that forwards
        ``mark_mutated`` to :meth:`invalidate` on the owning shard —
        the cross-process continuation of the engine's in-process
        listener chain.  Listeners are removed on :meth:`close`.
        """
        for db_id, database in dataset.databases.items():
            def forwarder(mutated_db_id: str, version: int, _db_id: str = db_id) -> None:
                self.invalidate(_db_id)

            database.add_mutation_listener(forwarder)
            self._attached.append((database, forwarder))

    # -- introspection ---------------------------------------------------

    async def _each_shard(self, message: tuple) -> list:
        return list(await asyncio.gather(*(
            self._call(self._shard(shard_id), message) for shard_id in range(self.shards)
        )))

    def shard_stats(self) -> list[dict]:
        """One stats dict per shard (engine/cache/pool counters + layout)."""
        return self._run(self._each_shard(("stats",)))

    def shard_layout(self) -> dict[int, list[str]]:
        """Owned ``db_id`` lists per shard, from the live workers."""
        return {entry["shard"]: entry["db_ids"] for entry in self.shard_stats()}

    async def _healthz(self) -> dict:
        async def ping(shard: _Shard) -> dict:
            try:
                return await self._call(shard, ("ping",), HEALTH_TIMEOUT_S)
            except GatewayError as exc:
                return {"shard": shard.shard_id, "error": str(exc)}

        entries = await asyncio.gather(*(
            ping(self._shard(shard_id)) for shard_id in range(self.shards)
        ))
        status = "degraded" if any("error" in entry for entry in entries) else "ok"
        return {"status": status, "shards": list(entries)}

    def healthz(self) -> dict:
        """Liveness summary: gateway status plus one entry per shard.

        Pings every shard at once; one that does not answer within
        :data:`HEALTH_TIMEOUT_S` gets an ``error`` entry and the status
        becomes ``degraded``.
        """
        return self._run(self._healthz(), HEALTH_TIMEOUT_S + CALL_TIMEOUT_S)

    async def _metrics_export(self) -> dict:
        exports = await self._each_shard(("metrics",))
        return merge_metric_exports([self.metrics.as_dict(), *exports])

    def metrics_export(self) -> dict:
        """Merged ``MetricsRegistry.as_dict()`` export across shards + parent."""
        return self._run(self._metrics_export())

    def metrics_text(self) -> str:
        """The merged export rendered in Prometheus text format."""
        return render_prometheus(self.metrics_export())
