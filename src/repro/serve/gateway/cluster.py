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

Inputs/outputs: a picklable
:class:`~repro.datagen.benchmark.BenchmarkConfig` +
:class:`~repro.serve.engine.ServeConfig` in;
:class:`~repro.serve.engine.ServeResponse` lists, per-shard stats
dicts, and merged Prometheus-ready metric exports out.

Thread/process safety: all public methods are safe from any thread —
each worker pipe has a dedicated send lock and reader thread, and
responses are matched by batch id.  The gateway itself must not be
shipped across processes (workers hold OS pipes).
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass, field

from repro.datagen.benchmark import BenchmarkConfig, Dataset
from repro.errors import GatewayError
from repro.obs.prometheus import merge_metric_exports, render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve.engine import ServeConfig, ServeRequest, ServeResponse
from repro.serve.gateway.ring import DEFAULT_VNODES, HashRing
from repro.serve.gateway.worker import worker_main
from repro.utils.cache import caches_enabled

#: Requests shipped per pipe message in :meth:`ShardedGateway.serve_many`;
#: bounds peak pickle size while keeping per-message overhead amortized.
DEFAULT_CHUNK_SIZE = 2048


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


class _Pending:
    """One in-flight worker call; resolved by the worker's reader thread."""

    __slots__ = ("event", "payload", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload = None
        self.failed: str | None = None

    def wait(self):
        self.event.wait()
        if self.failed is not None:
            raise GatewayError(self.failed)
        return self.payload


class _WorkerHandle:
    """Parent-side endpoint for one shard worker process."""

    def __init__(self, shard_id: int, process, conn) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self.pending_lock = threading.Lock()
        self.alive = True
        self.reader = threading.Thread(
            target=self._read_loop, name=f"gateway-reader-{shard_id}", daemon=True
        )
        self.reader.start()

    def call(self, batch_id: int, message: tuple) -> _Pending:
        pending = _Pending()
        with self.pending_lock:
            if not self.alive:
                pending.failed = f"shard {self.shard_id} worker is not running"
                pending.event.set()
                return pending
            self.pending[batch_id] = pending
        with self.send_lock:
            try:
                self.conn.send(message)
            except (OSError, ValueError) as exc:
                with self.pending_lock:
                    self.pending.pop(batch_id, None)
                pending.failed = f"send to shard {self.shard_id} failed: {exc}"
                pending.event.set()
        return pending

    def _read_loop(self) -> None:
        while True:
            try:
                batch_id, (kind, payload) = self.conn.recv()
            except (EOFError, OSError):
                self._fail_all(f"shard {self.shard_id} worker pipe closed")
                return
            with self.pending_lock:
                pending = self.pending.pop(batch_id, None)
            if pending is None:
                continue  # stale reply for an abandoned call
            if kind == "error":
                pending.failed = f"shard {self.shard_id}: {payload}"
            else:
                pending.payload = payload
            pending.event.set()

    def _fail_all(self, reason: str) -> None:
        with self.pending_lock:
            self.alive = False
            drained = list(self.pending.values())
            self.pending.clear()
        for pending in drained:
            pending.failed = reason
            pending.event.set()


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
        self._stats_lock = threading.Lock()
        self._batch_ids = iter(range(1, 2**62)).__next__
        self._batch_lock = threading.Lock()
        self._workers: list[_WorkerHandle] = []
        self._attached: list[tuple[object, object]] = []
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ShardedGateway":
        """Spawn, warm, and handshake every shard worker."""
        if self._started:
            return self
        if self._closed:
            raise GatewayError("gateway is closed and cannot be restarted")
        context = multiprocessing.get_context("spawn")
        caches = caches_enabled()
        for shard_id in range(self.shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=worker_main,
                name=f"gateway-shard-{shard_id}",
                args=(
                    child_conn, shard_id, self.shards, self.ring.vnodes,
                    self.dataset_config, self.serve_config, caches,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(shard_id, process, parent_conn))
        self._started = True
        # The ping reply arrives only after the worker finishes dataset
        # build + warm start, so this doubles as the readiness barrier.
        for handle in self._workers:
            self._call(handle, ("ping",))
        return self

    def close(self) -> None:
        """Detach listeners, stop workers, and join their processes."""
        if self._closed:
            return
        self._closed = True
        for database, forwarder in self._attached:
            database.remove_mutation_listener(forwarder)
        self._attached.clear()
        for handle in self._workers:
            with handle.send_lock:
                try:
                    handle.conn.send(("shutdown",))
                except (OSError, ValueError):
                    pass
        for handle in self._workers:
            handle.process.join(timeout=30)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
            handle.conn.close()
        self._started = False

    def __enter__(self) -> "ShardedGateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------

    def _next_batch_id(self) -> int:
        with self._batch_lock:
            return self._batch_ids()

    def _handle(self, shard: int) -> _WorkerHandle:
        if not self._started or self._closed:
            raise GatewayError("gateway is not running (use start() or a with-block)")
        return self._workers[shard]

    def _send(self, handle: _WorkerHandle, message_tail: tuple) -> _Pending:
        batch_id = self._next_batch_id()
        message = (message_tail[0], batch_id, *message_tail[1:])
        return handle.call(batch_id, message)

    def _call(self, handle: _WorkerHandle, message_tail: tuple):
        try:
            return self._send(handle, message_tail).wait()
        except GatewayError:
            with self._stats_lock:
                self.stats.worker_errors += 1
                self.metrics.count("gateway_worker_errors", shard=handle.shard_id)
            raise

    # -- routing --------------------------------------------------------

    def owner(self, db_id: str) -> int:
        """The shard that owns ``db_id`` on this gateway's ring."""
        return self.ring.owner(db_id)

    def serve_many(
        self,
        requests: list[ServeRequest],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> list[ServeResponse]:
        """Route a batch to owner shards; responses come back in request order.

        Chunks for different shards are in flight concurrently; chunks
        for one shard are pipelined in order on its pipe.
        """
        if chunk_size <= 0:
            raise GatewayError("chunk_size must be positive")
        by_shard: dict[int, list[tuple[int, ServeRequest]]] = {}
        for index, request in enumerate(requests):
            by_shard.setdefault(self.owner(request.db_id), []).append((index, request))
        with self._stats_lock:
            self.stats.requests += len(requests)
            for shard, slice_ in by_shard.items():
                self.stats.routed[shard] = self.stats.routed.get(shard, 0) + len(slice_)
                self.metrics.count(
                    "gateway_requests", value=float(len(slice_)), shard=shard
                )
        in_flight: list[tuple[list[int], _Pending]] = []
        for shard in sorted(by_shard):
            handle = self._handle(shard)
            slice_ = by_shard[shard]
            for start in range(0, len(slice_), chunk_size):
                chunk = slice_[start:start + chunk_size]
                indices = [index for index, _ in chunk]
                items = [
                    (r.method, r.db_id, r.question, r.deadline_s) for _, r in chunk
                ]
                in_flight.append((indices, self._send(handle, ("serve", items))))
        results: list = [None] * len(requests)
        failures: list[str] = []
        for indices, pending in in_flight:
            try:
                payload = pending.wait()
            except GatewayError as exc:
                failures.append(str(exc))
                continue
            for index, result in zip(indices, payload):
                results[index] = result
        if failures:
            with self._stats_lock:
                self.stats.worker_errors += len(failures)
            raise GatewayError("; ".join(failures))
        return results

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

    def apply_write(self, db_id: str, sql: str) -> dict:
        """Execute one DML statement on the owner shard's master copy.

        The worker's ``Database.apply_write`` commits, bumps
        ``data_version``, and fires the shard-local mutation listeners,
        so the owning response cache invalidates exactly as it would in
        a single process.
        """
        shard = self.owner(db_id)
        with self._stats_lock:
            self.stats.apply_writes += 1
            self.metrics.count("gateway_apply_writes", shard=shard)
        return self._call(self._handle(shard), ("apply", db_id, sql))

    def invalidate(self, db_id: str) -> dict:
        """Forward an out-of-band mutation event to the owner shard."""
        shard = self.owner(db_id)
        with self._stats_lock:
            self.stats.invalidations_forwarded += 1
            self.metrics.count("gateway_invalidations", shard=shard)
        return self._call(self._handle(shard), ("invalidate", db_id))

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

    def shard_stats(self) -> list[dict]:
        """One stats dict per shard (engine/cache/pool counters + layout)."""
        pendings = [
            self._send(self._handle(shard), ("stats",)) for shard in range(self.shards)
        ]
        return [pending.wait() for pending in pendings]

    def shard_layout(self) -> dict[int, list[str]]:
        """Owned ``db_id`` lists per shard, from the live workers."""
        return {entry["shard"]: entry["db_ids"] for entry in self.shard_stats()}

    def healthz(self) -> dict:
        """Liveness summary: gateway status plus one entry per shard."""
        entries = []
        status = "ok"
        for shard in range(self.shards):
            try:
                entries.append(self._call(self._handle(shard), ("ping",)))
            except GatewayError as exc:
                status = "degraded"
                entries.append({"shard": shard, "error": str(exc)})
        return {"status": status, "shards": entries}

    def metrics_export(self) -> dict:
        """Merged ``MetricsRegistry.as_dict()`` export across shards + parent."""
        exports = [self.metrics.as_dict()]
        pendings = [
            self._send(self._handle(shard), ("metrics",))
            for shard in range(self.shards)
        ]
        exports.extend(pending.wait() for pending in pendings)
        return merge_metric_exports(exports)

    def metrics_text(self) -> str:
        """The merged export rendered in Prometheus text format."""
        return render_prometheus(self.metrics_export())
