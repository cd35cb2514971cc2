"""Online NL2SQL serving engine: scheduler, coalescing, admission control.

:class:`ServingEngine` turns the offline evaluation pipeline into a
concurrent request-processing system.  Requests name a ``(method,
db_id, question)``; the engine resolves them against the dataset's dev
split, schedules them through a bounded queue, and answers with the
*exact* :class:`~repro.core.metrics.EvaluationRecord` the offline
:class:`~repro.core.evaluator.Evaluator` would produce — bit-identical
under any concurrency, batching, or coalescing schedule.

Moving parts:

* **Scheduler** — a dedicated thread drains the bounded submission
  queue and groups waiting computations by ``(method, db_id)`` into
  micro-batches (bounded by ``max_batch_size``) so consecutive requests
  share warm few-shot/schema state, then dispatches them to a worker
  pool.
* **In-flight coalescing** — while a computation for a key is pending,
  identical submissions attach to it and all receive the one result;
  duplicate work is never scheduled.  Request identity is the
  *normalized* question (:func:`repro.utils.text.normalize_question`),
  so whitespace/case variants coalesce too.
* **Response cache** — an optional cross-request
  :class:`~repro.serve.cache.ResponseCache` tier (``response_cache`` in
  :class:`ServeConfig`) memoizes OK records keyed on ``(method, db_id,
  normalized_question, data_version)``.  ``submit`` consults it before
  admission control: a hit resolves immediately with a ``cached``-flagged
  but otherwise bit-identical response, costs no in-flight slot, and a
  ``Database.mark_mutated`` bump auto-invalidates the database's
  entries via a mutation listener registered at ``start()``.
* **Admission control & degradation** — at most ``max_in_flight``
  requests are admitted (excess resolves immediately with ``REJECTED``);
  a per-request deadline resolves with a typed ``TIMEOUT`` response
  instead of hanging, and computations whose every waiter has expired
  are shed without running.
* **Warm start** — ``start()`` always runs :meth:`warmup`, which
  prepares each served method (few-shot index build), precomputes gold
  executions for the served split, and primes per-database
  prompt/schema caches with one prediction per ``(method, database)``
  before traffic is accepted.
* **Observability** — while a tracer is ambient, each
  :class:`ServeResponse` (status, queue wait, service time, coalesce
  flag) and its response-cache outcome feed the tracer's
  :class:`~repro.obs.registry.MetricsRegistry` under ``serve_*`` names
  (:func:`ingest_serve_span`); the response is the only per-request
  record.  The stage spans of computed requests stay on the tracer for
  its owner to drain, as offline runs do.

Inputs/outputs: a :class:`~repro.datagen.benchmark.Dataset` plus a
:class:`ServeConfig` in; :class:`ServeResponse` objects (wrapping
offline-identical records) and deterministic :class:`ServeStats`
counters out.  Nothing in the dataset is mutated.

Thread/process safety: ``submit`` and every ``ServeFuture`` method are
safe from any thread; internal state is guarded by one engine lock and
work runs on the engine's own scheduler/worker threads.  Instances do
not cross process boundaries.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

from repro.core.evaluator import Evaluator
from repro.core.metrics import EvaluationRecord
from repro.datagen.benchmark import Dataset, Example
from repro.errors import ServeError, ServeOverloaded
from repro.errors import ServeTimeout as ServeTimeoutError
from repro.methods.base import NL2SQLMethod
from repro.methods.zoo import build_method
from repro.obs.registry import POOL_METRICS, MetricsRegistry, ingest_deltas, label_key
from repro.obs.trace import get_tracer
from repro.serve.cache import ResponseCache
from repro.serve.scheduler import DecodeScheduler
from repro.utils.text import normalize_question


class ServeStatus(str, Enum):
    """Terminal state of one served request."""

    OK = "ok"
    TIMEOUT = "timeout"
    REJECTED = "rejected"
    ERROR = "error"


@dataclass(frozen=True)
class ServeRequest:
    """One online NL2SQL request.

    ``deadline_s`` bounds the total time from submission; expiry yields
    a ``TIMEOUT`` response, never a hang.  ``None`` falls back to the
    engine's ``default_deadline_s``.
    """

    method: str
    db_id: str
    question: str
    deadline_s: float | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        """The coalescing identity: concurrent equals share one computation.

        The question is canonicalized (whitespace/case) so trivially
        different repeats share one computation and one cache entry.
        """
        return (self.method, self.db_id, normalize_question(self.question))


@dataclass
class ServeResponse:
    """Terminal answer for one request (always produced, never raised)."""

    request: ServeRequest
    status: ServeStatus
    record: EvaluationRecord | None = None
    error: str | None = None
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    total_s: float = 0.0
    coalesced: bool = False
    batch_size: int = 0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status is ServeStatus.OK

    def raise_for_status(self) -> "ServeResponse":
        """Return self if OK; raise the matching typed ServeError otherwise."""
        if self.status is ServeStatus.OK:
            return self
        message = self.error or self.status.value
        if self.status is ServeStatus.TIMEOUT:
            raise ServeTimeoutError(message)
        if self.status is ServeStatus.REJECTED:
            raise ServeOverloaded(message)
        raise ServeError(message)


@dataclass(frozen=True)
class ServeConfig:
    """Scheduler/admission knobs (see docs/SERVING.md)."""

    methods: tuple[str, ...] = ("SuperSQL",)
    workers: int = 4
    max_in_flight: int = 1024
    max_batch_size: int = 32
    default_deadline_s: float | None = None
    seed: int = 42
    response_cache: bool = False
    #: Restrict the engine to this subset of the dataset's databases
    #: (``None`` serves all).  Gateway shard workers set it to their
    #: ring-owned ``db_id``s so warmup, mutation listeners, and replica
    #: pools cover only the shard's slice; requests for other databases
    #: resolve as typed ``ERROR`` responses.
    db_ids: tuple[str, ...] | None = None


@dataclass
class ServeStats:
    """Deterministic engine counters (no wall-clock values)."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    coalesce_hits: int = 0
    computed: int = 0
    shed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    batches: int = 0
    max_batch: int = 0
    warmed_methods: int = 0
    warmed_gold: int = 0
    decode_windows: int = 0
    decode_submissions: int = 0
    decode_draws: int = 0
    decode_max_submission: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


#: ``ResponseCache.stats()`` lifetime key -> metric, folded by ``_fold_counters``.
_SERVE_CACHE_METRICS = {
    name: f"serve_cache_{name}"
    for name in ("stores", "evictions", "invalidations")
}


def ingest_serve_span(
    registry: MetricsRegistry, response: ServeResponse, cache: str
) -> None:
    """Fold one served request into ``serve_*`` counters and histograms.

    ``cache`` is the request's response-cache outcome
    (:attr:`ServeFuture.cache_state`): ``"off"`` (cache disabled),
    ``"hit"`` (served from cache) or ``"miss"`` (consulted, computed).
    """
    method = label_key({"method": response.request.method})
    # "status" sorts after "method", so appending its pair keeps the key sorted.
    counts = [(("serve_requests", method + (("status", response.status.value),)), 1.0)]
    if response.coalesced:
        counts.append((("serve_coalesce_hits", method), 1.0))
    if cache == "hit":
        counts.append((("serve_cache_hits", method), 1.0))
    elif cache == "miss":
        counts.append((("serve_cache_misses", method), 1.0))
    if response.status is ServeStatus.TIMEOUT:
        counts.append((("serve_timeouts", method), 1.0))
    registry.add(counts, (
        (("serve_queue_wait_s", method), response.queue_wait_s),
        (("serve_service_s", method), response.service_s),
        (("serve_latency_s", method), response.total_s),
    ))


class ServeFuture:
    """Handle for one submitted request; resolves exactly once."""

    def __init__(self, engine: "ServingEngine", request: ServeRequest) -> None:
        self._engine = engine
        self.request = request
        self.submitted_at = time.perf_counter()
        self.coalesced = False
        self.admitted = False
        self.cache_state = "off"
        self._event = threading.Event()
        self._response: ServeResponse | None = None
        self._resolve_lock = threading.Lock()

    def done(self) -> bool:
        return self._event.is_set()

    def _resolve(self, response: ServeResponse) -> bool:
        """First resolution wins; returns whether this call was it."""
        with self._resolve_lock:
            if self._response is not None:
                return False
            self._response = response
        self._event.set()
        return True

    def _deadline_remaining(self) -> float | None:
        if self.request.deadline_s is None:
            return None
        return self.request.deadline_s - (time.perf_counter() - self.submitted_at)

    def response(self, timeout: float | None = None) -> ServeResponse:
        """Block for the response.

        Deadline expiry resolves the request with a ``TIMEOUT`` response.
        An exhausted explicit ``timeout`` (with the deadline still live)
        raises :class:`~repro.errors.ServeTimeout` — the request itself
        stays pending.  The explicit ``timeout`` is a hard overall bound
        on this call: total elapsed time is tracked across deadline-race
        re-waits, never re-armed per iteration.
        """
        entered = time.perf_counter()
        while True:
            budget = None
            if timeout is not None:
                budget = timeout - (time.perf_counter() - entered)
            remaining = self._deadline_remaining()
            waits = [w for w in (budget, remaining) if w is not None]
            wait = min(waits) if waits else None
            if self._event.wait(None if wait is None else max(wait, 0.0)):
                assert self._response is not None
                return self._response
            remaining = self._deadline_remaining()
            if remaining is not None and remaining <= 0:
                self._engine._expire(self)
                assert self._response is not None
                return self._response
            if timeout is not None and time.perf_counter() - entered >= timeout:
                raise ServeTimeoutError(
                    f"no response within {timeout}s for {self.request.key}"
                )
            # Deadline-governed wait raced the clock by a hair (or the
            # timeout budget is not yet spent); re-wait on what is left.


class _Computation:
    """One scheduled unit of work; several futures may wait on it."""

    __slots__ = ("key", "example", "method", "waiters")

    def __init__(
        self, key: tuple[str, str, str], example: Example, method: NL2SQLMethod
    ) -> None:
        self.key = key
        self.example = example
        self.method = method
        self.waiters: list[ServeFuture] = []


class ServingEngine:
    """Concurrent online front-end over one dataset's evaluation pipeline."""

    def __init__(
        self,
        dataset: Dataset,
        config: ServeConfig | None = None,
        methods: dict[str, NL2SQLMethod] | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config if config is not None else ServeConfig()
        if self.config.workers <= 0:
            raise ServeError("workers must be positive")
        if self.config.max_batch_size <= 0:
            raise ServeError("max_batch_size must be positive")
        if self.config.db_ids is None:
            self._databases = dict(dataset.databases)
        else:
            unknown = [d for d in self.config.db_ids if d not in dataset.databases]
            if unknown:
                raise ServeError(f"unknown db_ids in config: {unknown}")
            self._databases = {
                db_id: dataset.databases[db_id] for db_id in self.config.db_ids
            }
        self.response_cache: ResponseCache | None = (
            ResponseCache() if self.config.response_cache else None
        )
        # The cumulative counters as of the last fold into the registry.
        self._cache_stats_folded: dict[str, int] = {}
        self._pool_stats_folded: dict[str, int] = {}
        self.stats = ServeStats()
        # One decode scheduler per engine: every micro-batch runs under a
        # decode window so member requests' draws go through the batched
        # model path (see repro.serve.scheduler).
        self.decode_scheduler = DecodeScheduler()
        # Untimed, so served records equal untimed offline records.
        self._evaluator = Evaluator(dataset, measure_timing=False)
        self._methods: dict[str, NL2SQLMethod] = dict(methods or {})
        self._examples = {
            key: example
            for key, example in question_index(dataset).items()
            if key[0] in self._databases
        }
        self._listening = False
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: deque[_Computation] = deque()
        self._inflight_keys: dict[tuple[str, str, str], _Computation] = {}
        self._in_flight = 0
        self._paused = False
        self._closed = False
        self._started = False
        self._scheduler: threading.Thread | None = None
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServingEngine":
        """Warm up and begin accepting traffic."""
        if self._started:
            return self
        if self._closed:
            # A closed engine has torn down its listeners and ingested
            # its cache deltas; restarting one would re-register the
            # listeners without ever balancing that teardown (the
            # original leak: restarted gateway workers kept dead engines
            # reachable and receiving purges).  Build a fresh engine.
            raise ServeError("engine is closed and cannot be restarted")
        self.warmup()
        if self.response_cache is not None:
            self._cache_stats_folded = self.response_cache.stats()
            for database in self._databases.values():
                database.add_mutation_listener(self._on_mutation)
            self._listening = True
        self._pool_stats_folded = self.pool_stats()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve"
        )
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="serve-scheduler", daemon=True
        )
        self._started = True
        self._scheduler.start()
        return self

    def close(self) -> None:
        """Stop accepting traffic, drain scheduled work, join the workers."""
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
        if self._scheduler is not None:
            self._scheduler.join()
            self._scheduler = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._fold_counters()
        if self.response_cache is not None and self._listening:
            # Run the teardown exactly once: a second close() must not
            # double-remove listeners.
            self._listening = False
            for database in self._databases.values():
                database.remove_mutation_listener(self._on_mutation)
        self._started = False

    def _fold_counters(self) -> None:
        """Fold the lifetime counters' growth since the last fold into the
        ambient tracer's registry, then advance the baselines.

        The response cache's stores, evictions and invalidations become
        ``serve_cache_*`` counters (hits and misses arrive per request
        through :func:`ingest_serve_span`), and this engine's share of
        its databases' read-path counters becomes ``pool_*``.  ``close``
        folds the rest; a gateway shard also folds before every
        ``metrics`` reply, so ``/metrics`` carries them while it serves.
        """
        tracer = get_tracer()
        if not (self._started and tracer.enabled):
            return
        if self.response_cache is not None:
            cache = self.response_cache.stats()
            ingest_deltas(tracer.metrics, self._cache_stats_folded, cache, _SERVE_CACHE_METRICS)
            self._cache_stats_folded = cache
        pool = self.pool_stats()
        ingest_deltas(
            tracer.metrics, self._pool_stats_folded, pool, POOL_METRICS,
            method="serve", benchmark=self.dataset.name,
        )
        self._pool_stats_folded = pool

    def _on_mutation(self, db_id: str, version: int) -> None:
        """Mutation-listener hook: purge the mutated database's entries."""
        if self.response_cache is not None:
            self.response_cache.invalidate(db_id, version)

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- warm start -----------------------------------------------------

    def warmup(self) -> None:
        """Prime caches before traffic: methods, gold executions, schemas.

        Prepares each served method (few-shot index build / simulated
        fine-tune), executes every distinct gold query of the served
        split once (also creating each database's first pooled replica),
        and runs one prediction per ``(method, database)`` so pruned
        schema parses and prompt-side value caches are warm.  Warmup
        predictions emit no example spans (no example context is open),
        so traced serving metrics cover only real traffic.
        """
        for name in self.config.methods:
            if name not in self._methods:
                method = build_method(name, seed=self.config.seed)
                method.prepare(self.dataset)
                self._methods[name] = method
                self.stats.warmed_methods += 1
        served = [
            example for example in self.dataset.dev_examples
            if example.db_id in self._databases
        ]
        self.stats.warmed_gold += self._evaluator.precompute_gold(served)
        first_by_db: dict[str, Example] = {}
        for example in served:
            first_by_db.setdefault(example.db_id, example)
        for method in self._methods.values():
            for example in first_by_db.values():
                method.predict(example, self.dataset.database(example.db_id))

    # -- flow control ---------------------------------------------------

    def pause(self) -> None:
        """Hold scheduling; submissions queue (and coalesce) deterministically."""
        with self._wakeup:
            self._paused = True

    def resume(self) -> None:
        with self._wakeup:
            self._paused = False
            self._wakeup.notify_all()

    # -- submission -----------------------------------------------------

    def submit(self, request: ServeRequest) -> ServeFuture:
        """Admit one request; always returns a future that will resolve."""
        if not self._started:
            raise ServeError("engine is not started (use start() or a with-block)")
        if request.deadline_s is None and self.config.default_deadline_s is not None:
            request = replace(request, deadline_s=self.config.default_deadline_s)
        future = ServeFuture(self, request)
        method = self._methods.get(request.method)
        example = self._examples.get(
            (request.db_id, normalize_question(request.question))
        )
        with self._wakeup:
            self.stats.submitted += 1
            if self._closed:
                return self._finish_locked(future, ServeStatus.ERROR,
                                           error="engine is closed")
            if method is None:
                return self._finish_locked(
                    future, ServeStatus.ERROR,
                    error=f"method {request.method!r} is not served")
            if request.db_id not in self._databases:
                return self._finish_locked(
                    future, ServeStatus.ERROR,
                    error=f"database {request.db_id!r} is not served"
                          " by this engine")
            if example is None:
                return self._finish_locked(
                    future, ServeStatus.ERROR,
                    error=f"unknown question for db {request.db_id!r}")
            remaining = future._deadline_remaining()
            if remaining is not None and remaining <= 0:
                # Dead on arrival: an already-expired deadline outranks
                # even a cache hit (the degradation contract says a zero
                # deadline always yields TIMEOUT).
                return self._finish_locked(future, ServeStatus.TIMEOUT,
                                           error="deadline exceeded")
            if self.response_cache is not None:
                # Consulted before admission control: a hit is answered
                # from memory and must never cost an in-flight slot.
                version = self._databases[request.db_id].data_version
                record = self.response_cache.lookup(
                    request.method, request.db_id, request.question, version
                )
                if record is not None:
                    future.cache_state = "hit"
                    self.stats.cache_hits += 1
                    return self._finish_locked(
                        future, ServeStatus.OK, record=record, cached=True
                    )
                future.cache_state = "miss"
                self.stats.cache_misses += 1
            if self._in_flight >= self.config.max_in_flight:
                return self._finish_locked(
                    future, ServeStatus.REJECTED,
                    error=f"engine at capacity ({self.config.max_in_flight} in flight)")
            future.admitted = True
            self._in_flight += 1
            computation = self._inflight_keys.get(request.key)
            if computation is not None:
                future.coalesced = True
                self.stats.coalesce_hits += 1
                computation.waiters.append(future)
            else:
                computation = _Computation(request.key, example, method)
                computation.waiters.append(future)
                self._inflight_keys[request.key] = computation
                self._queue.append(computation)
                self._wakeup.notify()
        return future

    def ask(
        self, method: str, db_id: str, question: str,
        deadline_s: float | None = None,
    ) -> ServeFuture:
        """Convenience wrapper building and submitting a :class:`ServeRequest`."""
        return self.submit(ServeRequest(method, db_id, question, deadline_s))

    def serve(
        self, requests: list[ServeRequest], submit_paused: bool = False
    ) -> list[ServeResponse]:
        """Submit a batch and wait for every response, in request order.

        ``submit_paused`` holds the scheduler until all requests are
        queued — every duplicate key then coalesces deterministically,
        which the tests rely on.
        """
        if submit_paused:
            self.pause()
        futures = [self.submit(request) for request in requests]
        if submit_paused:
            self.resume()
        return [future.response() for future in futures]

    # -- resolution plumbing (engine lock conventions) -------------------

    def _finish_locked(
        self, future: ServeFuture, status: ServeStatus, **fields: object
    ) -> ServeFuture:
        """Resolve a future while already holding the engine lock."""
        self._finalize(future, status, locked=True, **fields)
        return future

    def _finalize(
        self,
        future: ServeFuture,
        status: ServeStatus,
        locked: bool = False,
        **fields: object,
    ) -> None:
        now = time.perf_counter()
        response = ServeResponse(
            request=future.request,
            status=status,
            coalesced=future.coalesced,
            total_s=now - future.submitted_at,
            **fields,  # type: ignore[arg-type]
        )
        if not future._resolve(response):
            return
        if locked:
            self._account_locked(future, status)
        else:
            with self._lock:
                self._account_locked(future, status)
        tracer = get_tracer()
        if tracer.enabled:
            ingest_serve_span(tracer.metrics, response, future.cache_state)

    def _account_locked(self, future: ServeFuture, status: ServeStatus) -> None:
        if future.admitted:
            self._in_flight -= 1
        if status is ServeStatus.OK:
            self.stats.completed += 1
        elif status is ServeStatus.TIMEOUT:
            self.stats.timeouts += 1
        elif status is ServeStatus.REJECTED:
            self.stats.rejected += 1
        else:
            self.stats.errors += 1

    def _expire(self, future: ServeFuture) -> None:
        """Resolve one future as TIMEOUT (deadline passed); idempotent."""
        self._finalize(future, ServeStatus.TIMEOUT, error="deadline exceeded")

    # -- scheduling -----------------------------------------------------

    def _schedule_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._closed and (self._paused or not self._queue):
                    self._wakeup.wait()
                if self._closed and not self._queue:
                    return
                drained = list(self._queue)
                self._queue.clear()
            # Micro-batch: group the drained backlog by (method, db_id) so
            # consecutive computations reuse warm few-shot/schema state,
            # preserving arrival order within each group.
            groups: dict[tuple[str, str], list[_Computation]] = {}
            for computation in drained:
                group_key = (computation.key[0], computation.key[1])
                groups.setdefault(group_key, []).append(computation)
            step = self.config.max_batch_size
            assert self._pool is not None
            for group in groups.values():
                for start in range(0, len(group), step):
                    batch = group[start:start + step]
                    with self._lock:
                        self.stats.batches += 1
                        self.stats.max_batch = max(self.stats.max_batch, len(batch))
                    self._pool.submit(self._run_batch, batch)

    def _run_batch(self, batch: list[_Computation]) -> None:
        # The decode window counts every member request's decoder draws;
        # each decode still makes its own batched model call.
        with self.decode_scheduler.window(len(batch)) as window:
            for computation in batch:
                self._run_computation(computation, len(batch))
        with self._lock:
            self.stats.decode_windows += 1
            self.stats.decode_submissions += window.submissions
            self.stats.decode_draws += window.draws
            self.stats.decode_max_submission = max(
                self.stats.decode_max_submission, window.max_submission
            )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.count("serve_decode_windows")
            if window.submissions:
                tracer.metrics.count(
                    "serve_decode_submissions", value=window.submissions
                )
            if window.draws:
                tracer.metrics.count("serve_decode_draws", value=window.draws)

    def _run_computation(self, computation: _Computation, batch_size: int) -> None:
        now = time.perf_counter()
        with self._lock:
            expired = [
                waiter for waiter in computation.waiters
                if not waiter.done()
                and waiter.request.deadline_s is not None
                and now - waiter.submitted_at > waiter.request.deadline_s
            ]
            live = any(
                not waiter.done() for waiter in computation.waiters
                if waiter not in expired
            )
            if not live:
                # Every waiter is gone: shed the computation unrun.
                if self._inflight_keys.get(computation.key) is computation:
                    del self._inflight_keys[computation.key]
                self.stats.shed += 1
        for waiter in expired:
            self._expire(waiter)
        if not live:
            return
        started = time.perf_counter()
        record: EvaluationRecord | None = None
        error: str | None = None
        database = self.dataset.databases[computation.example.db_id]
        version_before = database.data_version
        try:
            record = self._evaluator.evaluate_example(
                computation.method, computation.example
            )
        except Exception as exc:  # noqa: BLE001 - a request must never hang
            error = f"{type(exc).__name__}: {exc}"
        service_s = time.perf_counter() - started
        if (
            record is not None
            and self.response_cache is not None
            # A mutation mid-evaluation could leave a mixed-state record:
            # only store results computed against one stable version.
            and database.data_version == version_before
        ):
            self.response_cache.store(
                computation.key[0], computation.key[1], computation.key[2],
                version_before, record,
            )
            with self._lock:
                self.stats.cache_stores += 1
        with self._lock:
            # Unregister first: later identical submissions start a fresh
            # computation instead of attaching to a resolved one.
            if self._inflight_keys.get(computation.key) is computation:
                del self._inflight_keys[computation.key]
            waiters = list(computation.waiters)
            if record is not None:
                self.stats.computed += 1
        status = ServeStatus.OK if record is not None else ServeStatus.ERROR
        for waiter in waiters:
            self._finalize(
                waiter,
                status,
                record=record,
                error=error,
                queue_wait_s=started - waiter.submitted_at,
                service_s=service_s,
                batch_size=batch_size,
            )

    # -- introspection --------------------------------------------------

    def backpressure(self) -> dict[str, int]:
        """Live admission-control snapshot (in-flight, queue depth, capacity)."""
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "queued": len(self._queue),
                "max_in_flight": self.config.max_in_flight,
            }

    def cache_stats(self) -> dict[str, int]:
        """Response-cache counters (all zero when the cache is disabled)."""
        if self.response_cache is None:
            return {
                "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
                "invalidations": 0, "stores": 0,
            }
        return self.response_cache.stats()

    def pool_stats(self) -> dict[str, int]:
        """Connection-pool counters summed over this dataset's databases."""
        totals = {"created": 0, "checkouts": 0, "refreshes": 0, "waits": 0}
        for database in self._databases.values():
            for key, value in database.pool_stats().items():
                totals[key] += value
        return totals


def question_index(dataset: Dataset) -> dict[tuple[str, str], Example]:
    """Map ``(db_id, question)`` to the example that serves it.

    Every example is indexed under both its verbatim question and its
    normalized form (:func:`repro.utils.text.normalize_question`), so
    whitespace/case request variants resolve to the same example.  Dev
    examples win over train; within a split the first occurrence wins.
    Offline reference runs must resolve through this same index so
    served responses compare bit-identically.
    """
    index: dict[tuple[str, str], Example] = {}
    for example in dataset.dev_examples:
        index.setdefault((example.db_id, example.question), example)
        index.setdefault((example.db_id, normalize_question(example.question)), example)
    for example in dataset.examples:
        index.setdefault((example.db_id, example.question), example)
        index.setdefault((example.db_id, normalize_question(example.question)), example)
    return index
