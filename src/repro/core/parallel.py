"""Parallel evaluation engine: process pool, gold precompute, result cache.

Every artifact in the reproduction — the 20-method zoo tables, the
multi-angle figures, the NL2SQL360-AAS genetic search — funnels through
``Evaluator``'s per-example loop.  :class:`ParallelEvaluator` is that
evaluator with ``evaluate_method`` overridden: the same
:class:`EvaluationRecord` stream, in example order, with the wall-clock
bottlenecks removed:

1. **Process pool.**  With ``jobs > 1``, a batch of at least
   ``_PROCESS_MIN_WORK`` pending examples is sharded in contiguous
   chunks across a :class:`~concurrent.futures.ProcessPoolExecutor`.
   ``sqlite3`` connections are not picklable, so each worker's
   initializer rebuilds the dataset deterministically from
   ``dataset.config`` (the build is seeded, so workers own
   byte-identical databases).  Everything else runs in-process:
   smaller batches, methods a worker cannot rebuild (see
   :meth:`MethodSpec.from_method`), ``prepare=False`` calls, and
   datasets written to since they were built
   (:meth:`~repro.datagen.benchmark.Dataset.as_built` is false), whose
   rows a rebuild would not reproduce.
2. **Gold-execution precompute.**  Each distinct (db_id, gold_sql) pair
   is executed exactly once per dataset — in the coordinating process —
   and the timed result is shared with every method and every worker,
   instead of being re-executed per evaluator instance.
3. **Cross-run result cache.**  Finished records are persisted in the
   :class:`~repro.core.logs.ExperimentLogStore` under a stable
   fingerprint of (method config + seed, dataset build recipe, timing
   settings), so repeated evaluations — re-runs of the benchmark suite,
   repeated genotypes across AAS generations, even across process
   restarts — skip prediction and execution entirely.  The recipe
   identifies the rows only while the dataset is as built, so a written
   or hand-assembled dataset bypasses the cache.

Determinism: prediction randomness flows through keyed RNG streams
(:func:`repro.utils.rng.derive_rng`), which are independent of call
order, so sharding does not change results.  With ``measure_timing``
off, parallel output is bit-identical to the sequential evaluator's.
The hot-path memo layers (few-shot index, intent memo, PICARD verdict
memo, candidate-execution LRU, schema-linking string memos — see
``repro.utils.cache``) are adopted transparently: process workers
rebuild them lazily via each method's ``prepare`` (the few-shot index
registry is keyed by corpus content), and every layer returns
bit-identical values to the uncached path, so sharding with caches on
still reproduces the sequential record stream.

Observability: when the coordinator's ambient tracer is enabled,
process workers install their own tracer and ship finished spans back
with each record batch, and examples served by the result cache get
synthetic ``cache_hit`` spans — so a parallel run drains the same
deterministic span stream as a sequential one (modulo timings).

Inputs/outputs: same as :class:`~repro.core.evaluator.Evaluator` —
datasets and methods in, :class:`MethodReport` streams out, plus
``stats`` counters and drained ``trace_spans``.

Thread/process safety: the coordinator object itself is single-threaded;
it owns the pool.  Worker-side state lives in the per-process
``_WORKER`` dict and never crosses back except as picklable records and
spans.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.core.evaluator import Evaluator, GoldCache, gold_key
from repro.core.logs import ExperimentLogStore
from repro.core.metrics import EvaluationRecord, MethodReport
from repro.core.taxonomy import classify_failure
from repro.datagen.benchmark import BenchmarkConfig, Dataset, Example, build_benchmark
from repro.methods.base import MethodGroup, NL2SQLMethod, PipelineMethod
from repro.modules.base import PipelineConfig
from repro.utils.cache import caches_enabled, lru_cache_stats, set_caches_enabled
from repro.obs.trace import ExampleSpan, Tracer, get_tracer, set_tracer
from repro.utils.rng import stable_hash

# Below this many pending examples a process pool is not worth its
# worker-initialization cost (each worker rebuilds the dataset); such
# batches run in-process.
_PROCESS_MIN_WORK = 32


@dataclass(frozen=True)
class MethodSpec:
    """Picklable recipe that rebuilds a :class:`PipelineMethod` in a worker."""

    config: PipelineConfig
    group: MethodGroup
    seed: int

    @classmethod
    def from_method(cls, method: NL2SQLMethod) -> "MethodSpec | None":
        # Only exact PipelineMethods are safely reconstructible: subclasses
        # and hand-written methods may carry state a worker cannot rebuild.
        if type(method) is not PipelineMethod:
            return None
        return cls(config=method.config, group=method.group, seed=method.seed)

    def key(self) -> str:
        return f"{stable_hash(repr(self.config), self.group.value, self.seed):016x}"


@dataclass
class EvalStats:
    """Counters the engine accumulates across evaluate calls."""

    predictions: int = 0        # examples that ran a method's predict()
    cache_hits: int = 0         # examples served by the cross-run cache
    gold_executions: int = 0    # distinct gold queries executed (precompute)
    parallel_tasks: int = 0     # chunks dispatched to the process pool
    fresh_by_method: dict[str, int] = field(default_factory=dict)


def result_fingerprint(
    method: PipelineMethod,
    dataset: Dataset,
    measure_timing: bool,
    timing_repeats: int,
) -> str:
    """Stable cache fingerprint for (method config, dataset, timing knobs).

    Only plain :class:`PipelineMethod` records are cached, since only
    they rebuild from a :class:`MethodSpec`.  The dataset part is its
    build recipe, so the key identifies the records only while
    ``dataset.as_built()`` holds.  Timing settings are part of the key
    because they change record contents (``gold_seconds`` /
    ``predicted_seconds``).
    """
    digest = stable_hash(
        repr(method.config), method.seed, dataset.fingerprint(), measure_timing, timing_repeats
    )
    return f"{digest:016x}"


# -- worker side -------------------------------------------------------------

# Per-process state, populated by the pool initializer: the rebuilt
# dataset, an evaluator over it, an example index, and prepared methods
# keyed by MethodSpec.key() so repeated chunks skip re-preparation.
_WORKER: dict = {}


def _worker_init(
    config: BenchmarkConfig,
    measure_timing: bool,
    timing_repeats: int,
    trace_enabled: bool = False,
    caches: bool = True,
) -> None:
    # Explicit switch propagation: a spawn-context worker resets the memo
    # switch to its default, so the coordinator's choice is re-applied
    # (fork inherits it, harmlessly re-applied).
    set_caches_enabled(caches)
    dataset = build_benchmark(config)
    _WORKER["dataset"] = dataset
    _WORKER["evaluator"] = Evaluator(
        dataset, measure_timing=measure_timing, timing_repeats=timing_repeats
    )
    _WORKER["examples"] = {e.example_id: e for e in dataset.examples}
    _WORKER["methods"] = {}
    if trace_enabled:
        # Workers trace into their own ambient tracer; finished spans are
        # shipped back (pickled dataclasses) with each chunk's records.
        set_tracer(Tracer())


def _worker_evaluate(
    spec: MethodSpec,
    example_ids: list[str],
    gold_updates: GoldCache,
) -> tuple[list[EvaluationRecord], list[ExampleSpan]]:
    evaluator: Evaluator = _WORKER["evaluator"]
    # Coordinator-precomputed gold results: the worker never re-executes
    # gold SQL, so each distinct gold query runs exactly once per dataset.
    evaluator._gold_cache.update(gold_updates)
    methods: dict[str, PipelineMethod] = _WORKER["methods"]
    key = spec.key()
    if key not in methods:
        method = PipelineMethod(spec.config, spec.group, seed=spec.seed)
        method.prepare(_WORKER["dataset"])
        methods[key] = method
    method = methods[key]
    examples = [_WORKER["examples"][eid] for eid in example_ids]
    records = [evaluator.evaluate_example(method, example) for example in examples]
    return records, get_tracer().drain()


# -- coordinator side --------------------------------------------------------


class ParallelEvaluator(Evaluator):
    """:class:`Evaluator` whose ``evaluate_method`` adds the cross-run
    result cache and the process pool.

    Records are identical to the sequential path (bit-identical when
    ``measure_timing`` is off — wall-clock timings are inherently
    run-dependent either way); ``evaluate_example``, ``evaluate_zoo`` and
    the gold precompute are the base class's.

    Parameters beyond ``Evaluator``'s:

    * ``jobs`` — worker count (default: CPU count).  ``jobs <= 1`` keeps
      everything in-process but still gets the gold precompute and the
      result cache.
    * ``use_result_cache`` — persist/reuse finished records in the
      ``log_store`` (requires one).
    """

    def __init__(
        self,
        dataset: Dataset,
        log_store: ExperimentLogStore | None = None,
        timing_repeats: int = 1,
        measure_timing: bool = True,
        jobs: int | None = None,
        use_result_cache: bool = True,
    ) -> None:
        super().__init__(dataset, log_store, timing_repeats, measure_timing)
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.use_result_cache = use_result_cache and log_store is not None
        self.stats = EvalStats()
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                # Tracing state is captured at pool creation: toggle the
                # ambient tracer before the first parallel evaluate call.
                initargs=(
                    self.dataset.config,
                    self.measure_timing,
                    self.timing_repeats,
                    get_tracer().enabled,
                    caches_enabled(),
                ),
            )
        return self._pool

    # -- evaluation -----------------------------------------------------

    def _evaluate_process(
        self, spec: MethodSpec, pending: list[Example]
    ) -> list[EvaluationRecord]:
        pool = self._process_pool()
        # Aim for a few chunks per worker so stragglers rebalance.
        size = -(-len(pending) // (self.jobs * 4))
        futures: list[Future] = []
        for start in range(0, len(pending), size):
            chunk = pending[start : start + size]
            # Ship the chunk's precomputed gold results along with the
            # task: any worker can serve any chunk without re-execution.
            # Gold keys carry the coordinator's data_version, which the
            # worker's freshly-built dataset reproduces deterministically.
            gold_updates = {}
            for e in chunk:
                key = gold_key(e, self.dataset.database(e.db_id).data_version)
                gold_updates[key] = self._gold_cache[key]
            ids = [e.example_id for e in chunk]
            futures.append(pool.submit(_worker_evaluate, spec, ids, gold_updates))
            self.stats.parallel_tasks += 1
        trace = get_tracer()
        records: list[EvaluationRecord] = []
        for future in futures:
            chunk_records, chunk_spans = future.result()
            records.extend(chunk_records)
            trace.add_spans(chunk_spans)
        return records

    def evaluate_method(
        self,
        method: NL2SQLMethod,
        examples: list[Example] | None = None,
        split: str = "dev",
        prepare: bool = True,
    ) -> MethodReport:
        """Evaluate ``method`` on ``examples`` (default: the dev split)."""
        examples = list(examples) if examples is not None else self.dataset.split(split)
        # Snapshot the process-cumulative LRU and read-path counters so
        # the collected metrics carry only this run's deltas (coordinator
        # process only; worker-process memos stay worker-local).
        lru_before = lru_cache_stats()
        pool_before = self.pool_totals()
        spec = MethodSpec.from_method(method)
        # Pool workers rebuild the dataset from its recipe and the result
        # cache keys on that recipe: neither sees a write since the build.
        as_built = self.dataset.as_built()
        cached: dict[str, EvaluationRecord] = {}
        fingerprint: str | None = None
        if self.use_result_cache and spec is not None and as_built:
            fingerprint = result_fingerprint(
                method, self.dataset, self.measure_timing, self.timing_repeats
            )
            cached = self.log_store.cached_records(fingerprint)

        pending = [e for e in examples if e.example_id not in cached]
        self.stats.cache_hits += len(examples) - len(pending)
        self.stats.fresh_by_method[method.name] = len(pending)

        fresh: dict[str, EvaluationRecord] = {}
        fresh_gold = 0
        if pending:
            fresh_gold = self.precompute_gold(pending)
            self.stats.gold_executions += fresh_gold
            if (
                self.jobs > 1
                and len(pending) >= _PROCESS_MIN_WORK
                and spec is not None
                and prepare
                and as_built
            ):
                records = self._evaluate_process(spec, pending)
            else:
                if prepare:
                    method.prepare(self.dataset)
                records = [self.evaluate_example(method, e) for e in pending]
            self.stats.predictions += len(pending)
            fresh = {record.example_id: record for record in records}

        report = MethodReport(method=method.name)
        report.records = [
            cached[e.example_id] if e.example_id in cached else fresh[e.example_id]
            for e in examples
        ]
        self._trace_cache_hits(report.records, cached)
        spans, registry = self.collect_observability(
            method.name, report.records, fresh_gold, lru_before, pool_before, cached
        )
        self.trace_spans.extend(spans)
        if fingerprint is not None and fresh:
            self.log_store.store_cached_records(fingerprint, list(fresh.values()))
        if self.log_store is not None and report.records:
            run_id = self.log_store.store_records(self.dataset.name, report.records)
            if registry is not None:
                self.log_store.store_trace(run_id, spans)
                self.log_store.store_metrics(run_id, registry)
        return report

    def _trace_cache_hits(
        self, records: list[EvaluationRecord], cached: dict[str, EvaluationRecord]
    ) -> None:
        """Give the examples the result cache served synthetic spans.

        They never ran the pipeline, so their spans are stage-less; the
        failure tag is re-derived from the record's deterministic fields
        (corruption tags are not persisted, so attribution is coarser
        here).
        """
        trace = get_tracer()
        if not trace.enabled:
            return
        trace.add_spans([
            ExampleSpan(
                method=record.method,
                example_id=record.example_id,
                cache_hit=True,
                input_tokens=record.input_tokens,
                output_tokens=record.output_tokens,
                cost_usd=record.cost_usd,
                failure=classify_failure(
                    ex=record.ex,
                    truncated=record.gold_truncated or record.predicted_truncated,
                ),
            )
            for record in records
            if record.example_id in cached
        ])
