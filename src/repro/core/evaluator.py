"""The NL2SQL360 Evaluator: run methods over benchmarks, produce reports.

The evaluator executes gold and predicted SQL against the live SQLite
databases (caching gold executions), computes EX with Spider's
order-sensitivity rule, EM with Spider's component comparison, and times
executions for VES.  Every record can be persisted to the SQLite-backed
:class:`~repro.core.logs.ExperimentLogStore` for later analysis.

Hot-path memo layers (all bit-identical on vs off, see
``repro.utils.cache``), shared by every method in the process: prepared
methods select few-shot examples through the shared
:class:`~repro.modules.retrieval.FewShotIndex`; honest intent parses and
pruned schemas are memoized per live schema object, PICARD verdicts per
schema, and DB-content matches, rendered schema DDL and candidate
executions per live database; untimed predicted-SQL scoring reuses the
candidate-execution LRU; and EM canonical forms, token counts, lexicon
normalizations and schema-linking string similarities are memoized per
process on their text.

Observability: when a tracer is installed (``repro.obs.tracing()``),
``evaluate_example`` opens an example span with ``execute``/``score``
stage children (prediction-side stages are emitted inside the method
pipeline), tags failures via
:func:`repro.core.taxonomy.classify_failure`, and ``evaluate_method``
drains the method's spans into ``self.trace_spans``, folds them into the
tracer's :class:`~repro.obs.registry.MetricsRegistry`, and persists both
next to the records when a log store is attached.

Inputs/outputs: a :class:`~repro.datagen.benchmark.Dataset` plus methods
in, :class:`~repro.core.metrics.MethodReport` record streams out.

Thread/process safety: concurrent ``evaluate_example`` calls from
multiple threads — the serving engine's workers make them — are safe
(database access is lock-guarded, cache-dict updates are atomic under
the GIL, span state is thread-local);
``evaluate_method`` / ``evaluate_zoo`` are coordinator-only.  Instances
do not cross process boundaries — the parallel engine rebuilds one
evaluator per worker.
"""

from __future__ import annotations

from collections.abc import Container

from repro.core.logs import ExperimentLogStore
from repro.core.metrics import EvaluationRecord, MethodReport
from repro.core.taxonomy import classify_failure
from repro.datagen.benchmark import Dataset, Example
from repro.dbengine.executor import (
    ExecutionResult,
    execute_sql,
    execute_sql_cached,
    results_match,
)
from repro.dbengine.timing import timed_execute
from repro.methods.base import NL2SQLMethod
from repro.obs.registry import (
    POOL_METRICS,
    MetricsRegistry,
    ingest_deltas,
    ingest_record,
    ingest_span,
)
from repro.obs.trace import ExampleSpan, get_tracer
from repro.utils.cache import lru_cache_stats
from repro.sqlkit.exact_match import exact_match
from repro.sqlkit.features import SQLFeatures, extract_features

# gold_key -> (data_version, result, seconds): one entry per distinct gold
# query, at the version it last ran on.  The parallel engine ships entries
# from its one-pass gold precompute to its workers.
GoldCache = dict[tuple[str, str], tuple[int, ExecutionResult, float]]

# lru_cache_stats() entry key -> metric name.
_LRU_METRICS = {"hits": "lru_cache_hits", "misses": "lru_cache_misses"}


def gold_key(example: Example) -> tuple[str, str]:
    """Gold-cache key of ``example``: its ``(db_id, gold_sql)``.

    The entry stores the database's ``data_version`` with the result; a
    lookup at another version (after ``Database.mark_mutated`` or a
    write) re-executes and overwrites it, so a write never serves a
    stale gold row set and the cache never holds more than one entry
    per distinct gold query.
    """
    return (example.db_id, example.gold_sql)


class Evaluator:
    """Evaluates methods against one benchmark dataset."""

    def __init__(
        self,
        dataset: Dataset,
        log_store: ExperimentLogStore | None = None,
        timing_repeats: int = 1,
        measure_timing: bool = True,
    ) -> None:
        self.dataset = dataset
        self.log_store = log_store
        self.timing_repeats = timing_repeats
        self.measure_timing = measure_timing
        self._gold_cache: GoldCache = {}
        self._feature_cache: dict[str, SQLFeatures] = {}
        # Spans drained from the ambient tracer, one batch per
        # evaluate_method call; empty while tracing is disabled.
        self.trace_spans: list[ExampleSpan] = []

    # -- internals ----------------------------------------------------------

    def _gold_entry(
        self, example: Example, version: int
    ) -> tuple[int, ExecutionResult, float] | None:
        """``example``'s cached gold entry if it ran at ``version``, else ``None``."""
        entry = self._gold_cache.get(gold_key(example))
        return entry if entry is not None and entry[0] == version else None

    def _gold_execution(self, example: Example) -> tuple[ExecutionResult, float]:
        database = self.dataset.database(example.db_id)
        version = database.data_version
        entry = self._gold_entry(example, version)
        if entry is None:
            # Serving threads may race here on one key: each stores what
            # it ran at the version it read; a later version runs again.
            if self.measure_timing:
                timed = timed_execute(
                    database, example.gold_sql, repeats=self.timing_repeats
                )
                entry = (version, timed.result, timed.seconds)
            else:
                entry = (version, execute_sql(database, example.gold_sql), 1e-4)
            self._gold_cache[gold_key(example)] = entry
        return entry[1], entry[2]

    def precompute_gold(self, examples: list[Example]) -> int:
        """One-pass gold precompute: run each distinct (db_id, gold_sql) once.

        Shares the timed results with every method evaluated afterwards
        (and, shipped with each chunk, with process-pool workers).
        Returns the number of fresh executions performed.
        """
        fresh = 0
        for example in examples:
            version = self.dataset.database(example.db_id).data_version
            if self._gold_entry(example, version) is None:
                self._gold_execution(example)
                fresh += 1
        return fresh

    def _features(self, gold_sql: str) -> SQLFeatures:
        if gold_sql not in self._feature_cache:
            self._feature_cache[gold_sql] = extract_features(gold_sql)
        return self._feature_cache[gold_sql]

    def evaluate_example(self, method: NL2SQLMethod, example: Example) -> EvaluationRecord:
        """Run ``method`` on one example and score it."""
        trace = get_tracer()
        with trace.example(method.name, example.example_id) as span:
            database = self.dataset.database(example.db_id)
            prediction = method.predict(example, database)
            gold_cached = self._gold_entry(example, database.data_version) is not None
            with trace.stage("execute") as stage:
                stage.cache_hit = gold_cached
                gold_result, gold_seconds = self._gold_execution(example)
                if self.measure_timing:
                    predicted_timed = timed_execute(
                        database, prediction.sql, repeats=self.timing_repeats
                    )
                    predicted_result = predicted_timed.result
                    predicted_seconds = predicted_timed.seconds
                else:
                    # Untimed scoring shares the candidate-execution LRU:
                    # post-processing usually executed this exact SQL.
                    predicted_result = execute_sql_cached(database, prediction.sql)
                    predicted_seconds = 1e-4
            with trace.stage("score"):
                features = self._features(example.gold_sql)
                ex = results_match(
                    predicted_result, gold_result, order_matters=features.has_order_by
                )
                em = exact_match(prediction.sql, example.gold_sql)
            if trace.enabled:
                span.input_tokens = prediction.input_tokens
                span.output_tokens = prediction.output_tokens
                span.cost_usd = prediction.cost_usd
                span.failure = classify_failure(
                    ex=ex,
                    prediction_errors=prediction.errors,
                    execution_error=predicted_result.error,
                    truncated=gold_result.truncated or predicted_result.truncated,
                )
        return EvaluationRecord(
            method=method.name,
            example_id=example.example_id,
            db_id=example.db_id,
            domain=example.domain,
            question=example.question,
            gold_sql=example.gold_sql,
            predicted_sql=prediction.sql,
            hardness=example.hardness,
            bird_difficulty=example.bird_difficulty,
            variant_group=example.variant_group,
            variant_style=example.variant_style,
            ex=ex,
            em=em,
            gold_seconds=gold_seconds,
            predicted_seconds=predicted_seconds,
            input_tokens=prediction.input_tokens,
            output_tokens=prediction.output_tokens,
            cost_usd=prediction.cost_usd,
            latency_s=prediction.latency_s,
            has_join=features.has_join,
            has_subquery=features.has_subquery,
            has_logical_connector=features.has_logical_connector,
            has_order_by=features.has_order_by,
            gold_truncated=gold_result.truncated,
            predicted_truncated=predicted_result.truncated,
        )

    def pool_totals(self) -> dict[str, int]:
        """Read-path counters summed over this dataset's databases."""
        totals = {"created": 0, "checkouts": 0, "refreshes": 0, "waits": 0}
        for database in self.dataset.databases.values():
            for key, value in database.pool_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def collect_observability(
        self,
        method_name: str,
        records: list[EvaluationRecord],
        fresh_gold: int,
        lru_before: dict[str, dict[str, int]],
        pool_before: dict[str, int],
        cached: Container[str] = (),
    ) -> tuple[list[ExampleSpan], MetricsRegistry | None]:
        """Drain ``method_name``'s spans and build its per-run metrics.

        The registry counts the fresh gold executions, the LRU and
        read-path deltas since the ``*_before`` snapshots (this process
        only: worker-process memos stay worker-local) and every record
        and span; ``cached`` holds the ids of the examples the result
        cache served.  It is merged into the ambient tracer's registry
        too.  Returns ``([], None)`` while tracing is off.
        """
        trace = get_tracer()
        if not trace.enabled:
            return [], None
        spans = trace.drain(method=method_name)
        benchmark = self.dataset.name
        labels = {"method": method_name, "benchmark": benchmark}
        registry = MetricsRegistry()
        registry.count("gold_executions", value=fresh_gold, **labels)
        for cache_name, stats in lru_cache_stats().items():
            ingest_deltas(
                registry, lru_before.get(cache_name, {}), stats, _LRU_METRICS,
                cache=cache_name, **labels,
            )
        ingest_deltas(
            registry, pool_before, self.pool_totals(), POOL_METRICS, **labels
        )
        for record in records:
            ingest_record(
                registry, benchmark, record, cache_hit=record.example_id in cached
            )
        for span in spans:
            ingest_span(registry, benchmark, span)
        trace.metrics.merge(registry)
        return spans, registry

    # -- public API --------------------------------------------------------------

    def evaluate_method(
        self,
        method: NL2SQLMethod,
        examples: list[Example] | None = None,
        split: str = "dev",
        prepare: bool = True,
    ) -> MethodReport:
        """Evaluate ``method`` on ``examples`` (default: the dev split)."""
        if prepare:
            method.prepare(self.dataset)
        examples = examples if examples is not None else self.dataset.split(split)
        # Snapshot the process-cumulative LRU and read-path counters so
        # the collected metrics carry only this run's deltas.
        lru_before = lru_cache_stats()
        pool_before = self.pool_totals()
        # Precompute gold up front: each distinct gold query runs exactly
        # once, and every example span sees the gold cache warm — same
        # behaviour as the parallel engine, so span trees are comparable.
        fresh_gold = self.precompute_gold(examples)
        report = MethodReport(method=method.name)
        for example in examples:
            report.records.append(self.evaluate_example(method, example))
        spans, registry = self.collect_observability(
            method.name, report.records, fresh_gold, lru_before, pool_before
        )
        self.trace_spans.extend(spans)
        if self.log_store is not None:
            run_id = self.log_store.store_records(self.dataset.name, report.records)
            if registry is not None:
                self.log_store.store_trace(run_id, spans)
                self.log_store.store_metrics(run_id, registry)
        return report

    def evaluate_zoo(
        self,
        methods: list[NL2SQLMethod],
        examples: list[Example] | None = None,
        split: str = "dev",
    ) -> dict[str, MethodReport]:
        """Evaluate several methods; returns name -> report."""
        return {
            method.name: self.evaluate_method(method, examples=examples, split=split)
            for method in methods
        }
