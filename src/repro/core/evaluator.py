"""The NL2SQL360 Evaluator: run methods over benchmarks, produce reports.

The evaluator executes gold and predicted SQL against the live SQLite
databases (caching gold executions), computes EX with Spider's
order-sensitivity rule, EM with Spider's component comparison, and times
executions for VES.  Every record can be persisted to the SQLite-backed
:class:`~repro.core.logs.ExperimentLogStore` for later analysis.

Hot-path memo layers (all bit-identical on vs off, see
``repro.utils.cache``): prepared methods select few-shot examples
through the shared :class:`~repro.modules.retrieval.FewShotIndex`, the
simulated model memoizes honestly-parsed intents per question, PICARD
verdicts and candidate executions are memoized per schema/database,
untimed predicted-SQL scoring reuses the candidate-execution LRU, and
schema linking memoizes its string similarities per process.

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
multiple threads are safe (database access is lock-guarded, cache-dict
updates are atomic under the GIL, span state is thread-local);
``evaluate_method`` / ``evaluate_zoo`` are coordinator-only.  Instances
do not cross process boundaries — the parallel engine rebuilds one
evaluator per worker.
"""

from __future__ import annotations

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
    MetricsRegistry,
    ingest_lru_deltas,
    ingest_pool_deltas,
    ingest_record,
    ingest_span,
)
from repro.obs.trace import ExampleSpan, get_tracer
from repro.utils.cache import lru_cache_stats
from repro.sqlkit.exact_match import exact_match
from repro.sqlkit.features import SQLFeatures, extract_features

# (db_id, data_version, gold_sql) -> (result, seconds); shared between the
# sequential evaluator and the parallel engine's one-pass gold precompute.
GoldCache = dict[str, tuple[ExecutionResult, float]]


def gold_key(example: Example, data_version: int = 0) -> str:
    """Cache key for one distinct (db_id, data_version, gold_sql) gold execution.

    Keying on the database's ``data_version`` means a content mutation
    (``Database.mark_mutated``) invalidates the gold result along with
    every other execution memo — a mid-run mutation can never serve a
    stale gold row set.
    """
    return f"{example.db_id}::{data_version}::{example.gold_sql}"


class Evaluator:
    """Evaluates methods against one benchmark dataset."""

    def __init__(
        self,
        dataset: Dataset,
        log_store: ExperimentLogStore | None = None,
        timing_repeats: int = 1,
        measure_timing: bool = True,
        gold_cache: GoldCache | None = None,
        feature_cache: dict[str, SQLFeatures] | None = None,
    ) -> None:
        self.dataset = dataset
        self.log_store = log_store
        self.timing_repeats = timing_repeats
        self.measure_timing = measure_timing
        # Caches may be injected so several evaluators (e.g. the parallel
        # engine's local path and its workers) share one set of results.
        self._gold_cache: GoldCache = gold_cache if gold_cache is not None else {}
        self._feature_cache: dict[str, SQLFeatures] = (
            feature_cache if feature_cache is not None else {}
        )
        # Spans drained from the ambient tracer, one batch per
        # evaluate_method call; empty while tracing is disabled.
        self.trace_spans: list[ExampleSpan] = []

    # -- internals ----------------------------------------------------------

    def _gold_execution(self, example: Example) -> tuple[ExecutionResult, float]:
        database = self.dataset.database(example.db_id)
        key = gold_key(example, database.data_version)
        if key not in self._gold_cache:
            if self.measure_timing:
                timed = timed_execute(
                    database, example.gold_sql, repeats=self.timing_repeats
                )
                self._gold_cache[key] = (timed.result, timed.seconds)
            else:
                result = execute_sql(database, example.gold_sql)
                self._gold_cache[key] = (result, 1e-4)
        return self._gold_cache[key]

    def precompute_gold(self, examples: list[Example]) -> int:
        """One-pass gold precompute: run each distinct (db_id, gold_sql) once.

        Shares the timed results with every method evaluated afterwards
        (and, via the injected ``gold_cache``, with parallel workers).
        Returns the number of fresh executions performed.
        """
        fresh = 0
        for example in examples:
            version = self.dataset.database(example.db_id).data_version
            if gold_key(example, version) not in self._gold_cache:
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
            gold_cached = gold_key(example, database.data_version) in self._gold_cache
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

    def _collect_observability(
        self,
        method_name: str,
        records: list[EvaluationRecord],
        fresh_gold: int,
        lru_before: dict[str, dict[str, int]] | None = None,
        pool_before: dict[str, int] | None = None,
    ) -> tuple[list[ExampleSpan], MetricsRegistry | None]:
        """Drain this method's spans and build its per-run metrics."""
        trace = get_tracer()
        if not trace.enabled:
            return [], None
        spans = trace.drain(method=method_name)
        self.trace_spans.extend(spans)
        registry = MetricsRegistry()
        registry.count(
            "gold_executions",
            value=fresh_gold,
            method=method_name,
            benchmark=self.dataset.name,
        )
        ingest_lru_deltas(registry, self.dataset.name, method_name, lru_before)
        ingest_pool_deltas(
            registry, self.dataset.name, method_name, pool_before, self.pool_totals()
        )
        for record in records:
            ingest_record(registry, self.dataset.name, record)
        for span in spans:
            ingest_span(registry, self.dataset.name, span)
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
        spans, registry = self._collect_observability(
            method.name, report.records, fresh_gold, lru_before, pool_before
        )
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
