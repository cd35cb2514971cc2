"""Run reports and the sequential/parallel observability equivalence.

The acceptance contract of the observability layer: sequential and
parallel runs of the same configuration produce identical merged span
trees (modulo timings) and identical report failure/cache/cost sections.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.evaluator import Evaluator
from repro.core.logs import ExperimentLogStore
from repro.core.parallel import ParallelEvaluator
from repro.methods.zoo import build_method
from repro.obs import (
    SPAN_COUNTERS,
    STAGES,
    ExampleSpan,
    MetricsRegistry,
    StageSpan,
    build_run_report,
    render_json,
    render_markdown,
    report_from_store,
    tracing,
)

METHODS = ["DAILSQL", "SuperSQL"]


def _structures(spans):
    return [span.structure() for span in spans]


@pytest.fixture(scope="module")
def sequential_traced(small_dataset):
    evaluator = Evaluator(small_dataset, measure_timing=False)
    with tracing() as tracer:
        reports = evaluator.evaluate_zoo([build_method(m) for m in METHODS])
    return reports, evaluator.trace_spans, tracer.metrics


class TestSequentialTracedRun:
    def test_span_per_example_with_full_stage_chain(
        self, small_dataset, sequential_traced
    ):
        _, spans, _ = sequential_traced
        assert len(spans) == len(METHODS) * len(small_dataset.dev_examples)
        for span in spans:
            stages = [stage.stage for stage in span.stages]
            # Stage order always follows the canonical pipeline order and
            # always ends with execute -> score.
            order = {name: rank for rank, name in enumerate(STAGES)}
            assert stages == sorted(stages, key=order.__getitem__)
            assert stages[-2:] == ["execute", "score"]
            # Gold is precomputed before the loop, so the execute stage is
            # uniformly a gold-cache hit (the parallel engine matches).
            assert span.stages[-2].cache_hit is True

    def test_failure_tags_only_on_incorrect_examples(self, sequential_traced):
        reports, spans, _ = sequential_traced
        by_id = {(s.method, s.example_id): s for s in spans}
        for name in METHODS:
            for record in reports[name].records:
                span = by_id[(name, record.example_id)]
                if record.ex:
                    assert span.failure is None
                else:
                    assert span.failure is not None

    def test_report_sections(self, small_dataset, sequential_traced):
        reports, spans, metrics = sequential_traced
        records = [r for name in METHODS for r in reports[name].records]
        report = build_run_report(
            records, spans=spans, metrics=metrics, dataset=small_dataset.name
        )
        assert report.traced
        assert report.methods == sorted(METHODS)
        assert report.examples == len(records)
        assert {row["stage"] for row in report.stage_rows} >= {
            "decode", "execute", "score"
        }
        assert report.failures, "a small run still has some failures"
        assert report.cache["result_cache_hits"] == 0
        distinct_gold = {
            (e.db_id, e.gold_sql) for e in small_dataset.dev_examples
        }
        # gold_executions counts fresh executions: all on the first
        # method, zero on the second (the cache is already warm).
        assert report.cache["gold_executions"] == len(distinct_gold)
        assert report.economy["correct"] == sum(1 for r in records if r.ex)
        markdown = render_markdown(report)
        assert "# Run report" in markdown
        for section in ("Headline metrics", "Stage-time breakdown",
                        "Failure categories", "Cache effectiveness", "Economy"):
            assert section in markdown
        assert '"failures"' in render_json(report)

    def test_untraced_report_degrades_gracefully(self, sequential_traced):
        reports, _, _ = sequential_traced
        records = reports[METHODS[0]].records
        report = build_run_report(records, dataset="x")
        assert not report.traced
        assert report.stage_rows == [] and report.failures == []
        markdown = render_markdown(report)
        assert "No stage data" in markdown and "No failure data" in markdown


class TestSequentialParallelEquivalence:
    """The acceptance test: identical span structures and report sections."""

    def _assert_equivalent(self, small_dataset, sequential_traced, engine_spans,
                           engine_reports, engine_metrics):
        seq_reports, seq_spans, seq_metrics = sequential_traced
        assert _structures(engine_spans) == _structures(seq_spans)
        seq_records = [r for name in METHODS for r in seq_reports[name].records]
        par_records = [r for name in METHODS for r in engine_reports[name].records]
        seq_report = build_run_report(
            seq_records, spans=seq_spans, metrics=seq_metrics,
            dataset=small_dataset.name,
        )
        par_report = build_run_report(
            par_records, spans=engine_spans, metrics=engine_metrics,
            dataset=small_dataset.name,
        )
        assert par_report.equivalence_key() == seq_report.equivalence_key()

    def test_process_pool_equivalence(self, small_dataset, sequential_traced):
        with tracing() as tracer:
            with ParallelEvaluator(
                small_dataset, measure_timing=False, jobs=2
            ) as engine:
                reports = engine.evaluate_zoo([build_method(m) for m in METHODS])
                assert engine.stats.parallel_tasks > 0
        self._assert_equivalent(
            small_dataset, sequential_traced, engine.trace_spans, reports,
            tracer.metrics,
        )


class TestPersistenceRoundTrip:
    def test_trace_and_metrics_round_trip(self, small_dataset, sequential_traced):
        reports, spans, metrics = sequential_traced
        with ExperimentLogStore() as store:
            run_id = store.store_records(
                small_dataset.name, reports[METHODS[0]].records
            )
            store.store_trace(run_id, spans)
            store.store_metrics(run_id, metrics)
            assert store.load_trace(run_id) == spans
            assert store.load_metrics(run_id).as_dict() == metrics.as_dict()

    def test_report_from_store_matches_in_memory(
        self, small_dataset, sequential_traced
    ):
        # One run per method, as the engines persist them; report-run
        # defaults to the latest.
        reports, spans, metrics = sequential_traced
        method = METHODS[-1]
        method_spans = [s for s in spans if s.method == method]
        in_memory = build_run_report(
            reports[method].records, spans=method_spans, metrics=metrics,
            dataset=small_dataset.name,
        )
        with ExperimentLogStore() as store:
            for name in METHODS:
                run_id = store.store_records(
                    small_dataset.name, reports[name].records
                )
                store.store_trace(
                    run_id, [s for s in spans if s.method == name]
                )
                store.store_metrics(run_id, metrics)
            rebuilt = report_from_store(store)      # defaults to latest run
            assert rebuilt.dataset == small_dataset.name
            assert rebuilt.as_dict() == in_memory.as_dict()
            assert report_from_store(store, run_id).as_dict() == in_memory.as_dict()

    def test_old_trace_table_gains_counter_columns_on_open(
        self, tmp_path, small_dataset, sequential_traced
    ):
        # The trace_spans shape before any span counter was persisted.
        path = tmp_path / "old.db"
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE trace_spans (run_id INTEGER NOT NULL,"
                " position INTEGER NOT NULL, method TEXT NOT NULL,"
                " example_id TEXT NOT NULL, stage TEXT NOT NULL DEFAULT '',"
                " seconds REAL NOT NULL, cache_hit INTEGER NOT NULL,"
                " llm_calls INTEGER NOT NULL, input_tokens INTEGER NOT NULL,"
                " output_tokens INTEGER NOT NULL, cost_usd REAL NOT NULL,"
                " failure TEXT, PRIMARY KEY (run_id, position))"
            )
            connection.executemany(
                "INSERT INTO trace_spans VALUES"
                " (0, ?, 'M', 'x', ?, 0.5, 0, ?, 0, 4, 0.0, NULL)",
                [(0, "", 0), (1, "decode", 2)],
            )
        connection.close()
        reports, spans, _ = sequential_traced
        assert any(stage.counters for span in spans for stage in span.stages)
        with ExperimentLogStore(path) as store:
            columns = {
                row[1] for row in store.query("PRAGMA table_info(trace_spans)")
            }
            assert {spec.name for spec in SPAN_COUNTERS} <= columns
            assert store.load_trace(0) == [ExampleSpan(
                "M", "x", seconds=0.5, output_tokens=4,
                stages=[StageSpan("decode", seconds=0.5, llm_calls=2,
                                  output_tokens=4)],
            )]
            run_id = store.store_records(
                small_dataset.name, reports[METHODS[0]].records
            )
            store.store_trace(run_id, spans)
            assert store.load_trace(run_id) == spans

    def test_report_from_empty_store_raises(self):
        with ExperimentLogStore() as store:
            with pytest.raises(ValueError):
                report_from_store(store)


class TestRunDeltaMetrics:
    def test_traced_sequential_run_counts_pool_and_lru_deltas(
        self, small_dataset
    ):
        def checkouts():
            return sum(
                database.pool_stats()["checkouts"]
                for database in small_dataset.databases.values()
            )

        evaluator = Evaluator(small_dataset, measure_timing=False)
        before = checkouts()
        with tracing() as tracer:
            evaluator.evaluate_method(build_method(METHODS[0]))
        delta = checkouts() - before
        labels = {"method": METHODS[0], "benchmark": small_dataset.name}
        assert delta > 0
        assert tracer.metrics.counter_total("pool_checkouts", **labels) == delta
        assert tracer.metrics.counter_total(
            "lru_cache_hits", cache="candidate_exec", **labels
        ) > 0

    def test_read_path_line_prints_the_runs_pool_deltas(self, small_dataset):
        # build_benchmark already created each database's replica, so a
        # run's "created" delta is a count of new replicas, not of all.
        keys = ("checkouts", "created", "refreshes", "waits")

        def totals():
            stats = [d.pool_stats() for d in small_dataset.databases.values()]
            return {key: sum(s[key] for s in stats) for key in keys}

        evaluator = Evaluator(small_dataset, measure_timing=False)
        before = totals()
        with tracing() as tracer:
            report = evaluator.evaluate_method(build_method(METHODS[0]))
        after = totals()
        delta = {key: after[key] - before[key] for key in keys}
        assert delta["checkouts"] > 0
        run_report = build_run_report(
            report.records, evaluator.trace_spans, tracer.metrics,
            small_dataset.name,
        )
        (line,) = [
            line for line in render_markdown(run_report).splitlines()
            if line.startswith("- read path:")
        ]
        assert line == (
            f"- read path: {delta['checkouts']} checkouts, "
            f"{delta['created']} replicas created, "
            f"{delta['refreshes']} refreshes, "
            f"{delta['waits']} waits during the run"
        )


class TestServeCacheReporting:
    """serve_cache_* counters surface in the report but never in the
    sequential/parallel equivalence key (hit/miss split is schedule- and
    warmth-dependent)."""

    def test_report_surfaces_serve_cache_counters(self, sequential_traced):
        reports, spans, _ = sequential_traced
        records = reports[METHODS[0]].records
        metrics = MetricsRegistry()
        metrics.count("serve_cache_hits", value=7)
        metrics.count("serve_cache_misses", value=3)
        metrics.count("serve_cache_evictions", value=2)
        report = build_run_report(records, spans=spans, metrics=metrics,
                                  dataset="x")
        assert report.cache["serve_cache_hits"] == 7
        assert report.cache["serve_cache_misses"] == 3
        assert report.cache["serve_cache_evictions"] == 2
        markdown = render_markdown(report)
        assert "serve response cache: 7 hits / 3 misses (2 evictions)" in markdown

    def test_serve_cache_counters_excluded_from_equivalence(
        self, sequential_traced
    ):
        reports, spans, _ = sequential_traced
        records = reports[METHODS[0]].records
        cold = MetricsRegistry()
        warm = MetricsRegistry()
        warm.count("serve_cache_hits", value=100)
        warm.count("serve_cache_misses", value=5)
        warm.count("serve_cache_evictions", value=1)
        cold_report = build_run_report(records, spans=spans, metrics=cold,
                                       dataset="x")
        warm_report = build_run_report(records, spans=spans, metrics=warm,
                                       dataset="x")
        assert cold_report.equivalence_key() == warm_report.equivalence_key()


class TestWarmCacheSpans:
    def test_cache_served_examples_get_synthetic_spans(self, small_dataset):
        store = ExperimentLogStore()
        method = "DAILSQL"
        with tracing():
            with ParallelEvaluator(
                small_dataset, log_store=store, measure_timing=False, jobs=1
            ) as engine:
                engine.evaluate_method(build_method(method))
        with tracing() as tracer:
            with ParallelEvaluator(
                small_dataset, log_store=store, measure_timing=False, jobs=1
            ) as warm:
                report = warm.evaluate_method(build_method(method))
        store.close()
        assert warm.stats.predictions == 0
        spans = warm.trace_spans
        assert len(spans) == len(small_dataset.dev_examples)
        # Cache-served spans are stageless and flagged as cache hits.
        assert all(span.cache_hit and span.stages == [] for span in spans)
        run_report = build_run_report(
            report.records, spans=spans, metrics=tracer.metrics,
            dataset=small_dataset.name,
        )
        assert run_report.cache["result_cache_hits"] == len(spans)
        assert run_report.cache["fresh_evaluations"] == 0
        assert run_report.cache["result_cache_hit_pct"] == 100.0
