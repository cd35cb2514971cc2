"""Tests for the evaluator and the SQLite experiment log store."""

import pytest

from repro.core.evaluator import Evaluator
from repro.core.logs import ExperimentLogStore
from repro.datagen.benchmark import build_benchmark
from repro.methods.zoo import build_method

from tests.conftest import null_value_columns, small_benchmark_config


@pytest.fixture(scope="module")
def evaluated(small_dataset):
    """One method evaluated once, shared by the read-only tests below."""
    store = ExperimentLogStore()
    evaluator = Evaluator(small_dataset, log_store=store, measure_timing=False)
    method = build_method("DAILSQL")
    report = evaluator.evaluate_method(method)
    return evaluator, store, report


class TestEvaluator:
    def test_one_record_per_example(self, evaluated, small_dataset):
        __, __, report = evaluated
        assert len(report) == len(small_dataset.dev_examples)

    def test_records_carry_features(self, evaluated):
        __, __, report = evaluated
        joins = [r for r in report.records if r.has_join]
        assert joins and all("JOIN" in r.gold_sql for r in joins)

    def test_reasonable_accuracy(self, evaluated):
        __, __, report = evaluated
        assert 50.0 < report.ex <= 100.0

    def test_gold_cache_reused(self, evaluated, small_dataset):
        evaluator, __, __ = evaluated
        cache_size = len(evaluator._gold_cache)
        method = build_method("C3SQL")
        evaluator.evaluate_method(method, examples=small_dataset.dev_examples[:5])
        assert len(evaluator._gold_cache) == cache_size  # same golds, no growth

    def test_a_write_rescores_against_the_new_gold_rows(self):
        # Never write to the session-scoped small_dataset.
        dataset = build_benchmark(small_benchmark_config())
        try:
            method = build_method("DAILSQL")
            evaluator = Evaluator(dataset, measure_timing=False)
            before = evaluator.evaluate_method(method).records
            null_value_columns(dataset)
            after = evaluator.evaluate_method(method).records
            fresh = Evaluator(dataset, measure_timing=False)
            expected = fresh.evaluate_method(build_method("DAILSQL")).records
            # No record is scored against the rows from before the write.
            assert after == expected
            assert sum(a.ex != b.ex for a, b in zip(after, before)) > 0
            # One entry per distinct gold query, however many writes.
            distinct = {(e.db_id, e.gold_sql) for e in dataset.dev_examples}
            assert len(evaluator._gold_cache) == len(distinct)
        finally:
            dataset.close()

    def test_subset_evaluation(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        method = build_method("C3SQL")
        report = evaluator.evaluate_method(
            method, examples=small_dataset.dev_examples[:4]
        )
        assert len(report) == 4

    def test_timing_populates_seconds(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=True, timing_repeats=1)
        method = build_method("C3SQL")
        report = evaluator.evaluate_method(
            method, examples=small_dataset.dev_examples[:2]
        )
        assert all(r.gold_seconds > 0 for r in report.records)

    def test_evaluate_zoo(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        reports = evaluator.evaluate_zoo(
            [build_method("C3SQL"), build_method("DAILSQL")],
            examples=small_dataset.dev_examples[:3],
        )
        assert set(reports) == {"C3SQL", "DAILSQL"}


class TestLogStore:
    def test_run_registered(self, evaluated, small_dataset):
        __, store, __ = evaluated
        runs = store.runs()
        assert runs[0][1] == "spider-like"
        assert runs[0][2] == "DAILSQL"

    def test_round_trip_preserves_metrics(self, evaluated):
        __, store, report = evaluated
        loaded = store.load_report(store.runs()[0][0])
        assert loaded.ex == report.ex
        assert loaded.em == report.em
        assert len(loaded) == len(report)

    def test_round_trip_preserves_fields(self, evaluated):
        __, store, report = evaluated
        loaded = store.load_report(store.runs()[0][0])
        original = report.records[0]
        reloaded = loaded.records[0]
        assert reloaded.hardness == original.hardness
        assert reloaded.variant_group == original.variant_group
        assert reloaded.has_join == original.has_join

    def test_missing_run_raises(self, evaluated):
        __, store, __ = evaluated
        with pytest.raises(KeyError):
            store.load_report(999)

    def test_sql_query_interface(self, evaluated):
        __, store, __ = evaluated
        rows = store.query(
            "SELECT COUNT(*) FROM records r JOIN runs USING (run_id) "
            "WHERE runs.method = ?",
            ("DAILSQL",),
        )
        assert rows[0][0] > 0

    def test_empty_records_rejected(self):
        store = ExperimentLogStore()
        with pytest.raises(ValueError):
            store.store_records("d", [])
        store.close()

    def test_file_backed_store(self, tmp_path, evaluated):
        __, __, report = evaluated
        path = tmp_path / "logs.db"
        with ExperimentLogStore(path) as store:
            run_id = store.store_records("spider-like", report.records)
        with ExperimentLogStore(path) as store:
            assert store.load_report(run_id).ex == report.ex

    def test_truncation_flags_round_trip(self, evaluated):
        __, store, report = evaluated
        import dataclasses

        flagged = dataclasses.replace(
            report.records[0], gold_truncated=True, predicted_truncated=True
        )
        run_id = store.store_records("spider-like", [flagged])
        reloaded = store.load_report(run_id).records[0]
        assert reloaded.gold_truncated and reloaded.predicted_truncated

    def test_old_store_file_gains_truncation_columns(self, tmp_path, evaluated):
        # Stores created before the truncated flags existed must be
        # migrated in place when reopened.
        import sqlite3

        from repro.core.logs import _RECORD_COLUMN_SQL

        path = tmp_path / "old.db"
        old_columns = _RECORD_COLUMN_SQL.split("gold_truncated")[0].rstrip().rstrip(",")
        connection = sqlite3.connect(path)
        connection.executescript(f"""
            CREATE TABLE runs (
                run_id INTEGER PRIMARY KEY AUTOINCREMENT,
                dataset TEXT NOT NULL, method TEXT NOT NULL,
                created_at TEXT DEFAULT CURRENT_TIMESTAMP
            );
            CREATE TABLE records (
                record_id INTEGER PRIMARY KEY AUTOINCREMENT,
                run_id INTEGER NOT NULL REFERENCES runs(run_id),
                {old_columns}
            );
            CREATE TABLE result_cache (
                fingerprint TEXT NOT NULL, method TEXT NOT NULL,
                {old_columns},
                PRIMARY KEY (fingerprint, example_id)
            );
        """)
        connection.commit()
        connection.close()

        __, __, report = evaluated
        with ExperimentLogStore(path) as store:
            run_id = store.store_records("spider-like", report.records)
            loaded = store.load_report(run_id)
        assert len(loaded) == len(report)
        assert all(not r.gold_truncated for r in loaded.records)
