"""Tests for the DB engine: database wrapper, executor, timing."""

import pytest

from repro.dbengine.database import Database
from repro.dbengine.executor import (
    ExecutionResult,
    execute_sql,
    execute_sql_strict,
    results_match,
)
from repro.dbengine.timing import timed_execute, ves_ratio
from repro.errors import ExecutionError, SchemaError
from tests.conftest import AIRPORT_ROWS


class TestDatabase:
    def test_tables_created(self, toy_db):
        assert toy_db.row_count("airports") == 4
        assert toy_db.row_count("flights") == 6

    def test_insert_unknown_table(self, toy_db):
        with pytest.raises(SchemaError):
            toy_db.insert_rows("hotels", [(1,)])

    def test_insert_bad_row_raises(self, toy_db):
        with pytest.raises(ExecutionError):
            toy_db.insert_rows("airports", [(1, "dup pk", "X", 5)])

    def test_column_values_distinct(self, toy_db):
        cities = toy_db.column_values("airports", "city")
        assert sorted(cities) == ["Aberdeen", "Boston", "Denver"]

    def test_column_values_cached_and_invalidated(self, toy_db):
        first = toy_db.column_values("airports", "city")
        toy_db.insert_rows("airports", [(99, "New Strip", "Quebec", 10)])
        second = toy_db.column_values("airports", "city")
        assert "Quebec" in second and "Quebec" not in first

    def test_text_columns(self, toy_db):
        pairs = toy_db.text_columns()
        assert ("airports", "city") in pairs
        assert ("flights", "price") not in pairs

    def test_sample_values(self, toy_db):
        assert len(toy_db.sample_values("airports", "city", count=2)) == 2

    def test_context_manager(self, toy_schema):
        with Database(toy_schema) as database:
            assert database.db_id == "toy_flights"


class TestExecutor:
    def test_select_rows(self, toy_db):
        result = execute_sql(toy_db, "SELECT name FROM airports WHERE city = 'Boston'")
        assert result.ok and len(result) == 2

    def test_error_captured(self, toy_db):
        result = execute_sql(toy_db, "SELECT bogus FROM airports")
        assert not result.ok and "bogus" in result.error

    def test_strict_raises(self, toy_db):
        with pytest.raises(ExecutionError):
            execute_sql_strict(toy_db, "SELECT bogus FROM airports")

    def test_max_rows_cap(self, toy_db):
        result = execute_sql(toy_db, "SELECT * FROM flights", max_rows=3)
        assert len(result) == 3

    def test_truncation_flag_set_on_overflow(self, toy_db):
        result = execute_sql(toy_db, "SELECT * FROM flights", max_rows=3)
        assert result.truncated

    def test_truncation_flag_clear_when_all_rows_fit(self, toy_db):
        result = execute_sql(toy_db, "SELECT * FROM flights", max_rows=6)
        assert not result.truncated
        assert len(result) == 6

    def test_truncated_results_never_match(self, toy_db):
        # Regression: two row-capped results used to compare equal even
        # though the visible rows are only a prefix of the true result
        # sets — EX could silently confirm a wrong prediction.
        a = execute_sql(toy_db, "SELECT * FROM flights", max_rows=3)
        b = execute_sql(toy_db, "SELECT * FROM flights", max_rows=3)
        assert a.truncated and b.truncated
        assert not results_match(a, b)

    def test_truncated_vs_complete_never_match(self, toy_db):
        capped = execute_sql(toy_db, "SELECT * FROM flights LIMIT 3", max_rows=2)
        full = execute_sql(toy_db, "SELECT * FROM flights LIMIT 2")
        assert capped.truncated and not full.truncated
        assert not results_match(capped, full)
        assert not results_match(full, capped)

    def test_results_match_order_insensitive(self):
        a = ExecutionResult(rows=[(1,), (2,)])
        b = ExecutionResult(rows=[(2,), (1,)])
        assert results_match(a, b)
        assert not results_match(a, b, order_matters=True)

    def test_results_match_float_tolerance(self):
        a = ExecutionResult(rows=[(1.0000001,)])
        b = ExecutionResult(rows=[(1.0,)])
        assert results_match(a, b)

    def test_results_match_int_float_equivalence(self):
        assert results_match(
            ExecutionResult(rows=[(2.0,)]), ExecutionResult(rows=[(2,)])
        )

    def test_results_mismatch_on_error(self):
        ok = ExecutionResult(rows=[(1,)])
        bad = ExecutionResult(error="boom")
        assert not results_match(ok, bad)
        assert not results_match(bad, ok)

    def test_results_mismatch_row_count(self):
        assert not results_match(
            ExecutionResult(rows=[(1,)]), ExecutionResult(rows=[(1,), (1,)])
        )

    def test_aggregates_execute(self, toy_db):
        result = execute_sql(toy_db, "SELECT COUNT(*), AVG(price) FROM flights")
        assert result.rows[0][0] == 6


class TestTiming:
    def test_timed_execute_returns_positive(self, toy_db):
        timed = timed_execute(toy_db, "SELECT * FROM flights", repeats=2)
        assert timed.result.ok and timed.seconds > 0

    def test_timed_execute_error(self, toy_db):
        timed = timed_execute(toy_db, "SELECT bogus FROM flights")
        assert not timed.result.ok

    def test_ves_ratio_equal_times(self):
        assert ves_ratio(0.01, 0.01) == pytest.approx(1.0)

    def test_ves_ratio_faster_prediction_rewards(self):
        assert ves_ratio(0.04, 0.01) == pytest.approx(2.0)

    def test_ves_ratio_slower_prediction_penalizes(self):
        assert ves_ratio(0.01, 0.04) == pytest.approx(0.5)

    def test_ves_ratio_handles_zero(self):
        assert ves_ratio(0.0, 0.0) == pytest.approx(1.0)


class TestColumnValuesLimit:
    def test_small_limit_does_not_poison_larger_requests(self, toy_db):
        # Regression: the cache key used to ignore ``limit``, so an early
        # call with a small limit truncated every later call's view.
        two = toy_db.column_values("airports", "city", limit=2)
        assert len(two) == 2
        everything = toy_db.column_values("airports", "city", limit=2000)
        assert sorted(everything) == ["Aberdeen", "Boston", "Denver"]

    def test_each_limit_cached_independently(self, toy_db):
        full = toy_db.column_values("flights", "destination")
        one = toy_db.column_values("flights", "destination", limit=1)
        assert len(one) == 1
        assert toy_db.column_values("flights", "destination") == full

    def test_thread_shared_connection(self, toy_db):
        # The serving engine's worker threads read one Database at once;
        # every concurrent execution must stay well-formed.
        from concurrent.futures import ThreadPoolExecutor

        def query(_):
            return execute_sql(toy_db, "SELECT COUNT(*) FROM flights").rows[0][0]

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(query, range(16))) == [6] * 16


class TestTimingEstimator:
    def test_minimum_is_the_runtime_estimator(self, toy_db, monkeypatch):
        # Pin the estimator choice: repeated runs report the *minimum*
        # wall-clock sample (noise only ever adds time), not the median.
        import repro.dbengine.timing as timing

        ticks = iter([0.0, 0.030, 0.030, 0.035, 0.035, 0.045])

        monkeypatch.setattr(timing.time, "perf_counter", lambda: next(ticks))
        timed = timing.timed_execute(toy_db, "SELECT * FROM flights", repeats=3)
        # Samples are 0.030, 0.005, 0.010 seconds -> min is 0.005.
        assert timed.seconds == pytest.approx(0.005)


class TestWriteTransactionality:
    """A failed write rolls back, keeps ``data_version`` and fires no
    listener; a successful one notifies only after its commit."""

    def test_failed_insert_rolls_back_partial_rows(self, toy_db):
        # Second row violates the primary key; the first must not stay.
        with pytest.raises(ExecutionError):
            toy_db.insert_rows(
                "airports",
                [(90, "Ridge Field", "Tulsa", 200), (1, "Dup PK", "X", 5)],
            )
        assert toy_db.row_count("airports") == len(AIRPORT_ROWS)

    def test_failed_insert_leaves_no_open_transaction(self, toy_db):
        with pytest.raises(ExecutionError):
            toy_db.insert_rows(
                "airports",
                [(91, "Mesa Strip", "Reno", 40), (1, "Dup PK", "X", 5)],
            )
        # Regression: the partial batch used to sit in an open
        # transaction, silently committed by the next unrelated commit.
        assert not toy_db.connection.in_transaction
        toy_db.apply_write("UPDATE flights SET price = price WHERE flight_id = 1")
        assert toy_db.row_count("airports") == len(AIRPORT_ROWS)

    def test_failed_insert_fires_no_listener_and_keeps_version(self, toy_db):
        events = []
        toy_db.add_mutation_listener(lambda db_id, version: events.append(version))
        version = toy_db.data_version
        with pytest.raises(ExecutionError):
            toy_db.insert_rows("airports", [(1, "Dup PK", "X", 5)])
        assert toy_db.data_version == version
        assert events == []

    def test_failed_apply_write_fires_no_listener_and_keeps_version(self, toy_db):
        events = []
        toy_db.add_mutation_listener(lambda db_id, version: events.append(version))
        version = toy_db.data_version
        with pytest.raises(ExecutionError, match="write failed on toy_flights"):
            toy_db.apply_write("UPDATE airports SET airport_id = 1")
        assert toy_db.data_version == version
        assert events == []
        assert not toy_db.connection.in_transaction

    def test_successful_write_bumps_version_after_commit(self, toy_db):
        versions_seen = []
        toy_db.add_mutation_listener(
            lambda db_id, version: versions_seen.append(
                (version, toy_db.row_count("airports"))
            )
        )
        toy_db.insert_rows("airports", [(95, "Dune Field", "Yuma", 60)])
        # The listener ran after the commit: it observed the new row.
        assert versions_seen == [(toy_db.data_version, len(AIRPORT_ROWS) + 1)]
