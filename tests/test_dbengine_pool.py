"""Tests for the per-database read-only connection pool.

Covers the pool mechanics (replica creation, exclusive checkout,
``data_version`` refresh, closed-pool behaviour), pooled reads compared
with a read made on the master connection (rows, and the error a write
gets), and — as a regression for the old shared-connection design — a
many-thread hammer on ``execute_sql`` asserting no cross-call
PRAGMA/progress-handler interleaving is observable: the master
connection stays writable throughout and every concurrent read sees a
consistent snapshot.
"""

import sqlite3
import threading

import pytest

from repro.dbengine.database import Database
from repro.dbengine.executor import execute_sql
from repro.dbengine.pool import ReadConnectionPool
from repro.errors import ExecutionError
from tests.conftest import AIRPORT_ROWS, make_toy_schema


class TestReadConnectionPool:
    def test_checkout_is_query_only(self, toy_db):
        with toy_db.read_pool().checkout() as connection:
            assert connection.execute("PRAGMA query_only").fetchone()[0] == 1

    def test_replica_serves_master_content(self, toy_db):
        with toy_db.read_pool().checkout() as connection:
            count = connection.execute("SELECT COUNT(*) FROM airports").fetchone()[0]
        assert count == toy_db.row_count("airports")

    def test_replica_refreshes_on_data_version_bump(self, toy_db):
        before = execute_sql(toy_db, "SELECT COUNT(*) FROM airports").rows[0][0]
        toy_db.insert_rows("airports", [(99, "New Strip", "Quebec", 10)])
        after = execute_sql(toy_db, "SELECT COUNT(*) FROM airports").rows[0][0]
        assert (before, after) == (4, 5)
        stats = toy_db.pool_stats()
        assert stats["refreshes"] >= 2 and stats["checkouts"] >= 2

    def test_mark_mutated_refreshes_out_of_band_writes(self, toy_db):
        pool = toy_db.read_pool()
        with pool.checkout() as connection:
            assert connection.execute(
                "SELECT COUNT(*) FROM airports WHERE city = 'Sneaky'"
            ).fetchone()[0] == 0
        # Write through the master connection directly (bypassing
        # insert_rows), as a bulk restore would.
        with toy_db.lock:
            toy_db.connection.execute(
                "INSERT INTO airports VALUES (77, 'Backdoor', 'Sneaky', 1)"
            )
            toy_db.connection.commit()
        toy_db.mark_mutated()
        with pool.checkout() as connection:
            assert connection.execute(
                "SELECT COUNT(*) FROM airports WHERE city = 'Sneaky'"
            ).fetchone()[0] == 1

    def test_version_bump_while_replica_checked_out(self, toy_db):
        # A replica already checked out when data_version advances keeps
        # serving its pre-mutation snapshot (it refreshed at checkout
        # time); the *next* checkout sees the new content.
        pool = toy_db.read_pool()
        with pool.checkout() as held:
            toy_db.insert_rows("airports", [(88, "Mid Hold", "Gusty", 3)])
            assert held.execute(
                "SELECT COUNT(*) FROM airports WHERE city = 'Gusty'"
            ).fetchone()[0] == 0
            refreshes_during_hold = pool.stats.refreshes
        with pool.checkout() as fresh:
            assert fresh.execute(
                "SELECT COUNT(*) FROM airports WHERE city = 'Gusty'"
            ).fetchone()[0] == 1
        assert pool.stats.refreshes == refreshes_during_hold + 1

    def test_writes_fail_on_replica_like_on_master(self, toy_db):
        pooled = execute_sql(toy_db, "DELETE FROM flights")
        master = toy_db.connection
        with toy_db.lock:
            master.execute("PRAGMA query_only = ON")
            try:
                with pytest.raises(sqlite3.OperationalError) as on_master:
                    master.execute("DELETE FROM flights")
            finally:
                master.execute("PRAGMA query_only = OFF")
        assert not pooled.ok
        assert pooled.error == str(on_master.value)
        assert "readonly" in pooled.error
        assert toy_db.row_count("flights") == 6

    def test_replicas_bounded_and_reused(self, toy_db):
        pool = toy_db.read_pool()
        for _ in range(10):
            with pool.checkout():
                pass
        assert pool.stats.created == 1
        assert pool.stats.checkouts == 10

    def test_checkout_after_close_raises(self, toy_schema):
        database = Database(toy_schema)
        pool = database.read_pool()
        database.close()
        with pytest.raises(ExecutionError):
            with pool.checkout():
                pass  # pragma: no cover - checkout must raise

    def test_read_after_close_raises_and_opens_nothing(self, toy_schema):
        database = Database(toy_schema)
        database.close()
        with pytest.raises(ExecutionError, match="read connection pool is closed"):
            execute_sql(database, "SELECT COUNT(*) FROM airports")
        assert database.pool_stats() == {
            "created": 0, "checkouts": 0, "refreshes": 0, "waits": 0,
        }

    def test_invalid_size_rejected(self, toy_db):
        with pytest.raises(ValueError):
            ReadConnectionPool(toy_db, size=0)


class TestReplicaRefreshUnderMutation:
    def test_checked_out_replica_survives_version_bump(self, toy_db):
        pool = toy_db.read_pool()
        with pool.checkout() as replica:
            # Bump data_version while this replica is in use: the held
            # snapshot stays readable (stale by design)...
            toy_db.insert_rows("airports", [(96, "Cliff Top", "Moab", 1200)])
            stale = replica.execute("SELECT COUNT(*) FROM airports").fetchone()[0]
            assert stale == len(AIRPORT_ROWS)
        # ...and the next checkout pays a refresh and sees the write.
        refreshes_before = toy_db.pool_stats()["refreshes"]
        result = execute_sql(toy_db, "SELECT COUNT(*) FROM airports")
        assert result.rows[0][0] == len(AIRPORT_ROWS) + 1
        assert toy_db.pool_stats()["refreshes"] == refreshes_before + 1

    def test_pool_stats_zero_before_first_read(self):
        database = Database(make_toy_schema())
        try:
            assert database.pool_stats() == {
                "created": 0, "checkouts": 0, "refreshes": 0, "waits": 0,
            }
        finally:
            database.close()


class TestSharedConnectionRaceRegression:
    """The old design toggled PRAGMA query_only per call on one shared
    connection; with the pool, concurrent calls must never observe each
    other's read-only state, interrupt budgets, or half-applied writes."""

    N_THREADS = 12
    N_ROUNDS = 25

    def test_execute_sql_hammered_from_many_threads(self, toy_db):
        start = threading.Barrier(self.N_THREADS)
        failures: list[str] = []

        def worker(worker_id: int) -> None:
            start.wait()
            for round_no in range(self.N_ROUNDS):
                # Reads must see a consistent airport count (4 before the
                # writer round, 5 after — never a torn intermediate).
                result = execute_sql(
                    toy_db, "SELECT COUNT(*) FROM airports", timeout_ms=2_000
                )
                if not result.ok or result.rows[0][0] not in (4, 5):
                    failures.append(f"read {worker_id}/{round_no}: {result.error}")
                # Mutating candidates must always fail read-only...
                attempt = execute_sql(toy_db, "DELETE FROM flights")
                if attempt.ok or "readonly" not in (attempt.error or ""):
                    failures.append(f"write leak {worker_id}/{round_no}")
                # ...and must never leave the *master* connection
                # read-only for the writer thread (the old per-call
                # PRAGMA toggle could).
                with toy_db.lock:
                    if toy_db.connection.execute(
                        "PRAGMA query_only"
                    ).fetchone()[0] != 0:
                        failures.append(f"master readonly {worker_id}/{round_no}")

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        # A real write lands mid-storm and must go through cleanly.
        toy_db.insert_rows("airports", [(98, "Mid Storm", "Gale", 2)])
        for thread in threads:
            thread.join()
        assert not failures, failures[:5]
        assert toy_db.row_count("airports") == 5
        assert toy_db.row_count("flights") == 6
        # Every read went through the pool, one checkout per call (two
        # calls per round), bounded by its size.
        stats = toy_db.pool_stats()
        assert stats["checkouts"] == 2 * self.N_THREADS * self.N_ROUNDS
        assert 1 <= stats["created"] <= toy_db.read_pool().size

    def test_pooled_reads_match_a_master_read(self, toy_db):
        sql = "SELECT city, COUNT(*) FROM airports GROUP BY city ORDER BY city"
        pooled = execute_sql(toy_db, sql)
        with toy_db.lock:
            master_rows = toy_db.connection.execute(sql).fetchall()
        assert pooled.ok and not pooled.truncated
        assert pooled.rows == master_rows
