"""Database engine: SQLite materialization, safe execution, timing.

Reads run through a per-database pool of read-only replica connections
(:mod:`repro.dbengine.pool`).

Three rules make executions pure given database content, which is what
lets result caches, the serving response cache and cross-process shards
agree:

* ``Database.data_version`` advances, and mutation listeners fire, only
  after a write has committed.
* A failed ``insert_rows`` or ``apply_write`` leaves nothing behind: it
  rolls back, so no partial rows and no open transaction survive for a
  later commit to publish, and the version and listeners stay untouched.
* Reads reject writes: a mutating candidate fails with SQLite's
  ``attempt to write a readonly database``, the same error a
  ``query_only`` master connection gives.
"""

from repro.dbengine.database import Database
from repro.dbengine.executor import ExecutionResult, execute_sql, results_match
from repro.dbengine.pool import (
    DEFAULT_POOL_SIZE,
    PoolStats,
    ReadConnectionPool,
)
from repro.dbengine.timing import TimedExecution, timed_execute, ves_ratio

__all__ = [
    "Database",
    "ExecutionResult",
    "execute_sql",
    "results_match",
    "TimedExecution",
    "timed_execute",
    "ves_ratio",
    "DEFAULT_POOL_SIZE",
    "PoolStats",
    "ReadConnectionPool",
]
