"""Per-database read-only connection pool for concurrent SQL execution.

Historically every execution funneled through the one shared
``Database.connection``: each :func:`~repro.dbengine.executor.execute_sql`
call toggled ``PRAGMA query_only`` and installed a progress handler on it
under ``Database.lock``, so concurrent requests serialized on the
database even when the rest of the pipeline was cheap — and the
per-call PRAGMA/handler choreography was only safe *because* of that
lock.

:class:`ReadConnectionPool` removes the serialization point.  It keeps up
to ``size`` private replica connections per :class:`Database`:

* each replica is an independent ``:memory:`` SQLite database refreshed
  from the master via the ``sqlite3`` backup API, so pooled reads never
  touch the shared connection;
* ``PRAGMA query_only = ON`` is set **once** when a replica is created
  and never toggled again — a mutating candidate fails on the replica
  exactly as it did on the guarded master path, with the same
  "attempt to write a readonly database" error;
* replicas snapshot ``Database.data_version``; a checkout whose replica
  is stale re-runs the backup first, so the ``data_version`` invalidation
  contract of the execution caches is preserved bit-for-bit;
* checkouts are exclusive — each holder owns its replica's progress
  handler, so interrupt budgets can no longer interleave across calls.

Every read checks out a replica.  ``tests/test_dbengine_pool.py``
compares pooled reads with a read made on the master connection, rows
and write errors alike.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (type-only)
    from repro.dbengine.database import Database

#: Replicas kept per database.  Sized for the serving engine's default
#: worker count; checkouts beyond it wait rather than over-allocating.
DEFAULT_POOL_SIZE = 4


@dataclass
class PoolStats:
    """Deterministic pool counters (no wall-clock)."""

    created: int = 0
    checkouts: int = 0
    refreshes: int = 0
    waits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "created": self.created,
            "checkouts": self.checkouts,
            "refreshes": self.refreshes,
            "waits": self.waits,
        }


class _Replica:
    """One pooled read-only connection plus the content version it holds."""

    __slots__ = ("connection", "data_version")

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.connection = connection
        # -1 is older than any real version, forcing a first refresh.
        self.data_version = -1


class ReadConnectionPool:
    """A bounded pool of read-only snapshot connections for one database.

    Replicas are created lazily up to ``size``; when all are checked out,
    further checkouts block until one is returned.  :meth:`checkout`
    yields a connection that is guaranteed to reflect the master's
    current ``data_version`` and to reject writes.
    """

    def __init__(self, database: "Database", size: int = DEFAULT_POOL_SIZE) -> None:
        if size <= 0:
            raise ValueError("pool size must be positive")
        self._database = database
        self._size = size
        self._idle: list[_Replica] = []
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False
        self.stats = PoolStats()

    @property
    def size(self) -> int:
        return self._size

    @contextmanager
    def checkout(self) -> Iterator[sqlite3.Connection]:
        """Exclusively borrow a fresh read-only replica connection."""
        replica = self._acquire()
        try:
            yield replica.connection
        finally:
            self._release(replica)

    # -- internals ------------------------------------------------------

    def _acquire(self) -> _Replica:
        with self._available:
            while True:
                if self._closed:
                    raise ExecutionError("read connection pool is closed")
                if self._idle:
                    replica = self._idle.pop()
                    break
                if self.stats.created < self._size:
                    # Connection creation is cheap; the (potentially
                    # expensive) content backup happens in _refresh below,
                    # outside the pool lock.
                    connection = sqlite3.connect(":memory:", check_same_thread=False)
                    connection.execute("PRAGMA query_only = ON")
                    replica = _Replica(connection)
                    self.stats.created += 1
                    break
                self.stats.waits += 1
                self._available.wait()
            self.stats.checkouts += 1
        # The replica is exclusively ours from here on — refreshing it
        # needs no pool lock, only the master's lock for a stable copy.
        self._refresh(replica)
        return replica

    def _refresh(self, replica: _Replica) -> None:
        database = self._database
        if replica.data_version == database.data_version:
            return
        with database.lock:
            # Snapshot version and content atomically w.r.t. insert_rows
            # (which bumps data_version under the same lock).  The backup
            # API may write into a query_only destination, so the replica
            # pragma never has to be toggled.
            version = database.data_version
            database.connection.backup(replica.connection)
        replica.data_version = version
        with self._lock:
            self.stats.refreshes += 1

    def _release(self, replica: _Replica) -> None:
        with self._available:
            if self._closed:
                replica.connection.close()
                return
            self._idle.append(replica)
            self._available.notify()

    def close(self) -> None:
        """Close all idle replicas; in-use ones close on release."""
        with self._available:
            self._closed = True
            for replica in self._idle:
                replica.connection.close()
            self._idle.clear()
            self._available.notify_all()
