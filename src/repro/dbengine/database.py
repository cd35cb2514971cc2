"""A populated SQLite database bound to a :class:`DatabaseSchema`.

``Database`` owns a SQLite master connection (in-memory by default, or
file-backed for persistence), materializes the schema's DDL, bulk-loads
rows, and offers value lookups used by BRIDGE-style DB-content matching.
It also owns the read-only replica pool that
:func:`~repro.dbengine.executor.execute_sql` reads through: the pool is
built with the database and closed with it.

:meth:`Database.image` takes a picklable :class:`DatabaseImage` of the
content (SQLite's ``serialize``) and :meth:`Database.from_image` opens
an in-memory database from one, in milliseconds and with exactly the
imaged rows; the process pool of ``repro.core.parallel`` hands its
workers the coordinator's databases this way.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.dbengine.pool import ReadConnectionPool
from repro.errors import ExecutionError, SchemaError
from repro.schema.ddl import render_schema_ddl
from repro.schema.model import ColumnType, DatabaseSchema


@dataclass(frozen=True)
class DatabaseImage:
    """A picklable copy of one :class:`Database` at one ``data_version``.

    ``data`` is the master connection's ``serialize()`` bytes and
    ``value_cache`` the distinct-value lists cached at that version, so a
    restored database answers :meth:`Database.column_values` without
    re-running its ``SELECT DISTINCT``s.
    """

    schema: DatabaseSchema
    data: bytes
    data_version: int
    value_cache: dict[tuple[str, str, int], list[object]]


class Database:
    """A live SQLite database plus its in-memory schema model."""

    def __init__(self, schema: DatabaseSchema, path: str | Path | None = None) -> None:
        self._open(schema, str(path) if path is not None else ":memory:")
        self._create_tables()

    @classmethod
    def from_image(cls, image: DatabaseImage) -> "Database":
        """An in-memory database holding exactly ``image``'s content and version."""
        database = cls.__new__(cls)
        database._open(image.schema, ":memory:")
        database.connection.deserialize(image.data)
        database._value_cache = dict(image.value_cache)
        database.data_version = image.data_version
        return database

    def _open(self, schema: DatabaseSchema, path: str) -> None:
        self.schema = schema
        self._path = path
        # check_same_thread=False lets the serving engine's worker threads
        # share this connection; the lock serializes access.  Direct
        # writers must call mark_mutated themselves.
        self.connection = sqlite3.connect(self._path, check_same_thread=False)
        self.lock = threading.RLock()
        # A connection setting, not part of the content: an image does not
        # carry it, so every open sets it.
        self.connection.execute("PRAGMA foreign_keys = ON")
        self._value_cache: dict[tuple[str, str, int], list[object]] = {}
        # Monotonic content-version counter; execution caches key on it so
        # any mutation invalidates every cached result for this database.
        self.data_version = 0
        # Callbacks fired (with (db_id, new_version)) after every
        # data_version bump; the serving response cache subscribes here.
        self._mutation_listeners: list[Callable[[str, int], None]] = []
        # Read-only replicas are opened on first checkout, not here.
        self._pool = ReadConnectionPool(self)

    # -- lifecycle ------------------------------------------------------

    def image(self) -> DatabaseImage:
        """A :class:`DatabaseImage` of the current content, taken under the lock."""
        with self.lock:
            return DatabaseImage(
                schema=self.schema,
                data=self.connection.serialize(),
                data_version=self.data_version,
                value_cache=dict(self._value_cache),
            )

    def _create_tables(self) -> None:
        existing = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchone()
        if existing is not None:
            return  # file-backed database already materialized
        ddl = render_schema_ddl(self.schema)
        statements = [part.strip() for part in ddl.split("\n\n") if part.strip()]
        self.connection.executescript(";\n\n".join(statements) + ";")
        self.connection.commit()

    def close(self) -> None:
        with self.lock:
            self._pool.close()
            self.connection.close()

    def read_pool(self) -> ReadConnectionPool:
        """The read-only replica pool for this database."""
        return self._pool

    def pool_stats(self) -> dict[str, int]:
        """Deterministic pool counters (all zero before the first read)."""
        return self._pool.stats.as_dict()

    def mark_mutated(self) -> None:
        """Record an out-of-band content mutation (e.g. a bulk restore).

        Bumps ``data_version`` and drops value caches, so execution memos
        and pooled replicas refresh before their next use, then notifies
        every registered mutation listener.  ``insert_rows`` and
        ``apply_write`` call this implicitly — strictly *after* their
        commit succeeded, so listeners never observe a version bump for
        a write that rolled back; callers writing through ``connection``
        directly (restores, migrations) must call it themselves.
        """
        with self.lock:
            self._value_cache.clear()
            self.data_version += 1
            version = self.data_version
            listeners = list(self._mutation_listeners)
        for callback in listeners:
            callback(self.db_id, version)

    def apply_write(self, sql: str, params: Sequence[object] = ()) -> int:
        """Execute one DML statement on the master connection and commit.

        The canonical write path for online mutations (the serving
        gateway routes ``/apply`` requests here): the statement runs
        under the database lock, commits, and then :meth:`mark_mutated`
        bumps ``data_version`` and notifies listeners so response caches
        and pooled replicas invalidate.  A failed write rolls back and
        raises without bumping the version or firing listeners — a
        rejected mutation must not invalidate response caches.  Returns
        the affected row count.
        """
        with self.lock:
            try:
                cursor = self.connection.execute(sql, tuple(params))
                self.connection.commit()
            except sqlite3.Error as exc:
                self.connection.rollback()
                raise ExecutionError(f"write failed on {self.db_id}: {exc}") from exc
            affected = cursor.rowcount
        self.mark_mutated()
        return affected

    def add_mutation_listener(self, callback: Callable[[str, int], None]) -> None:
        """Subscribe ``callback(db_id, new_version)`` to content mutations.

        Listeners run on the mutating thread, after the version bump is
        visible; they must not acquire this database's lock (callers of
        ``insert_rows`` still hold it re-entrantly when they fire).
        """
        with self.lock:
            self._mutation_listeners.append(callback)

    def remove_mutation_listener(self, callback: Callable[[str, int], None]) -> None:
        """Unsubscribe a listener; unknown callbacks are ignored."""
        with self.lock:
            try:
                self._mutation_listeners.remove(callback)
            except ValueError:
                pass

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def db_id(self) -> str:
        return self.schema.db_id

    # -- loading --------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert rows into ``table_name``; returns the row count.

        The whole batch commits or rolls back as one unit: on failure no
        partial rows survive, ``data_version`` does not advance, and no
        mutation listener fires.
        """
        if not self.schema.has_table(table_name):
            raise SchemaError(f"unknown table {table_name!r}")
        columns = self.schema.table(table_name).columns
        placeholders = ", ".join("?" for __ in columns)
        column_names = ", ".join(column.name for column in columns)
        sql = f"INSERT INTO {table_name} ({column_names}) VALUES ({placeholders})"
        rows = list(rows)
        with self.lock:
            try:
                self.connection.executemany(sql, rows)
                self.connection.commit()
            except sqlite3.Error as exc:
                # Roll back so a failed batch leaves no partial rows parked
                # in an open transaction for a later commit to publish.
                self.connection.rollback()
                raise ExecutionError(f"insert into {table_name} failed: {exc}", sql) from exc
            self.mark_mutated()
        return len(rows)

    def row_count(self, table_name: str) -> int:
        with self.lock:
            cursor = self.connection.execute(f"SELECT COUNT(*) FROM {table_name}")
            return int(cursor.fetchone()[0])

    # -- content access (BRIDGE-style value matching) --------------------

    def column_values(self, table_name: str, column_name: str, limit: int = 2000) -> list[object]:
        """Return distinct values of a column (cached per requested limit)."""
        key = (table_name.lower(), column_name.lower(), int(limit))
        with self.lock:
            if key not in self._value_cache:
                cursor = self.connection.execute(
                    f"SELECT DISTINCT {column_name} FROM {table_name} LIMIT {int(limit)}"
                )
                self._value_cache[key] = [row[0] for row in cursor.fetchall()]
            return self._value_cache[key]

    def text_columns(self) -> list[tuple[str, str]]:
        """Return (table, column) pairs for text-typed columns."""
        return [
            (table.name, column.name)
            for table in self.schema.tables
            for column in table.columns
            if column.col_type in (ColumnType.TEXT, ColumnType.DATE)
        ]

    def sample_values(self, table_name: str, column_name: str, count: int = 3) -> list[object]:
        """Return up to ``count`` example values for prompt comments."""
        values = self.column_values(table_name, column_name)
        return values[:count]
