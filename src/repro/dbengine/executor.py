"""Safe SQL execution and execution-accuracy result comparison.

Execution Accuracy (EX) — the paper's headline metric — holds when the
predicted query's *result set* equals the gold query's result set.
Following the Spider evaluation, comparison is order-insensitive unless
the gold query has an ORDER BY clause, and float values are compared with
a small tolerance.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExecutionError, ExecutionTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (type-only)
    from repro.dbengine.database import Database

_FLOAT_TOLERANCE = 1e-6
_DEFAULT_MAX_ROWS = 100_000


@dataclass
class ExecutionResult:
    """Outcome of executing one SQL query.

    ``truncated`` marks results cut off at the executor's ``max_rows``
    cap: the visible rows are only a prefix of the true result, so two
    truncated results agreeing row-for-row proves nothing about the full
    result sets.
    """

    rows: list[tuple] = field(default_factory=list)
    error: str | None = None
    sql: str = ""
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def __len__(self) -> int:
        return len(self.rows)


def _run_readonly(
    connection: sqlite3.Connection,
    sql: str,
    max_rows: int,
    timeout_ms: int | None,
) -> ExecutionResult:
    """Run ``sql`` on a connection the caller holds exclusively.

    The connection must already reject writes (``PRAGMA query_only``);
    the caller guarantees no other thread touches it while the progress
    handler is installed.
    """
    if timeout_ms is not None:
        budget = {"ticks": max(timeout_ms, 1) * 500}

        def _tick() -> int:
            budget["ticks"] -= 1
            return 1 if budget["ticks"] <= 0 else 0

        connection.set_progress_handler(_tick, 1_000)
    try:
        cursor = connection.execute(sql)
        try:
            rows = cursor.fetchmany(max_rows + 1)
        finally:
            # Reset the statement: a lingering active cursor would block
            # the next backup-refresh of a pooled replica.
            cursor.close()
        truncated = len(rows) > max_rows
        if truncated:
            rows = rows[:max_rows]
        return ExecutionResult(
            rows=[tuple(row) for row in rows], sql=sql, truncated=truncated
        )
    except sqlite3.OperationalError as exc:
        if "interrupted" in str(exc).lower():
            return ExecutionResult(error=f"timeout: {exc}", sql=sql)
        return ExecutionResult(error=str(exc), sql=sql)
    except sqlite3.Error as exc:
        return ExecutionResult(error=str(exc), sql=sql)
    finally:
        if timeout_ms is not None:
            connection.set_progress_handler(None, 0)
        # A failed DML (e.g. a mutating candidate rejected by query_only)
        # leaves the implicit transaction open; a replica stuck in a
        # transaction would refuse the next backup-refresh.
        if connection.in_transaction:
            connection.rollback()


def execute_sql(
    database: Database,
    sql: str,
    max_rows: int = _DEFAULT_MAX_ROWS,
    timeout_ms: int | None = 2_000,
) -> ExecutionResult:
    """Execute ``sql`` read-only and return rows or a captured error.

    A progress-handler based interrupt bounds runaway queries; errors are
    captured in the result rather than raised so that evaluation loops can
    score failing predictions as simply incorrect.

    Read-only is enforced, not assumed: the query runs against a pooled
    replica connection with ``PRAGMA query_only`` set once at creation
    (see :mod:`repro.dbengine.pool`), so any mutating candidate fails and
    executions are pure given the database content — a prerequisite for
    the ``data_version``-keyed memo in :func:`execute_sql_cached` — and
    the cached and uncached paths fail such candidates identically.
    Replicas refresh from the master whenever ``data_version`` advanced,
    and checkouts are exclusive, so queries from many threads run truly
    concurrently with no cross-call PRAGMA or progress-handler
    interleaving.
    """
    with database.read_pool().checkout() as connection:
        return _run_readonly(connection, sql, max_rows, timeout_ms)


def execute_sql_cached(
    database: Database,
    sql: str,
    max_rows: int = _DEFAULT_MAX_ROWS,
    timeout_ms: int | None = 2_000,
) -> ExecutionResult:
    """Execute via a bounded per-database LRU over candidate executions.

    Post-processing (self-consistency voting, execution-guided selection,
    reranking, self-correction probes) repeatedly executes near-duplicate
    candidate SQL against the same database; :func:`execute_sql` enforces
    ``PRAGMA query_only``, so results are pure given the database content
    (a mutating candidate fails instead of silently invalidating the
    memo) and they are memoized per live :class:`Database`
    keyed on ``(data_version, sql, max_rows, timeout_ms)`` —
    ``data_version`` advances on every mutation, invalidating stale
    entries.  Callers must not mutate the returned result.
    """
    from repro.utils.cache import caches_enabled, per_object_cache

    if not caches_enabled():
        return execute_sql(database, sql, max_rows=max_rows, timeout_ms=timeout_ms)
    cache = per_object_cache(database, "candidate_exec", maxsize=512)
    key = (database.data_version, sql, max_rows, timeout_ms)
    hit, result = cache.lookup(key)
    if hit:
        from repro.obs.trace import get_tracer

        get_tracer().annotate_stage(memo_hits=1)
        return result
    result = execute_sql(database, sql, max_rows=max_rows, timeout_ms=timeout_ms)
    cache.put(key, result)
    return result


def execute_sql_strict(database: Database, sql: str, **kwargs: object) -> ExecutionResult:
    """Like :func:`execute_sql` but raises on failure."""
    result = execute_sql(database, sql, **kwargs)  # type: ignore[arg-type]
    if not result.ok:
        if result.error and result.error.startswith("timeout"):
            raise ExecutionTimeout(result.error, sql)
        raise ExecutionError(result.error or "unknown execution error", sql)
    return result


def _normalize_cell(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return round(value, 6)
    return value


def _normalize_rows(rows: list[tuple], ordered: bool) -> list[tuple]:
    normalized = [tuple(_normalize_cell(cell) for cell in row) for row in rows]
    if ordered:
        return normalized
    return sorted(normalized, key=repr)


def results_match(
    predicted: ExecutionResult,
    gold: ExecutionResult,
    order_matters: bool = False,
) -> bool:
    """Return True iff both executions succeeded and produce equal results."""
    if not predicted.ok or not gold.ok:
        return False
    if predicted.truncated or gold.truncated:
        # A truncated result is a silent prefix of a larger set: two
        # truncated results agreeing row-for-row proves nothing, and a
        # truncated result matching an untruncated one of the same visible
        # length has a provably larger true row count.  Refuse both.
        return False
    if len(predicted.rows) != len(gold.rows):
        return False
    left = _normalize_rows(predicted.rows, order_matters)
    right = _normalize_rows(gold.rows, order_matters)
    if left == right:
        return True
    return _match_with_tolerance(left, right)


def _match_with_tolerance(left: list[tuple], right: list[tuple]) -> bool:
    if len(left) != len(right):
        return False
    for row_a, row_b in zip(left, right):
        if len(row_a) != len(row_b):
            return False
        for cell_a, cell_b in zip(row_a, row_b):
            if isinstance(cell_a, (int, float)) and isinstance(cell_b, (int, float)):
                if abs(float(cell_a) - float(cell_b)) > _FLOAT_TOLERANCE:
                    return False
            elif cell_a != cell_b:
                return False
    return True
