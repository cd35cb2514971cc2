"""SQLite-backed experiment log store (the testbed's "Logs" component).

Every evaluation record is persisted to a normalized schema so that the
analysis module (and end users) can slice past runs with plain SQL —
fitting, for a paper about SQL.

The store also hosts the **cross-run result cache** used by
:class:`~repro.core.parallel.ParallelEvaluator`: finished records are
keyed by a stable fingerprint of (method config, dataset identity) plus
the example id, so re-running the same method on the same dataset — in
this process or a later one — skips prediction and execution entirely.

Observability runs piggyback on the same run ids: ``store_trace`` /
``load_trace`` persist the flattened example+stage span stream of
:mod:`repro.obs.trace`, and ``store_metrics`` / ``load_metrics`` persist
a run's :class:`~repro.obs.registry.MetricsRegistry`, so ``repro
report-run`` can rebuild a full report from the database alone.

Inputs/outputs: evaluation records, spans, and registries in; the same
objects (plus arbitrary read-only SQL result rows) back out.

Thread/process safety: one store wraps one ``sqlite3`` connection and
must be used from its owning thread/process only.  Workers never touch
the store — the coordinating evaluator persists everything exactly once.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from repro.core.metrics import EvaluationRecord, MethodReport
from repro.obs.registry import SPAN_COUNTERS, HistogramSummary, MetricsRegistry
from repro.obs.trace import ExampleSpan, StageSpan
from repro.sqlkit.hardness import BirdDifficulty, Hardness

_RECORD_COLUMNS = (
    "example_id", "db_id", "domain", "question", "gold_sql", "predicted_sql",
    "hardness", "bird_difficulty", "variant_group", "variant_style", "ex",
    "em", "gold_seconds", "predicted_seconds", "input_tokens",
    "output_tokens", "cost_usd", "latency_s", "has_join", "has_subquery",
    "has_logical_connector", "has_order_by", "gold_truncated",
    "predicted_truncated",
)

_RECORD_COLUMN_SQL = """
    example_id TEXT NOT NULL,
    db_id TEXT NOT NULL,
    domain TEXT NOT NULL,
    question TEXT NOT NULL,
    gold_sql TEXT NOT NULL,
    predicted_sql TEXT NOT NULL,
    hardness TEXT NOT NULL,
    bird_difficulty TEXT NOT NULL,
    variant_group TEXT NOT NULL,
    variant_style TEXT NOT NULL,
    ex INTEGER NOT NULL,
    em INTEGER NOT NULL,
    gold_seconds REAL NOT NULL,
    predicted_seconds REAL NOT NULL,
    input_tokens INTEGER NOT NULL,
    output_tokens INTEGER NOT NULL,
    cost_usd REAL NOT NULL,
    latency_s REAL NOT NULL,
    has_join INTEGER NOT NULL,
    has_subquery INTEGER NOT NULL,
    has_logical_connector INTEGER NOT NULL,
    has_order_by INTEGER NOT NULL,
    gold_truncated INTEGER NOT NULL DEFAULT 0,
    predicted_truncated INTEGER NOT NULL DEFAULT 0
"""

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY AUTOINCREMENT,
    dataset TEXT NOT NULL,
    method TEXT NOT NULL,
    created_at TEXT DEFAULT CURRENT_TIMESTAMP
);
CREATE TABLE IF NOT EXISTS records (
    record_id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    {_RECORD_COLUMN_SQL}
);
CREATE INDEX IF NOT EXISTS idx_records_run ON records(run_id);
CREATE TABLE IF NOT EXISTS result_cache (
    fingerprint TEXT NOT NULL,
    method TEXT NOT NULL,
    {_RECORD_COLUMN_SQL},
    PRIMARY KEY (fingerprint, example_id)
);
CREATE TABLE IF NOT EXISTS trace_spans (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    position INTEGER NOT NULL,
    method TEXT NOT NULL,
    example_id TEXT NOT NULL,
    stage TEXT NOT NULL DEFAULT '',
    seconds REAL NOT NULL,
    cache_hit INTEGER NOT NULL,
    llm_calls INTEGER NOT NULL,
    input_tokens INTEGER NOT NULL,
    output_tokens INTEGER NOT NULL,
    cost_usd REAL NOT NULL,
    failure TEXT,
    PRIMARY KEY (run_id, position)
);
CREATE TABLE IF NOT EXISTS run_metrics (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    labels TEXT NOT NULL,
    count REAL NOT NULL,
    total REAL NOT NULL,
    minimum REAL NOT NULL,
    maximum REAL NOT NULL,
    PRIMARY KEY (run_id, kind, name, labels)
);
"""

# Integer columns added after a table was first created, one per
# declared span counter for ``trace_spans``.
_COUNTER_COLUMNS = tuple(spec.name for spec in SPAN_COUNTERS)
_ADDED_COLUMNS = {
    "records": ("gold_truncated", "predicted_truncated"),
    "result_cache": ("gold_truncated", "predicted_truncated"),
    "trace_spans": _COUNTER_COLUMNS,
}
_TRACE_COLUMNS = (
    "method", "example_id", "stage", "seconds", "cache_hit", "llm_calls",
    "input_tokens", "output_tokens", "cost_usd", "failure", *_COUNTER_COLUMNS,
)


def _record_row(record: EvaluationRecord) -> tuple:
    """One record as a tuple in ``_RECORD_COLUMNS`` order."""
    return (
        record.example_id, record.db_id, record.domain, record.question,
        record.gold_sql, record.predicted_sql, record.hardness.value,
        record.bird_difficulty.value, record.variant_group,
        record.variant_style, int(record.ex), int(record.em),
        record.gold_seconds, record.predicted_seconds, record.input_tokens,
        record.output_tokens, record.cost_usd, record.latency_s,
        int(record.has_join), int(record.has_subquery),
        int(record.has_logical_connector), int(record.has_order_by),
        int(record.gold_truncated), int(record.predicted_truncated),
    )


def _row_to_record(method: str, row: tuple) -> EvaluationRecord:
    """Inverse of :func:`_record_row`."""
    return EvaluationRecord(
        method=method,
        example_id=row[0], db_id=row[1], domain=row[2], question=row[3],
        gold_sql=row[4], predicted_sql=row[5],
        hardness=Hardness(row[6]), bird_difficulty=BirdDifficulty(row[7]),
        variant_group=row[8], variant_style=row[9],
        ex=bool(row[10]), em=bool(row[11]),
        gold_seconds=row[12], predicted_seconds=row[13],
        input_tokens=row[14], output_tokens=row[15],
        cost_usd=row[16], latency_s=row[17],
        has_join=bool(row[18]), has_subquery=bool(row[19]),
        has_logical_connector=bool(row[20]), has_order_by=bool(row[21]),
        gold_truncated=bool(row[22]), predicted_truncated=bool(row[23]),
    )


class ExperimentLogStore:
    """Persists and reloads evaluation records."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.connection = sqlite3.connect(str(path))
        self.connection.executescript(_SCHEMA)
        self._migrate()
        self.connection.commit()

    def _migrate(self) -> None:
        """Add the columns a store file lacks.

        The span-counter columns of ``trace_spans`` are only ever added
        here, so new and old files take the same path.
        """
        for table, columns in _ADDED_COLUMNS.items():
            existing = {
                row[1]
                for row in self.connection.execute(f"PRAGMA table_info({table})")
            }
            for column in columns:
                if column not in existing:
                    self.connection.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column}"
                        " INTEGER NOT NULL DEFAULT 0"
                    )

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "ExperimentLogStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing ------------------------------------------------------------

    def store_records(self, dataset: str, records: list[EvaluationRecord]) -> int:
        """Store one run's records; returns the run id."""
        if not records:
            raise ValueError("cannot store an empty record list")
        method = records[0].method
        cursor = self.connection.execute(
            "INSERT INTO runs (dataset, method) VALUES (?, ?)", (dataset, method)
        )
        run_id = cursor.lastrowid
        placeholders = ", ".join("?" for __ in _RECORD_COLUMNS)
        self.connection.executemany(
            f"INSERT INTO records (run_id, {', '.join(_RECORD_COLUMNS)})"
            f" VALUES (?, {placeholders})",
            [(run_id, *_record_row(r)) for r in records],
        )
        self.connection.commit()
        return int(run_id)

    # -- reading ---------------------------------------------------------------

    def runs(self) -> list[tuple[int, str, str]]:
        """All runs as (run_id, dataset, method)."""
        cursor = self.connection.execute(
            "SELECT run_id, dataset, method FROM runs ORDER BY run_id"
        )
        return [(int(r[0]), r[1], r[2]) for r in cursor.fetchall()]

    def load_report(self, run_id: int) -> MethodReport:
        """Reload a run's records into a :class:`MethodReport`."""
        method_row = self.connection.execute(
            "SELECT method FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if method_row is None:
            raise KeyError(f"no run with id {run_id}")
        cursor = self.connection.execute(
            f"SELECT {', '.join(_RECORD_COLUMNS)} FROM records"
            " WHERE run_id = ? ORDER BY record_id",
            (run_id,),
        )
        records = [_row_to_record(method_row[0], row) for row in cursor.fetchall()]
        return MethodReport(method=method_row[0], records=records)

    def query(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Run arbitrary read-only SQL over the log schema."""
        return self.connection.execute(sql, params).fetchall()

    # -- cross-run result cache ---------------------------------------------

    def store_cached_records(
        self, fingerprint: str, records: list[EvaluationRecord]
    ) -> int:
        """Upsert finished records under ``fingerprint``; returns the count."""
        if not records:
            return 0
        placeholders = ", ".join("?" for __ in _RECORD_COLUMNS)
        self.connection.executemany(
            "INSERT OR REPLACE INTO result_cache"
            f" (fingerprint, method, {', '.join(_RECORD_COLUMNS)})"
            f" VALUES (?, ?, {placeholders})",
            [(fingerprint, r.method, *_record_row(r)) for r in records],
        )
        self.connection.commit()
        return len(records)

    def cached_records(self, fingerprint: str) -> dict[str, EvaluationRecord]:
        """All cached records for ``fingerprint``, keyed by example id."""
        cursor = self.connection.execute(
            f"SELECT method, {', '.join(_RECORD_COLUMNS)} FROM result_cache"
            " WHERE fingerprint = ?",
            (fingerprint,),
        )
        records = [_row_to_record(row[0], row[1:]) for row in cursor.fetchall()]
        return {record.example_id: record for record in records}

    def result_cache_size(self) -> int:
        """Number of cached (fingerprint, example) entries."""
        row = self.connection.execute("SELECT COUNT(*) FROM result_cache").fetchone()
        return int(row[0])

    def clear_result_cache(self, fingerprint: str | None = None) -> int:
        """Drop cached results (all of them, or one fingerprint's)."""
        if fingerprint is None:
            cursor = self.connection.execute("DELETE FROM result_cache")
        else:
            cursor = self.connection.execute(
                "DELETE FROM result_cache WHERE fingerprint = ?", (fingerprint,)
            )
        self.connection.commit()
        return int(cursor.rowcount)

    # -- observability: spans and metrics ------------------------------------

    def store_trace(self, run_id: int, spans: list[ExampleSpan]) -> int:
        """Persist a run's span stream (flattened); returns the row count.

        Each example span becomes one row with ``stage = ''`` followed by
        one row per stage span; ``position`` preserves the stream order.
        """
        rows = []
        no_counters = (0,) * len(_COUNTER_COLUMNS)
        for span in spans:
            rows.append((
                span.method, span.example_id, "", span.seconds,
                int(span.cache_hit), 0, span.input_tokens, span.output_tokens,
                span.cost_usd, span.failure, *no_counters,
            ))
            for stage in span.stages:
                rows.append((
                    span.method, span.example_id, stage.stage, stage.seconds,
                    int(stage.cache_hit), stage.llm_calls, 0,
                    stage.output_tokens, 0.0, None,
                    *(stage.counters.get(name, 0) for name in _COUNTER_COLUMNS),
                ))
        if rows:
            columns = ("run_id", "position", *_TRACE_COLUMNS)
            self.connection.executemany(
                f"INSERT OR REPLACE INTO trace_spans ({', '.join(columns)})"
                f" VALUES ({', '.join('?' * len(columns))})",
                [(run_id, position, *row) for position, row in enumerate(rows)],
            )
            self.connection.commit()
        return len(rows)

    def load_trace(self, run_id: int) -> list[ExampleSpan]:
        """Rebuild a run's :class:`ExampleSpan` stream (inverse of store)."""
        cursor = self.connection.execute(
            f"SELECT {', '.join(_TRACE_COLUMNS)}"
            " FROM trace_spans WHERE run_id = ? ORDER BY position",
            (run_id,),
        )
        spans: list[ExampleSpan] = []
        for row in cursor.fetchall():
            if row[2] == "":
                spans.append(ExampleSpan(
                    method=row[0], example_id=row[1], seconds=row[3],
                    cache_hit=bool(row[4]), input_tokens=int(row[6]),
                    output_tokens=int(row[7]), cost_usd=row[8],
                    failure=row[9],
                ))
            else:
                spans[-1].stages.append(StageSpan(
                    stage=row[2], seconds=row[3], cache_hit=bool(row[4]),
                    llm_calls=int(row[5]), output_tokens=int(row[7]),
                    counters={
                        name: int(value)
                        for name, value in zip(_COUNTER_COLUMNS, row[10:])
                        if value
                    },
                ))
        return spans

    def store_metrics(self, run_id: int, registry: MetricsRegistry) -> int:
        """Persist a run's metrics registry; returns the row count."""
        rows = [
            (run_id, "counter", name, json.dumps(labels, sort_keys=True),
             value, value, 0.0, 0.0)
            for name, labels, value in registry.counters()
        ] + [
            (run_id, "histogram", name, json.dumps(labels, sort_keys=True),
             summary.count, summary.total, summary.minimum, summary.maximum)
            for name, labels, summary in registry.histograms()
        ]
        if rows:
            self.connection.executemany(
                "INSERT OR REPLACE INTO run_metrics (run_id, kind, name,"
                " labels, count, total, minimum, maximum)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            self.connection.commit()
        return len(rows)

    def load_metrics(self, run_id: int) -> MetricsRegistry:
        """Rebuild a run's :class:`MetricsRegistry` (inverse of store)."""
        registry = MetricsRegistry()
        cursor = self.connection.execute(
            "SELECT kind, name, labels, count, total, minimum, maximum"
            " FROM run_metrics WHERE run_id = ?",
            (run_id,),
        )
        for kind, name, labels_json, count, total, minimum, maximum in cursor:
            labels = json.loads(labels_json)
            key = (name, tuple(sorted(labels.items())))
            if kind == "counter":
                registry._counters[key] = count
            else:
                registry._histograms[key] = HistogramSummary(
                    count=int(count), total=total,
                    minimum=minimum, maximum=maximum,
                )
        return registry
