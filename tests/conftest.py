"""Shared fixtures: a hand-built toy schema/database and a small benchmark."""

from __future__ import annotations

import pytest

from repro.datagen.benchmark import BenchmarkConfig, build_benchmark
from repro.datagen.domains import get_domain
from repro.datagen.intents import IntentShape
from repro.dbengine.database import Database
from repro.schema.model import Column, ColumnType, DatabaseSchema, ForeignKey, Table


def make_toy_schema() -> DatabaseSchema:
    """A small flights schema used across unit tests."""
    airports = Table(
        name="airports",
        columns=[
            Column("airport_id", ColumnType.INTEGER, is_primary_key=True),
            Column("name", ColumnType.TEXT, natural_name="airport name"),
            Column("city", ColumnType.TEXT),
            Column("elevation", ColumnType.INTEGER),
        ],
    )
    flights = Table(
        name="flights",
        columns=[
            Column("flight_id", ColumnType.INTEGER, is_primary_key=True),
            Column("airport_id", ColumnType.INTEGER),
            Column("destination", ColumnType.TEXT),
            Column("price", ColumnType.REAL),
            Column("distance", ColumnType.INTEGER),
        ],
    )
    return DatabaseSchema(
        db_id="toy_flights",
        tables=[airports, flights],
        foreign_keys=[ForeignKey("flights", "airport_id", "airports", "airport_id")],
        domain="flights",
    )


AIRPORT_ROWS = [
    (1, "North Field", "Aberdeen", 120),
    (2, "Harbor International", "Boston", 20),
    (3, "Summit Strip", "Denver", 1600),
    (4, "Bayview", "Boston", 15),
]

FLIGHT_ROWS = [
    (1, 1, "Boston", 199.5, 600),
    (2, 1, "Denver", 320.0, 1500),
    (3, 2, "Aberdeen", 150.25, 600),
    (4, 3, "Boston", 410.0, 1700),
    (5, 3, "Aberdeen", 95.0, 400),
    (6, 2, "Denver", 260.0, 1400),
]


@pytest.fixture()
def toy_schema() -> DatabaseSchema:
    return make_toy_schema()


@pytest.fixture()
def toy_db(toy_schema) -> Database:
    database = Database(toy_schema)
    database.insert_rows("airports", AIRPORT_ROWS)
    database.insert_rows("flights", FLIGHT_ROWS)
    yield database
    database.close()


def small_benchmark_config(seed: int = 42) -> BenchmarkConfig:
    """A fast 4-domain Spider-flavoured benchmark for integration tests."""
    return BenchmarkConfig(
        name="spider-like",
        seed=seed,
        train_db_counts={"flights": 2, "movies": 2, "college": 2, "pets": 0},
        dev_db_counts={"flights": 1, "movies": 1, "college": 1, "pets": 1},
        examples_per_train_db=8,
        examples_per_dev_db=10,
        rows_per_table=40,
    )


def value_columns(schema: DatabaseSchema) -> list[tuple[str, Column]]:
    """Every (table name, column) safe to rewrite in place: non-key, non-FK."""
    fk_columns = set()
    for fk in schema.foreign_keys:
        fk_columns.add((fk.source_table.lower(), fk.source_column.lower()))
        fk_columns.add((fk.target_table.lower(), fk.target_column.lower()))
    return [
        (table.name, column)
        for table in schema.tables
        for column in table.columns
        if not column.is_primary_key
        and (table.name.lower(), column.name.lower()) not in fk_columns
    ]


def null_value_columns(dataset) -> None:
    """NULL every non-key, non-FK column through ``Database.apply_write``."""
    for database in dataset.databases.values():
        by_table: dict[str, list[str]] = {}
        for table, column in value_columns(database.schema):
            by_table.setdefault(table, []).append(f'"{column.name}" = NULL')
        for table, assignments in by_table.items():
            database.apply_write(f'UPDATE "{table}" SET {", ".join(assignments)}')


def mutable_text_column(schema: DatabaseSchema) -> tuple[str, str]:
    """A (table, column) safe to rewrite in place: TEXT, non-key, non-FK."""
    for table, column in value_columns(schema):
        if column.col_type is ColumnType.TEXT:
            return table, column.name
    raise RuntimeError(f"no mutable text column in {schema.db_id!r}")


def edit_one_row_sql(schema: DatabaseSchema) -> str:
    """A content edit of one row of ``schema``'s first mutable text column."""
    table, column = mutable_text_column(schema)
    return (
        f"UPDATE {table} SET {column} = {column} || ' (edited)' "
        f"WHERE rowid IN (SELECT rowid FROM {table} LIMIT 1)"
    )


@pytest.fixture(scope="session")
def small_dataset():
    dataset = build_benchmark(small_benchmark_config())
    yield dataset
    dataset.close()


@pytest.fixture(scope="session")
def flights_domain():
    return get_domain("flights")


ALL_SHAPES = list(IntentShape)
