"""Export/import benchmarks in the standard Spider artifact layout.

``export_spider_format`` writes a built benchmark the way the Spider
release ships: ``tables.json`` (schemas in Spider's column-index format),
``train.json`` / ``dev.json`` (examples with ``db_id``, ``question``,
``query``), and one SQLite file per database under ``database/<db_id>/``.
``load_spider_format`` reads such a directory back into a live
:class:`Dataset`, which also makes the testbed usable on any external
dataset prepared in Spider's layout.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from repro.datagen.benchmark import Dataset, Example
from repro.dbengine.database import Database
from repro.errors import DataGenerationError
from repro.schema.introspect import schema_from_sqlite
from repro.schema.model import ColumnType, DatabaseSchema
from repro.sqlkit.hardness import classify_bird_difficulty, classify_hardness

_SPIDER_TYPE = {
    ColumnType.TEXT: "text",
    ColumnType.INTEGER: "number",
    ColumnType.REAL: "number",
    ColumnType.DATE: "time",
    ColumnType.BOOLEAN: "boolean",
}


def schema_to_spider_entry(schema: DatabaseSchema) -> dict:
    """Encode one schema as a Spider ``tables.json`` entry.

    Spider's format indexes columns globally: entry 0 is the ``*`` column,
    and each column is a ``[table_index, name]`` pair; primary keys are
    column indices and foreign keys are ``[source, target]`` index pairs.
    """
    table_names = [table.name for table in schema.tables]
    column_names: list[list] = [[-1, "*"]]
    column_types: list[str] = ["text"]
    index_of: dict[tuple[str, str], int] = {}
    for table_index, table in enumerate(schema.tables):
        for column in table.columns:
            index_of[(table.name.lower(), column.name.lower())] = len(column_names)
            column_names.append([table_index, column.display_name])
            column_types.append(_SPIDER_TYPE[column.col_type])

    primary_keys = [
        index_of[(table.name.lower(), column.name.lower())]
        for table in schema.tables
        for column in table.primary_key_columns
    ]
    foreign_keys = [
        [
            index_of[(fk.source_table.lower(), fk.source_column.lower())],
            index_of[(fk.target_table.lower(), fk.target_column.lower())],
        ]
        for fk in schema.foreign_keys
    ]
    column_names_original = [[-1, "*"]] + [
        [table_index, column.name]
        for table_index, table in enumerate(schema.tables)
        for column in table.columns
    ]
    return {
        "db_id": schema.db_id,
        "table_names": [table.display_name for table in schema.tables],
        "table_names_original": table_names,
        "column_names": column_names,
        "column_names_original": column_names_original,
        "column_types": column_types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
        # Non-standard extras (ignored by Spider tooling, used by ours).
        "x_domain": schema.domain,
        "x_ambient_difficulty": schema.ambient_difficulty,
    }


def _example_to_entry(example: Example) -> dict:
    return {
        "db_id": example.db_id,
        "question": example.question,
        "query": example.gold_sql,
        # Non-standard extras for round-tripping our metadata.
        "x_example_id": example.example_id,
        "x_variant_group": example.variant_group,
        "x_variant_style": example.variant_style,
        "x_linguistic_difficulty": example.linguistic_difficulty,
    }


def export_spider_format(dataset: Dataset, path: str | Path) -> Path:
    """Write ``dataset`` in Spider's artifact layout under ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    schemas = [database.schema for database in dataset.databases.values()]
    (root / "tables.json").write_text(
        json.dumps([schema_to_spider_entry(s) for s in schemas], indent=1)
    )
    for split in ("train", "dev"):
        entries = [_example_to_entry(e) for e in dataset.split(split)]
        (root / f"{split}.json").write_text(json.dumps(entries, indent=1))
    database_dir = root / "database"
    for db_id, database in dataset.databases.items():
        target_dir = database_dir / db_id
        target_dir.mkdir(parents=True, exist_ok=True)
        target = sqlite3.connect(target_dir / f"{db_id}.sqlite")
        with target:
            database.connection.backup(target)
        target.close()
    return root


def load_spider_format(path: str | Path, name: str = "spider-import") -> Dataset:
    """Load a Spider-layout directory back into a live :class:`Dataset`.

    Works both for our own exports (metadata extras are restored) and for
    external datasets in the same layout (metadata is derived).
    """
    root = Path(path)
    tables_path = root / "tables.json"
    if not tables_path.exists():
        raise DataGenerationError(f"{root} has no tables.json")
    table_entries = json.loads(tables_path.read_text())

    dataset = Dataset(name=name)
    for entry in table_entries:
        db_id = entry["db_id"]
        sqlite_path = root / "database" / db_id / f"{db_id}.sqlite"
        if not sqlite_path.exists():
            raise DataGenerationError(f"missing SQLite file for {db_id!r}")
        source = sqlite3.connect(sqlite_path)
        schema = schema_from_sqlite(
            source, db_id, domain=entry.get("x_domain", "general")
        )
        schema.ambient_difficulty = float(entry.get("x_ambient_difficulty", 0.0))
        database = Database(schema)
        with database.connection:
            source.backup(database.connection)
        # The restore bypassed insert_rows: advance data_version so
        # execution memos and pooled replicas see the new content.
        database.mark_mutated()
        source.close()
        dataset.databases[db_id] = database

    for split in ("train", "dev"):
        split_path = root / f"{split}.json"
        if not split_path.exists():
            continue
        for index, entry in enumerate(json.loads(split_path.read_text())):
            gold_sql = entry["query"]
            example_id = entry.get("x_example_id", f"{split}-{index}")
            dataset.examples.append(Example(
                example_id=example_id,
                db_id=entry["db_id"],
                domain=dataset.databases[entry["db_id"]].schema.domain,
                question=entry["question"],
                gold_sql=gold_sql,
                hardness=classify_hardness(gold_sql),
                bird_difficulty=classify_bird_difficulty(gold_sql),
                split=split,
                variant_group=entry.get("x_variant_group", example_id),
                variant_style=entry.get("x_variant_style", "canonical"),
                linguistic_difficulty=int(entry.get("x_linguistic_difficulty", 0)),
            ))
    if not dataset.examples:
        raise DataGenerationError(f"{root} contains no examples")
    return dataset
