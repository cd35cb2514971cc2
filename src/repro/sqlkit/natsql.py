"""NatSQL-style intermediate representation.

NatSQL (Gan et al., 2021) simplifies SQL by *removing JOIN clauses*: every
column is written fully qualified (``table.column``), and the FROM/JOIN
structure is reconstructed from the database schema's foreign keys when
decoding back to executable SQL.  The paper finds this IR reduces the
complexity of predicting JOIN-heavy queries (Finding 4); our simulated
models exploit exactly this property — a model emitting NatSQL never has
to predict a join path, so it cannot make join errors, but decoding fails
when the referenced tables are not FK-connected.

:func:`to_natsql` and :func:`from_natsql` leave their inputs unchanged,
so each copies the tree it is given before editing it in place.
:func:`natsql_round_trip` composes the same encode and decode on a
statement it parses itself, with no copy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.errors import NatSQLError, SchemaError
from repro.schema.model import DatabaseSchema
from repro.sqlkit.ast_nodes import (
    ColumnRef,
    Expr,
    FromClause,
    Join,
    SelectStatement,
    Star,
    Subquery,
    TableRef,
)
from repro.sqlkit.parser import parse_select
from repro.sqlkit.printer import to_sql


@dataclass
class NatSQLQuery:
    """A query in NatSQL form: fully-qualified columns, no FROM/JOIN.

    ``statement`` holds a :class:`SelectStatement` whose ``from_clause`` is
    ``None`` and whose every :class:`ColumnRef` carries a real table name.
    """

    statement: SelectStatement
    extra_tables: list[str] = field(default_factory=list)

    def referenced_tables(self) -> list[str]:
        """Tables mentioned by columns of the root statement, in first-use order."""
        seen: list[str] = []
        for expr in self.statement.iter_expressions():
            table: str | None = None
            if isinstance(expr, ColumnRef):
                table = expr.table
            elif isinstance(expr, Star):
                table = expr.table
            if table and table.lower() not in [t.lower() for t in seen]:
                seen.append(table)
        for table in self.extra_tables:
            if table.lower() not in [t.lower() for t in seen]:
                seen.append(table)
        return seen


def _resolve_columns(statement: SelectStatement) -> None:
    """Rewrite all column references in-place to full table names."""
    if statement.from_clause is None:
        return
    aliases = {t.binding.lower(): t.name for t in statement.from_clause.tables}
    default_table = (
        statement.from_clause.base.name
        if len(statement.from_clause.tables) == 1
        else None
    )
    for expr in statement.iter_expressions():
        if isinstance(expr, ColumnRef):
            if expr.table:
                expr.table = aliases.get(expr.table.lower(), expr.table)
            elif default_table:
                expr.table = default_table
        elif isinstance(expr, Star) and expr.table:
            expr.table = aliases.get(expr.table.lower(), expr.table)


def to_natsql(sql: str | SelectStatement) -> NatSQLQuery:
    """Encode a SQL query into NatSQL (dropping the FROM/JOIN structure).

    Subqueries and set-operation branches are encoded recursively.
    """
    statement = copy.deepcopy(sql) if isinstance(sql, SelectStatement) else parse_select(sql)
    encoded = _encode(statement)
    return NatSQLQuery(
        statement=encoded,
        extra_tables=list(getattr(encoded, "_natsql_extra_tables", [])),
    )


def _encode(statement: SelectStatement) -> SelectStatement:
    _resolve_columns(statement)
    base_tables = (
        [t.name for t in statement.from_clause.tables] if statement.from_clause else []
    )
    statement.from_clause = None
    for expr in statement.iter_expressions():
        if isinstance(expr, Subquery):
            expr.select = _encode(expr.select)
    if statement.set_operation is not None:
        statement.set_operation.right = _encode(statement.set_operation.right)
    # Keep a breadcrumb of tables that had no column mention (e.g. the
    # bridging table in a 3-way join) so decoding can restore them.
    mentioned = {
        (expr.table or "").lower()
        for expr in statement.iter_expressions()
        if isinstance(expr, (ColumnRef, Star))
    }
    statement._natsql_extra_tables = [  # type: ignore[attr-defined]
        name for name in base_tables if name.lower() not in mentioned
    ]
    return statement


def from_natsql(natsql: NatSQLQuery, schema: DatabaseSchema) -> str:
    """Decode a NatSQL query back to executable SQL using schema FKs.

    Raises:
        NatSQLError: when referenced tables are unknown or not FK-connected.
    """
    statement = copy.deepcopy(natsql.statement)
    decoded = _decode(statement, schema)
    return to_sql(decoded)


def _decode(statement: SelectStatement, schema: DatabaseSchema) -> SelectStatement:
    for expr in statement.iter_expressions():
        if isinstance(expr, Subquery):
            expr.select = _decode(expr.select, schema)
    if statement.set_operation is not None:
        statement.set_operation.right = _decode(statement.set_operation.right, schema)

    tables: list[str] = []
    for expr in statement.iter_expressions():
        table: str | None = None
        if isinstance(expr, (ColumnRef, Star)):
            table = expr.table
        if table and table.lower() not in [t.lower() for t in tables]:
            tables.append(table)
    for extra in getattr(statement, "_natsql_extra_tables", []):
        if extra.lower() not in [t.lower() for t in tables]:
            tables.append(extra)
    if not tables:
        raise NatSQLError("NatSQL query references no tables; cannot build FROM clause")
    for table in tables:
        if not schema.has_table(table):
            raise NatSQLError(f"NatSQL references unknown table {table!r}")

    try:
        fk_edges = schema.join_path(tables)
    except SchemaError as exc:
        raise NatSQLError(str(exc)) from exc

    ordered = [tables[0]]
    joins: list[Join] = []
    for fk in fk_edges:
        next_table = (
            fk.target_table
            if fk.source_table.lower() in [t.lower() for t in ordered]
            else fk.source_table
        )
        if next_table.lower() in [t.lower() for t in ordered]:
            # Both endpoints already placed (cycle); still emit the ON edge.
            next_table = fk.source_table
        condition = _join_condition(fk)
        joins.append(Join(table=TableRef(name=next_table), condition=condition))
        if next_table.lower() not in [t.lower() for t in ordered]:
            ordered.append(next_table)

    statement.from_clause = FromClause(base=TableRef(name=tables[0]), joins=joins)
    return statement


def natsql_round_trip(sql: str, schema: DatabaseSchema) -> str:
    """Encode ``sql`` to NatSQL and decode it back with ``schema``'s FKs.

    Returns the same text and raises the same errors as
    ``from_natsql(to_natsql(sql), schema)``, but it parses ``sql`` once
    and encodes and decodes that fresh statement in place, so it copies
    no tree.  This is the simulated NatSQL models' render path.
    """
    return to_sql(_decode(_encode(parse_select(sql)), schema))


def _join_condition(fk) -> Expr:
    from repro.sqlkit.ast_nodes import BinaryOp

    return BinaryOp(
        op="=",
        left=ColumnRef(column=fk.source_column, table=fk.source_table),
        right=ColumnRef(column=fk.target_column, table=fk.target_table),
    )


def natsql_text(natsql: NatSQLQuery) -> str:
    """Render the NatSQL form as text (for prompts/logging)."""
    return to_sql(natsql.statement)
