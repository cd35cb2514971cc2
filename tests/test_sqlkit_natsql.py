"""Tests for the NatSQL intermediate representation."""

import copy

import pytest

from repro.errors import NatSQLError, ReproError, SQLParseError
from repro.sqlkit.differential import build_fuzz_datasets
from repro.sqlkit.exact_match import exact_match
from repro.sqlkit.natsql import from_natsql, natsql_round_trip, natsql_text, to_natsql
from repro.sqlkit.parser import parse_select


class TestEncode:
    def test_drops_from_clause(self, toy_schema):
        natsql = to_natsql("SELECT name FROM airports")
        assert natsql.statement.from_clause is None

    def test_qualifies_columns(self, toy_schema):
        natsql = to_natsql("SELECT name FROM airports WHERE city = 'Boston'")
        text = natsql_text(natsql)
        assert "airports.name" in text
        assert "airports.city" in text

    def test_resolves_aliases(self, toy_schema):
        natsql = to_natsql(
            "SELECT T1.name FROM airports AS T1 JOIN flights AS T2 "
            "ON T1.airport_id = T2.airport_id"
        )
        assert "airports.name" in natsql_text(natsql)

    def test_referenced_tables(self):
        natsql = to_natsql(
            "SELECT T1.name, T2.price FROM airports AS T1 JOIN flights AS T2 "
            "ON T1.airport_id = T2.airport_id"
        )
        tables = [t.lower() for t in natsql.referenced_tables()]
        assert "airports" in tables and "flights" in tables


class TestDecode:
    def test_single_table_round_trip(self, toy_schema):
        sql = "SELECT name FROM airports WHERE city = 'Boston'"
        decoded = from_natsql(to_natsql(sql), toy_schema)
        assert exact_match(decoded, sql, compare_values=True)

    def test_join_reconstructed_from_fk(self, toy_schema):
        natsql = to_natsql(
            "SELECT T1.name, T2.price FROM airports AS T1 JOIN flights AS T2 "
            "ON T1.airport_id = T2.airport_id"
        )
        decoded = from_natsql(natsql, toy_schema)
        assert "JOIN" in decoded
        assert "airport_id" in decoded

    def test_join_decode_executes_equivalently(self, toy_db):
        from repro.dbengine.executor import execute_sql, results_match
        sql = (
            "SELECT T1.name, T2.price FROM airports AS T1 JOIN flights AS T2 "
            "ON T2.airport_id = T1.airport_id WHERE T1.city = 'Boston'"
        )
        decoded = from_natsql(to_natsql(sql), toy_db.schema)
        assert results_match(
            execute_sql(toy_db, decoded), execute_sql(toy_db, sql)
        )

    def test_subquery_round_trip(self, toy_schema):
        sql = (
            "SELECT name FROM airports WHERE elevation > "
            "(SELECT AVG(elevation) FROM airports)"
        )
        decoded = from_natsql(to_natsql(sql), toy_schema)
        assert "SELECT AVG" in decoded.upper()

    def test_unknown_table_raises(self, toy_schema):
        natsql = to_natsql("SELECT name FROM hotels")
        with pytest.raises(NatSQLError):
            from_natsql(natsql, toy_schema)

    def test_unconnected_tables_raise(self, toy_schema):
        # Remove the FK so airports/flights are not connected.
        toy_schema.foreign_keys.clear()
        natsql = to_natsql(
            "SELECT T1.name, T2.price FROM airports AS T1 JOIN flights AS T2 "
            "ON T1.airport_id = T2.airport_id"
        )
        with pytest.raises(NatSQLError):
            from_natsql(natsql, toy_schema)

    def test_set_operation_round_trip(self, toy_schema):
        sql = (
            "SELECT name FROM airports WHERE city = 'Boston' "
            "UNION SELECT name FROM airports WHERE city = 'Denver'"
        )
        decoded = from_natsql(to_natsql(sql), toy_schema)
        assert "UNION" in decoded


@pytest.fixture(scope="module")
def gold_queries():
    """Every distinct (gold SQL, schema) of the small Spider- and BIRD-like sets."""
    datasets = build_fuzz_datasets()
    pairs = {
        (example.gold_sql, example.db_id, dataset.name): dataset.databases[
            example.db_id
        ].schema
        for dataset in datasets
        for example in dataset.examples
    }
    yield [(sql, schema) for (sql, _db_id, _name), schema in pairs.items()]
    for dataset in datasets:
        dataset.close()


def _outcome(function, *args):
    """``function(*args)``, or the type of the repro error it raised."""
    try:
        return function(*args)
    except ReproError as exc:
        return type(exc)


def _two_step(sql, schema):
    return from_natsql(to_natsql(sql), schema)


class TestRoundTrip:
    def test_equals_the_two_step_round_trip(self, gold_queries, monkeypatch):
        # Each gold query against its own schema, against another
        # database's schema (unknown or unconnected tables), and cut short
        # (a parse error).
        schemas = [schema for _sql, schema in gold_queries]
        cases = [
            case
            for index, (sql, schema) in enumerate(gold_queries)
            for case in (
                (sql, schema),
                (sql, schemas[(index * 7 + 1) % len(schemas)]),
                (sql[: len(sql) // 2], schema),
            )
        ]
        expected = [_outcome(_two_step, sql, schema) for sql, schema in cases]

        def no_copy(value, memo=None):
            raise AssertionError("natsql_round_trip copied a tree")

        monkeypatch.setattr(copy, "deepcopy", no_copy)
        actual = [_outcome(natsql_round_trip, sql, schema) for sql, schema in cases]
        assert actual == expected
        assert all(isinstance(outcome, str) for outcome in expected[::3])
        assert {NatSQLError, SQLParseError} <= set(expected)

    def test_encode_and_decode_leave_their_inputs_unchanged(self, gold_queries):
        for sql, schema in gold_queries:
            statement = parse_select(sql)
            snapshot = copy.deepcopy(statement)
            natsql = to_natsql(statement)
            assert statement == snapshot
            encoded, text = copy.deepcopy(natsql.statement), natsql_text(natsql)
            assert isinstance(from_natsql(natsql, schema), str)
            assert natsql.statement == encoded and natsql_text(natsql) == text
