"""Tests for schema linking."""

import pytest

from repro.nlu.linker import SchemaLinker, _phrase_tokens, phrase_similarity
from repro.utils.cache import caches_disabled
from repro.utils.text import normalize_identifier

_PHRASES = ["airport name", "airports", "flight_id", "AirportCode", "price", ""]
_MEMOS = [
    pytest.param(
        phrase_similarity, [(a, b) for a in _PHRASES for b in _PHRASES], id="phrase_similarity"
    ),
    pytest.param(_phrase_tokens, [(phrase,) for phrase in _PHRASES], id="phrase_tokens"),
    pytest.param(
        normalize_identifier, [(phrase,) for phrase in _PHRASES], id="normalize_identifier"
    ),
]


class TestPhraseSimilarity:
    def test_identical(self):
        assert phrase_similarity("airport name", "airport name") == 1.0

    def test_plural_tolerant(self):
        assert phrase_similarity("airports", "airport") > 0.9

    def test_underscore_tolerant(self):
        assert phrase_similarity("airport_name", "airport name") == 1.0

    def test_unrelated_low(self):
        assert phrase_similarity("elevation", "price") < 0.4


@pytest.mark.parametrize("memo,calls", _MEMOS)
class TestStringMemos:
    """The schema-linking string memos are pure and obey ``caches_disabled``."""

    def test_memo_equals_body(self, memo, calls):
        for args in calls:
            first, second = memo(*args), memo(*args)
            assert first == second == memo.__wrapped__(*args)

    def test_repeat_call_hits(self, memo, calls):
        memo(*calls[0])
        before = memo.cache_info().hits
        memo(*calls[0])
        assert memo.cache_info().hits == before + 1

    def test_disabled_caches_bypass_memo(self, memo, calls):
        for args in calls:
            memo(*args)
        before = memo.cache_info()
        with caches_disabled():
            for args in calls:
                memo(*args)
        after = memo.cache_info()
        assert after.hits == before.hits
        assert after.currsize == before.currsize


class TestTableLinking:
    def test_exact(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_table("airports")
        assert linked.table.name == "airports"

    def test_singular_phrase(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_table("airport")
        assert linked.table.name == "airports"

    def test_below_threshold_none(self, toy_schema):
        assert SchemaLinker(toy_schema).link_table("customers", threshold=0.6) is None

    def test_rank_tables_ordering(self, toy_schema):
        ranked = SchemaLinker(toy_schema).rank_tables("flight")
        assert ranked[0].table.name == "flights"
        assert ranked[0].score > ranked[1].score


class TestColumnLinking:
    def test_direct_match(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column("elevation")
        assert linked.column.name == "elevation"
        assert linked.table.name == "airports"

    def test_natural_name_match(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column("airport name")
        assert linked.column.name == "name"

    def test_restricted_to_tables(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column("price", tables=["flights"])
        assert linked.table.name == "flights"

    def test_restriction_excludes(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column(
            "elevation", tables=["flights"], threshold=0.6
        )
        assert linked is None

    def test_contextual_table_prefix(self, toy_schema):
        # "flight price" should match flights.price via table context.
        linked = SchemaLinker(toy_schema).link_column("flight price")
        assert linked.table.name == "flights"
        assert linked.column.name == "price"


class TestRelevantTables:
    def test_question_mentions_both(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables(
            "Show the airport name together with the price of its flights"
        )
        assert "airports" in tables and "flights" in tables

    def test_single_table_question(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables(
            "How many airports are there?", top_k=1
        )
        assert tables == ["airports"]

    def test_always_returns_at_least_one(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables("completely unrelated words")
        assert len(tables) >= 1

    def test_column_evidence_counts(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables(
            "What is the average elevation?"
        )
        assert "airports" in tables
