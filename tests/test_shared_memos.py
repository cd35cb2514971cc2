"""Process-wide memos shared by every method: safe keys, exact results.

Each zoo method builds its own model, but the pure work behind it — the
EM canonical form of a SQL text, token counts, the honest intent parse,
the DB-content scan and the rendered schema DDL — is shared per process
or per live schema/database object.  These tests pin the sharing, the
keys that keep two same-named databases apart, invalidation on writes,
the one runtime switch, and EM verdicts identical to the unmemoized
canonicalization.
"""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.core.evaluator import Evaluator
from repro.core.parallel import result_fingerprint
from repro.datagen.benchmark import (
    Dataset,
    bird_like_config,
    build_benchmark,
    spider_like_config,
)
from repro.datagen.intents import ColumnSel, Filter, IntentShape, QueryIntent
from repro.dbengine.database import Database
from repro.errors import SQLError
from repro.llm import model as model_module
from repro.llm import tokens
from repro.llm.model import SimulatedLanguageModel
from repro.llm.prompt import Prompt, PromptFeatures
from repro.llm.registry import get_profile
from repro.llm.styles import StyleChoices
from repro.methods.zoo import build_method
from repro.modules import db_content
from repro.modules.base import PipelineConfig
from repro.modules.db_content import match_db_content
from repro.modules.prompts import build_prompt
from repro.nlu import lexicon
from repro.nlu.intent_parser import IntentParser
from repro.nlu.lexicon import Lexicon
from repro.obs import Tracer, tracing
from repro.schema.ddl import render_schema_ddl
from repro.schema.model import Column, ColumnType
from repro.sqlkit.differential import (
    build_fuzz_datasets,
    clause_deletions,
    corrupted_sql,
    duplicate_select_item,
    flip_join_operands,
    generate_query,
    mirror_comparisons,
    rename_aliases,
)
from repro.sqlkit.exact_match import exact_match
from repro.sqlkit.parser import parse_select
from repro.sqlkit.printer import to_sql
from repro.utils.cache import caches_disabled, lru_cache_stats, per_object_cache
from repro.utils.rng import derive_rng
from repro.utils.text import normalized_similarity

from tests.conftest import (
    AIRPORT_ROWS,
    FLIGHT_ROWS,
    make_toy_schema,
    null_value_columns,
    small_benchmark_config,
)

# The package re-exports the function under the module's own name.
em_module = importlib.import_module("repro.sqlkit.exact_match")

QUESTION = "Show the airport name of all airports whose city is 'Boston'."


def make_prompt(question=QUESTION, db_id="toy_flights", **features):
    return Prompt(
        text=f"/* schema */ {question}", question=question, db_id=db_id,
        features=PromptFeatures(**features),
    )


@pytest.fixture()
def parse_calls(monkeypatch):
    """Counts every honest ``IntentParser.parse`` call made in the test."""
    calls = []
    original = IntentParser.parse

    def counting(self, question):
        calls.append(question)
        return original(self, question)

    monkeypatch.setattr(IntentParser, "parse", counting)
    return calls


@pytest.fixture(scope="module")
def energy_pair():
    """The Spider-like and BIRD-like ``energy`` databases: one db_id, two schemas."""
    spider = build_benchmark(spider_like_config(0.3, 42))
    bird = build_benchmark(bird_like_config(0.3, 43))
    yield spider, bird
    spider.close()
    bird.close()


# -- intent memo ----------------------------------------------------------


class TestIntentMemo:
    def test_models_with_different_profiles_share_a_parse(self, toy_db, parse_calls):
        strong = SimulatedLanguageModel(get_profile("gpt-4"))
        weak = SimulatedLanguageModel(get_profile("t5-base"), seed=3)
        assert strong.lexicon() != weak.lexicon()
        strong.generate_many(make_prompt(), toy_db, [(0, 0.0)])
        with tracing(Tracer()) as tracer:
            with tracer.example("m", "e"), tracer.stage("decode"):
                weak.generate_many(make_prompt(), toy_db, [(0, 0.0)])
        (span,) = tracer.drain()
        assert len(parse_calls) == 1
        assert span.stages[0].counters.get("memo_hits") == 1
        memo = per_object_cache(toy_db.schema, "intents")
        assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)

    def test_lexicons_share_only_an_equal_normalization(self, toy_db, parse_calls):
        question = "Show the mean price of all flights."
        full = SimulatedLanguageModel(get_profile("gpt-4"))
        full._lexicon = Lexicon.full()
        blind = SimulatedLanguageModel(get_profile("gpt-4"))
        blind._lexicon = Lexicon.with_coverage(frozenset())
        assert full.lexicon().normalize(question) != blind.lexicon().normalize(question)
        for model in (full, blind):
            cached = model.generate(make_prompt(question), toy_db)
            with caches_disabled():
                assert model.generate(make_prompt(question), toy_db) == cached
        assert len(parse_calls) == 4  # two misses, two uncached parses

    def test_same_db_id_different_schemas_never_share(self, energy_pair, parse_calls):
        spider, bird = energy_pair
        first, second = spider.databases["energy"], bird.databases["energy"]
        assert first.data_version == second.data_version
        assert render_schema_ddl(first.schema) != render_schema_ddl(second.schema)
        questions = [e.question for e in spider.examples + bird.examples
                     if e.db_id == "energy"]
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        pruned = ("operators", "plants")
        for features in ({}, {"schema_tables": pruned}):
            for question in questions:
                prompt = make_prompt(question, db_id="energy", **features)
                model.generate(prompt, first)
                cached = model.generate(prompt, second)
                with caches_disabled():
                    assert model.generate(prompt, second) == cached
        assert per_object_cache(first.schema, "intents") is not per_object_cache(
            second.schema, "intents"
        )
        prompt = make_prompt(db_id="energy", schema_tables=pruned)
        first_pruned = model._effective_schema(first, prompt)
        second_pruned = model._effective_schema(second, prompt)
        assert render_schema_ddl(second_pruned) != render_schema_ddl(first_pruned)
        assert second_pruned.table("plants").columns == second.schema.table(
            "plants"
        ).columns

    def test_pruned_schema_shared_across_models(self, toy_db):
        prompt = make_prompt(schema_tables=("airports",))
        first = SimulatedLanguageModel(get_profile("gpt-4"))._effective_schema(toy_db, prompt)
        second = SimulatedLanguageModel(get_profile("t5-base"))._effective_schema(
            toy_db, prompt
        )
        assert first is second
        assert first.table_names == ["airports"]


# -- render memo ------------------------------------------------------------


# One method per decoder family (greedy, sampling, beam, PICARD) and the
# two NatSQL-IR methods.
RENDER_METHODS = ("DAILSQL", "DAILSQL(SC)", "BRIDGE v2", "T5-3B + PICARD",
                  "DINSQL", "RESDSQL-3B + NatSQL")


def _zoo_records(dataset):
    evaluator = Evaluator(dataset, measure_timing=False)
    reports = evaluator.evaluate_zoo(
        [build_method(name, seed=42) for name in RENDER_METHODS]
    )
    return {name: report.records for name, report in reports.items()}


def _renders(dataset):
    """``(hits, misses, entries)`` of the ``renders`` memos of ``dataset``'s schemas."""
    memos = [per_object_cache(db.schema, "renders") for db in dataset.databases.values()]
    return (sum(memo.hits for memo in memos), sum(memo.misses for memo in memos),
            sum(len(memo) for memo in memos))


@pytest.fixture()
def render_calls(monkeypatch):
    """Counts every uncached render made in the test."""
    calls = []
    original = model_module._render_sql

    def counting(intent, schema, style, uses_natsql):
        calls.append((intent, uses_natsql))
        return original(intent, schema, style, uses_natsql)

    monkeypatch.setattr(model_module, "_render_sql", counting)
    return calls


def _threshold_intent(value) -> QueryIntent:
    return QueryIntent(
        shape=IntentShape.PROJECT, db_id="toy_flights", tables=("airports",),
        projection=(ColumnSel("airports", "name"),),
        filters=(Filter(ColumnSel("airports", "elevation"), ">", value),),
    )


class TestRenderMemo:
    def test_records_equal_with_caches_on_and_off(self, small_dataset):
        before = _renders(small_dataset)
        cached = _zoo_records(small_dataset)
        after = _renders(small_dataset)
        assert after[0] > before[0]  # the memo served renders
        with caches_disabled():
            uncached = _zoo_records(small_dataset)
        assert _renders(small_dataset) == after
        assert uncached == cached

    def test_models_sharing_a_schema_render_once(self, toy_db, render_calls):
        intent = _threshold_intent(100)
        strong = SimulatedLanguageModel(get_profile("gpt-4"))
        weak = SimulatedLanguageModel(get_profile("t5-base"), seed=3)
        for natsql in (False, True):
            first = strong._render(intent, toy_db.schema, StyleChoices(), natsql)
            assert weak._render(intent, toy_db.schema, StyleChoices(), natsql) == first
        assert render_calls == [(intent, False), (intent, True)]
        memo = per_object_cache(toy_db.schema, "renders")
        assert (memo.hits, memo.misses, len(memo)) == (2, 2, 2)
        assert lru_cache_stats()["renders"]["hits"] >= 2

    def test_caches_disabled_neither_hits_nor_stores(self, toy_db, render_calls):
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        with caches_disabled():
            for _ in range(2):
                model._render(_threshold_intent(100), toy_db.schema, StyleChoices(), True)
        assert len(render_calls) == 2
        memo = per_object_cache(toy_db.schema, "renders")
        assert (memo.hits, memo.misses, len(memo)) == (0, 0, 0)

    def test_equal_intents_with_other_literal_types_never_share(self, toy_db):
        # 100 == 100.0 and 1 == True, but only an int threshold shifts.
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        style = StyleChoices(shifted_int_threshold=True)
        assert _threshold_intent(100) == _threshold_intent(100.0)
        assert _threshold_intent(1) == _threshold_intent(True)
        for natsql in (False, True):
            for value in (100, 100.0, 1, True):
                intent = _threshold_intent(value)
                cached = model._render(intent, toy_db.schema, style, natsql)
                with caches_disabled():
                    assert model._render(intent, toy_db.schema, style, natsql) == cached
        assert model._render(_threshold_intent(100), toy_db.schema, style, False).endswith(
            "elevation >= 101"
        )

    def test_unhashable_literals_render_uncached(self, toy_db, render_calls):
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        intent = _threshold_intent(["unhashable"])
        with caches_disabled():
            expected = model._render(intent, toy_db.schema, StyleChoices(), False)
        assert model._render(intent, toy_db.schema, StyleChoices(), False) == expected
        assert len(render_calls) == 2
        assert len(per_object_cache(toy_db.schema, "renders")) == 0

    def test_threads_share_the_memo_without_lost_updates(self, toy_db):
        # More threads than cores and a short switch interval: a lost
        # update would show as a wrong text or a miscounted lookup.
        keys = [(_threshold_intent(value), natsql)
                for value in range(30) for natsql in (False, True)]
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        with caches_disabled():
            expected = [model._render(intent, toy_db.schema, StyleChoices(), natsql)
                        for intent, natsql in keys]

        def render_all(_thread):
            return [model._render(intent, toy_db.schema, StyleChoices(), natsql)
                    for intent, natsql in keys]

        threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(threads) as pool:
                results = list(pool.map(render_all, range(threads), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * threads
        memo = per_object_cache(toy_db.schema, "renders")
        assert memo.hits + memo.misses == threads * len(keys)
        assert len(memo) == len(keys) <= memo.misses

    def test_records_follow_a_write_that_changes_them(self):
        # A private dataset: never write to the session-scoped one.
        dataset = build_benchmark(small_benchmark_config())
        try:
            before = _zoo_records(dataset)  # warms the memo
            null_value_columns(dataset)
            hits = _renders(dataset)[0]
            after = _zoo_records(dataset)
            assert _renders(dataset)[0] > hits  # renders stay valid across the write
            with caches_disabled():
                expected = _zoo_records(dataset)
        finally:
            dataset.close()
        assert after == expected
        changed = sum(
            old != new
            for name in RENDER_METHODS
            for old, new in zip(before[name], after[name], strict=True)
        )
        assert changed > 0


# -- DB-content memo --------------------------------------------------------


class TestDbContentMemo:
    QUESTION = "Show the destination of all flights whose destination is 'Denver'."

    def test_match_follows_a_write_to_a_matched_cell(self, toy_db):
        before = match_db_content("codes", toy_db, self.QUESTION)
        assert before["airports"]["city"] == ["Denver"]
        toy_db.apply_write("UPDATE airports SET city = 'Denver West' WHERE city = 'Denver'")
        after = match_db_content("codes", toy_db, self.QUESTION)
        assert after["airports"]["city"] == ["Denver West"]
        with caches_disabled():
            assert match_db_content("codes", toy_db, self.QUESTION) == after

    def test_each_caller_gets_fresh_containers(self, toy_db):
        first = match_db_content("bridge", toy_db, self.QUESTION)
        first["airports"]["city"].append("poison")
        first.clear()
        second = match_db_content("bridge", toy_db, self.QUESTION)
        assert second["airports"]["city"] == ["Denver"]
        assert per_object_cache(toy_db, "db_content").hits == 1

    def test_length_bound_never_skips_a_reachable_match(self):
        rng = random.Random(5)
        alphabet = "abcAB İ"
        for _ in range(3000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12)))
            threshold = rng.choice((0.5, 0.7, 0.82, 0.9))
            if not db_content._may_reach(len(a.lower()), len(b.lower()), threshold):
                assert normalized_similarity(a, b) < threshold

    def test_matches_equal_the_unmemoized_scan_on_benchmark_questions(self, small_dataset):
        for example in small_dataset.dev_examples:
            database = small_dataset.databases[example.db_id]
            for strategy in ("bridge", "codes"):
                cached = match_db_content(strategy, database, example.question)
                with caches_disabled():
                    assert match_db_content(strategy, database, example.question) == cached


# -- prompt schema segment ----------------------------------------------------


def _loaded(schema) -> Database:
    """``schema`` holding the toy rows; columns beyond them stay NULL."""
    database = Database(schema)
    database.insert_rows("airports", AIRPORT_ROWS)
    padding = (None,) * (len(schema.table("flights").columns) - len(FLIGHT_ROWS[0]))
    database.insert_rows("flights", [row + padding for row in FLIGHT_ROWS])
    return database


class TestPromptSchemaSegment:
    def test_same_db_id_and_version_do_not_share_ddl(self):
        wide = make_toy_schema()
        flights = wide.table("flights")
        wide.tables[1] = replace(
            flights, columns=[*flights.columns, Column("carrier", ColumnType.TEXT)]
        )
        config = PipelineConfig(name="x", backbone="gpt-4")
        with _loaded(make_toy_schema()) as narrow_db, _loaded(wide) as wide_db:
            assert narrow_db.db_id == wide_db.db_id
            assert narrow_db.data_version == wide_db.data_version
            for database in (narrow_db, wide_db, narrow_db):
                prompt = build_prompt(config, database, QUESTION)
                assert render_schema_ddl(database.schema) in prompt.text
            assert "carrier" not in build_prompt(config, narrow_db, QUESTION).text


# -- the runtime switch -----------------------------------------------------


class TestCachesDisabledBypassesEveryMemo:
    def test_no_memo_hits_or_fills(self, toy_db):
        gated = (em_module._canonical_text, tokens.count_tokens, lexicon._normalize)
        before = [function.cache_info() for function in gated]
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        config = PipelineConfig(name="x", backbone="gpt-4", db_content="bridge")
        unique = "Show the airport name of all airports whose city is 'Quux Bypass'."
        with caches_disabled():
            for _ in range(2):
                exact_match("SELECT name FROM airports WHERE city = 'Quux'",
                            "SELECT name FROM airports WHERE city = 'Quux'")
                tokens.count_tokens("SELECT quux_bypass FROM nowhere")
                prompt = build_prompt(config, toy_db, unique)
                model.generate_many(
                    make_prompt(unique, schema_tables=("airports",)), toy_db, [(0, 0.0)]
                )
        assert [function.cache_info() for function in gated] == before
        for host, name in (
            (toy_db.schema, "intents"),
            (toy_db.schema, "pruned_schemas"),
            (toy_db.schema, "renders"),
            (toy_db, "db_content"),
            (toy_db, "prefix_schema"),
        ):
            memo = per_object_cache(host, name)
            assert (memo.hits, memo.misses, len(memo)) == (0, 0, 0), name
        assert prompt.features.db_content is not None


# -- EM canonical-form memo ------------------------------------------------


def reference_exact_match(predicted: str, gold: str, compare_values: bool) -> bool:
    """The unmemoized EM body: parse both sides, then canonicalize both."""
    try:
        predicted_statement = parse_select(predicted)
        gold_statement = parse_select(gold)
    except SQLError:
        return False
    return em_module._canonicalize(
        predicted_statement, compare_values
    ) == em_module._canonicalize(gold_statement, compare_values)


@pytest.fixture(scope="module")
def fuzz_corpus():
    """Gold, corrupted and generated SQL as the differential fuzzer draws it."""
    datasets = build_fuzz_datasets()
    texts: list[str] = []
    for dataset in datasets:
        texts.extend(list(dict.fromkeys(e.gold_sql for e in dataset.examples))[:100])
        examples = dataset.examples
        for index in range(40):
            rng = derive_rng(42, "shared-memos", dataset.name, index)
            example = examples[rng.randrange(len(examples))]
            database = dataset.databases[example.db_id]
            texts.append(corrupted_sql(example, database, rng) or example.gold_sql)
            texts.append(generate_query(database, rng))
    yield texts
    for dataset in datasets:
        dataset.close()


def _metamorphic_variants(sql: str) -> list[str]:
    try:
        statement = parse_select(sql)
    except SQLError:
        return []
    variants = [rename_aliases(statement), flip_join_operands(statement),
                mirror_comparisons(statement), duplicate_select_item(statement)]
    variants.extend(variant for _name, variant in clause_deletions(statement))
    return [to_sql(variant) for variant in variants]


class TestExactMatchMemo:
    def test_verdicts_equal_the_unmemoized_body(self, fuzz_corpus):
        pairs = []
        for sql in fuzz_corpus:
            pairs.append((sql, sql))
            for variant in _metamorphic_variants(sql):
                pairs.extend([(sql, variant), (variant, sql)])
            broken = sql[: len(sql) // 2]
            pairs.extend([(broken, sql), (sql, broken), (sql + " AND", sql)])
        assert len(pairs) > 1000
        em_module._canonical_text.cache_clear()
        verdicts = {True: 0, False: 0}
        for compare_values in (False, True):
            for predicted, gold in pairs:
                expected = reference_exact_match(predicted, gold, compare_values)
                # The second call is served from the memo.
                assert exact_match(predicted, gold, compare_values) is expected
                assert exact_match(predicted, gold, compare_values) is expected
                verdicts[expected] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0
        assert em_module._canonical_text.cache_info().hits > len(pairs)

    def test_parse_failures_are_memoized_as_no_match(self):
        em_module._canonical_text.cache_clear()
        assert not exact_match("SELECT FROM WHERE", "SELECT 1")
        assert not exact_match("SELECT FROM WHERE", "SELECT 1")
        info = em_module._canonical_text.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_canonicalize_errors_propagate(self, monkeypatch):
        def broken(statement, compare_values, outer_aliases=None):
            raise SQLError("cannot canonicalize")

        monkeypatch.setattr(em_module, "_canonicalize", broken)
        em_module._canonical_text.cache_clear()
        for _ in range(2):
            with pytest.raises(SQLError):
                exact_match("SELECT a FROM t", "SELECT a FROM t")
        assert em_module._canonical_text.cache_info().currsize == 0
        em_module._canonical_text.cache_clear()

    def test_statements_are_not_memoized(self):
        statement = parse_select("SELECT a FROM t")
        before = em_module._canonical_text.cache_info()
        assert exact_match(statement, parse_select("SELECT t.a FROM t"))
        assert em_module._canonical_text.cache_info() == before


# -- result-cache fingerprint -----------------------------------------------


class TestResultFingerprint:
    def test_pipeline_method_fingerprints_are_unchanged(self):
        from tests.conftest import small_benchmark_config

        dataset = Dataset(name="fingerprint", config=small_benchmark_config())
        # Pinned from the fingerprints existing result caches were written with.
        assert result_fingerprint(build_method("DAILSQL", seed=42), dataset, False, 1) == (
            "02581b866c540285"
        )
        assert result_fingerprint(build_method("SuperSQL", seed=7), dataset, True, 1) == (
            "b3aa64420cf268f3"
        )


# -- per-object registry ------------------------------------------------------


class TestPerObjectRegistry:
    def test_a_host_finalized_under_the_registry_lock_does_not_deadlock(self):
        # Garbage collection can finalize a dead host during an allocation
        # made while this thread holds the registry lock; the finalizer
        # must not wait for that lock.  Run apart: a deadlock would hang.
        script = (
            "import gc\n"
            "from repro.utils import cache\n"
            "class Host:\n"
            "    pass\n"
            "host = Host()\n"
            "cache.per_object_cache(host, 'memo')\n"
            "with cache._OBJECT_CACHES_LOCK:\n"
            "    del host\n"
            "    gc.collect()\n"
            "assert 'memo' not in cache.lru_cache_stats()\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60,
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
