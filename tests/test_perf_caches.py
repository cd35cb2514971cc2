"""Hot-path cache layers: bit-exact equivalence and unit behaviour.

The contract under test: every memo layer added by the hot-path
optimisation — the few-shot retrieval index, the intent memo, the PICARD
verdict memo, and the candidate-execution LRU — is a pure optimisation.
With caches on or off, AAS-batch evaluation must produce bit-identical
results; ``tests/test_mode_identity.py`` checks the same for every
execution mode.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aas import AASConfig, run_aas
from repro.core.design_space import SearchSpace
from repro.core.evaluator import Evaluator
from repro.dbengine.executor import execute_sql, execute_sql_cached
from repro.llm.decoding import PicardDecoder
from repro.llm.model import GenerationCandidate
from repro.methods.zoo import build_method
from repro.modules.fewshot import MANUAL_QUALITY, select_examples
from repro.modules.retrieval import FewShotIndex, clear_index_registry, index_for
from repro.obs import Tracer, stage_breakdown, tracing
from repro.sqlkit.picard import PicardChecker
from repro.utils.cache import (
    LRUCache,
    caches_disabled,
    caches_enabled,
    per_object_cache,
)


# -- cache primitives -----------------------------------------------------


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        cache = LRUCache(maxsize=2)
        assert cache.lookup("a") == (False, None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.lookup("a") == (True, 1)  # refreshes "a"
        cache.put("c", 3)  # evicts "b" (least recently used)
        assert cache.lookup("b") == (False, None)
        assert cache.lookup("a") == (True, 1)
        assert cache.lookup("c") == (True, 3)
        assert cache.hits == 3 and cache.misses == 2

    def test_per_object_cache_shared_and_identity_guarded(self):
        host_a, host_b = PicardChecker(), PicardChecker()
        cache_a1 = per_object_cache(host_a, "t")
        cache_a2 = per_object_cache(host_a, "t")
        cache_b = per_object_cache(host_b, "t")
        assert cache_a1 is cache_a2
        assert cache_a1 is not cache_b
        assert per_object_cache(host_a, "other") is not cache_a1

    def test_caches_disabled_scopes_and_restores(self):
        assert caches_enabled()
        with caches_disabled():
            assert not caches_enabled()
            with caches_disabled():
                assert not caches_enabled()
            assert not caches_enabled()
        assert caches_enabled()

    def test_eviction_counter(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.evictions == 0
        cache.put("c", 3)
        cache.put("d", 4)
        assert cache.evictions == 2
        assert len(cache) == 2

    def test_purge_by_predicate(self):
        cache = LRUCache(maxsize=8)
        for db, version in [("x", 1), ("x", 2), ("y", 1)]:
            cache.put((db, version), db + str(version))
        removed = cache.purge(lambda key: key[0] == "x" and key[1] < 2)
        assert removed == 1
        assert cache.lookup(("x", 1)) == (False, None)
        assert cache.lookup(("x", 2)) == (True, "x2")
        assert cache.lookup(("y", 1)) == (True, "y1")


# -- few-shot retrieval index --------------------------------------------


def _random_corpus(rng: random.Random, size: int) -> list[tuple[str, str]]:
    words = [
        "show", "name", "count", "students", "city", "airport", "flights",
        "price", "average", "list", "order", "top", "singer", "population",
        "teacher", "book", "score", "department", "salary", "year",
    ]
    pairs = []
    for i in range(size):
        length = rng.randrange(0, 9)
        question = " ".join(rng.choice(words) for _ in range(length))
        pairs.append((question, f"SELECT {i} FROM t"))
    # Guarantee duplicates and empty questions are represented.
    if size >= 4:
        pairs[size // 2] = pairs[0]
        pairs[-1] = ("", "SELECT -1 FROM t")
    return pairs


class TestFewShotIndexEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3, 5, 20])
    def test_matches_brute_force_on_random_corpora(self, seed, k):
        rng = random.Random(seed)
        pairs = _random_corpus(rng, rng.randrange(5, 60))
        index = FewShotIndex(pairs)
        queries = [q for q, _ in pairs[:5]] + [
            "show me the average price",
            "",
            "???",  # tokenizes to the empty set
            "unrelatedzzz tokenzzz",
        ]
        seen: set[str] = set()
        for question in queries:
            expected = select_examples("similarity_fewshot", question, pairs, k)
            examples, quality, memo_hit = index.select(
                "similarity_fewshot", question, k
            )
            assert memo_hit == (question in seen)
            seen.add(question)
            assert (examples, quality) == expected
            # The memoized answer is the same object-level result.
            examples2, quality2, memo_hit2 = index.select(
                "similarity_fewshot", question, k
            )
            assert memo_hit2
            assert (examples2, quality2) == expected

    def test_manual_and_empty_corpus_fall_back(self):
        index = FewShotIndex([("a question", "SELECT 1")])
        examples, quality, memo_hit = index.select("manual_fewshot", "anything", 3)
        assert quality == MANUAL_QUALITY and len(examples) == 3 and not memo_hit
        empty = FewShotIndex([])
        examples, quality, _ = empty.select("similarity_fewshot", "anything", 3)
        assert quality == MANUAL_QUALITY
        assert (examples, quality) == select_examples(
            "similarity_fewshot", "anything", [], 3
        )

    def test_quality_uses_unrounded_similarities(self):
        # A similarity like 1/3 rounds to 0.3333; quality must use the
        # exact value, not the display rounding.
        pairs = [("alpha beta gamma", "SELECT 1")]
        index = FewShotIndex(pairs)
        examples, quality, _ = index.select("similarity_fewshot", "alpha", 1)
        sim = 1.0 / 3.0
        assert examples[0].similarity == round(sim, 4)
        assert quality == max(MANUAL_QUALITY, min(0.5 + sim, 0.95))
        assert (examples, quality) == select_examples(
            "similarity_fewshot", "alpha", pairs, 1
        )

    def test_registry_shares_index_by_content(self):
        clear_index_registry()
        pairs = [("q one", "SELECT 1"), ("q two", "SELECT 2")]
        assert index_for(pairs) is index_for(list(pairs))
        assert index_for(pairs) is not index_for(pairs[:1])

    def test_traced_zoo_pass_counts_fewshot_memo_hits(self, small_dataset):
        # Methods that share a corpus reuse each other's selections, and
        # the fewshot stage's memo_hits counter shows the reuse.
        evaluator = Evaluator(small_dataset, measure_timing=False)
        with tracing(Tracer()):
            evaluator.evaluate_zoo(
                [build_method(m) for m in ("C3SQL", "DAILSQL", "SFT CodeS-7B")]
            )
        assert stage_breakdown(evaluator.trace_spans)["fewshot"]["memo_hits"] > 0

    def test_index_pickles_by_rebuilding(self):
        import pickle

        pairs = [("q one", "SELECT 1"), ("q two", "SELECT 2")]
        index = index_for(pairs)
        clone = pickle.loads(pickle.dumps(index))
        assert clone.pairs == index.pairs
        # Memo state is not shipped; selections still agree exactly.
        ours = index.select("similarity_fewshot", "q one", 1)
        theirs = clone.select("similarity_fewshot", "q one", 1)
        assert ours[:2] == theirs[:2]


# -- decoder verdict memo ------------------------------------------------


class _CountingChecker:
    """Duck-typed PicardChecker that counts accepts() invocations."""

    def __init__(self, schema):
        self.schema = schema
        self._inner = PicardChecker(schema)
        self.calls = 0

    def accepts(self, sql: str) -> bool:
        self.calls += 1
        return self._inner.accepts(sql)


def _sampler_over(sqls: list[str]):
    def sample(draw: int, temperature: float) -> GenerationCandidate:
        return GenerationCandidate(sql=sqls[draw % len(sqls)], output_tokens=4, draw=draw)

    return sample


def _unmemoized_decode(decoder, sample, checker):
    """The plain PICARD loop: the semantics the verdict memo must preserve."""
    accepted = []
    draw = 0
    while len(accepted) < decoder.width and draw < decoder.max_attempts:
        candidate = sample(draw, 0.0 if draw == 0 else 0.15)
        draw += 1
        if checker.accepts(candidate.sql):
            accepted.append(candidate)
    return accepted


_DUPLICATE_DRAWS = [
    "SELECT * FROM airports",
    "SELECT * FROM airports",
    "SELECT name FROM airports",
    "SELECT * FROM airports",
    "SELECT city FROM airports",
]


class TestPicardDecoderVerdictMemo:
    def test_beam_composition_identical_to_unmemoized_loop(self, toy_schema):
        decoder = PicardDecoder(width=4, max_attempts=5)
        checker = _CountingChecker(toy_schema)
        accepted = decoder.decode(_sampler_over(_DUPLICATE_DRAWS), checker)
        reference = _unmemoized_decode(
            decoder, _sampler_over(_DUPLICATE_DRAWS), PicardChecker(toy_schema)
        )
        # Accepted duplicates refill beam slots exactly as without the
        # memo — they are self-consistency votes downstream, so dedupe
        # would change predictions.
        assert accepted == reference
        assert [c.sql for c in accepted].count("SELECT * FROM airports") == 3
        assert checker.calls == 2  # one per distinct sql actually drawn

    def test_identical_invalid_draws_degenerate_to_fallback(self, toy_schema):
        checker = _CountingChecker(toy_schema)
        decoder = PicardDecoder(width=4, max_attempts=10)
        accepted = decoder.decode(
            _sampler_over(["SELECT FORM nothing"]), checker
        )
        assert len(accepted) == 1
        assert accepted[0].errors == ("picard_fallback",)
        assert checker.calls == 1  # not ten times the same string

    def test_verdict_memo_shared_across_checkers(self, toy_schema):
        cache = per_object_cache(toy_schema, "picard_accepts", maxsize=2048)
        baseline_hits = cache.hits
        first = PicardChecker(toy_schema)
        second = PicardChecker(toy_schema)
        sql = "SELECT elevation FROM airports"
        assert first.accepts(sql) and second.accepts(sql)
        assert cache.hits > baseline_hits
        with caches_disabled():
            assert second.accepts(sql)  # bypasses, same verdict


# -- candidate-execution LRU ---------------------------------------------


class TestExecutorCache:
    def test_hit_returns_same_result(self, toy_db):
        sql = "SELECT COUNT(*) FROM airports"
        first = execute_sql_cached(toy_db, sql)
        second = execute_sql_cached(toy_db, sql)
        assert first is second  # served from the memo
        assert first.rows == execute_sql(toy_db, sql).rows

    def test_mutation_invalidates_via_data_version(self, toy_db):
        sql = "SELECT COUNT(*) FROM airports"
        before = execute_sql_cached(toy_db, sql)
        version = toy_db.data_version
        toy_db.insert_rows("airports", [(99, "New Field", "Zurich", 500)])
        assert toy_db.data_version == version + 1
        after = execute_sql_cached(toy_db, sql)
        assert after.rows[0][0] == before.rows[0][0] + 1

    def test_disabled_caches_bypass_the_memo(self, toy_db):
        sql = "SELECT city FROM airports"
        with caches_disabled():
            first = execute_sql_cached(toy_db, sql)
            second = execute_sql_cached(toy_db, sql)
        assert first is not second
        assert first.rows == second.rows

    def test_execute_sql_is_forced_read_only(self, toy_db):
        before = toy_db.row_count("airports")
        result = execute_sql(toy_db, "DELETE FROM airports")
        assert not result.ok
        assert "readonly" in (result.error or "").lower()
        assert toy_db.row_count("airports") == before
        # The query_only guard is scoped to the call: loading still works.
        toy_db.insert_rows("airports", [(97, "Guard Field", "Bern", 120)])
        assert toy_db.row_count("airports") == before + 1

    def test_mutating_candidate_cannot_poison_the_cache(self, toy_db):
        count_sql = "SELECT COUNT(*) FROM airports"
        first = execute_sql_cached(toy_db, count_sql)
        version = toy_db.data_version
        blocked = execute_sql_cached(toy_db, "DELETE FROM airports")
        assert not blocked.ok
        # Nothing mutated, so data_version is honest and the cached
        # result is still the true answer (and on/off paths agree:
        # the uncached path rejects the same statement identically).
        assert toy_db.data_version == version
        assert execute_sql_cached(toy_db, count_sql).rows == first.rows
        with caches_disabled():
            assert not execute_sql(toy_db, "DELETE FROM airports").ok


# -- end-to-end equivalence ----------------------------------------------


class TestCacheEquivalence:
    def test_aas_batch_identical_on_vs_off(self, small_dataset):
        examples = small_dataset.dev_examples[:10]
        config = AASConfig(population_size=4, generations=2, seed=5)
        with caches_disabled():
            uncached = run_aas(
                SearchSpace(), Evaluator(small_dataset, measure_timing=False),
                examples, config,
            )
        cached = run_aas(
            SearchSpace(), Evaluator(small_dataset, measure_timing=False),
            examples, config,
        )
        assert cached.best.fitness == uncached.best.fitness
        assert cached.best.assignment == uncached.best.assignment
        assert [
            [ind.fitness for ind in gen] for gen in cached.history
        ] == [[ind.fitness for ind in gen] for gen in uncached.history]
