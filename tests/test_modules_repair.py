"""The self-repair stage: taxonomy, pattern store, engine, and pipeline wiring.

Covers the design-space dimension end to end (docs/PIPELINE.md): the
table-driven failure taxonomy, the learned pattern store's pure-memo
contract, the rule/LM repair engine under its budget, bit-identity of
the disabled path, sequential/parallel equivalence with repair enabled,
the opt-in AAS gene, report surfacing, and trace persistence.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.design_space import (
    DEFAULT_LAYERS,
    REPAIR_LAYER,
    SearchSpace,
    layers_with_repair,
    random_config,
)
from repro.core.evaluator import Evaluator
from repro.core.logs import ExperimentLogStore
from repro.core.parallel import ParallelEvaluator
from repro.dbengine.executor import ExecutionResult
from repro.llm.model import GenerationCandidate
from repro.methods.zoo import build_method, with_repair
from repro.modules.base import PipelineConfig
from repro.modules.repair import (
    RepairClass,
    RepairPatternStore,
    classify_execution_failure,
    missing_identifier,
    rule_fixes,
    run_repair,
)
from repro.modules.repair.patterns import (
    StoredRepair,
    normalize_sql,
    schema_fingerprint,
)
from repro.obs import build_run_report, render_markdown, tracing

METHOD = "C3SQL"


def _repair_config(mode: str = "rules", budget: int = 2) -> PipelineConfig:
    return PipelineConfig(
        name="repair-test", backbone="gpt-3.5-turbo",
        repair=mode, repair_budget=budget,
    )


def _refusing_sampler(draw, temperature):
    raise AssertionError("sampler must not be consulted on this path")


# -- taxonomy ----------------------------------------------------------------


class TestTaxonomy:
    """Table-driven mapping of executor outcomes to typed classes."""

    @pytest.mark.parametrize(
        ("result", "expected"),
        [
            # Healthy executions need no repair; empty ones do.
            (ExecutionResult(rows=[(1,)]), None),
            (ExecutionResult(rows=[]), RepairClass.EMPTY_RESULT),
            # Representative SQLite error strings, captured verbatim by
            # the executor.
            (
                ExecutionResult(error="no such table: concerts"),
                RepairClass.MISSING_TABLE,
            ),
            (
                ExecutionResult(error="no such column: T1.singer_name"),
                RepairClass.MISSING_COLUMN,
            ),
            (
                ExecutionResult(error="ambiguous column name: name"),
                RepairClass.MISSING_COLUMN,
            ),
            (
                ExecutionResult(error="datatype mismatch"),
                RepairClass.TYPE_MISMATCH,
            ),
            (
                ExecutionResult(error='near "FORM": syntax error'),
                RepairClass.SYNTAX_ERROR,
            ),
            (
                ExecutionResult(error="incomplete input"),
                RepairClass.SYNTAX_ERROR,
            ),
            (
                ExecutionResult(error='unrecognized token: "@"'),
                RepairClass.SYNTAX_ERROR,
            ),
            # The executor prefixes interrupted queries with "timeout:".
            (
                ExecutionResult(error="timeout: interrupted after 2000ms"),
                RepairClass.TIMEOUT,
            ),
            # Anything unrecognized falls back rather than raising.
            (
                ExecutionResult(error="database disk image is malformed"),
                RepairClass.UNKNOWN_ERROR,
            ),
            (ExecutionResult(error=""), RepairClass.UNKNOWN_ERROR),
        ],
    )
    def test_classification_table(self, result, expected):
        assert classify_execution_failure(result) is expected

    def test_classification_is_case_insensitive(self):
        result = ExecutionResult(error="NO SUCH TABLE: Concerts")
        assert classify_execution_failure(result) is RepairClass.MISSING_TABLE

    @pytest.mark.parametrize(
        ("error", "expected"),
        [
            ("no such table: concerts", "concerts"),
            ("no such column: T1.singer_name", "singer_name"),
            ("ambiguous column name: name", "name"),
            ('near "FORM": syntax error', None),
            ("no such column:", None),
            (None, None),
        ],
    )
    def test_missing_identifier(self, error, expected):
        assert missing_identifier(error) == expected


# -- pattern store -----------------------------------------------------------


def _stored(sql: str = "SELECT 1", **overrides) -> StoredRepair:
    base = dict(
        final=GenerationCandidate(sql=sql, output_tokens=3),
        recovered=True, attempts=1, llm_calls=0, output_tokens=0,
        source="rule",
    )
    base.update(overrides)
    return StoredRepair(**base)


class TestPatternStore:
    def test_key_is_deterministic_and_whitespace_normalized(self, toy_db):
        store = RepairPatternStore()
        key = store.key(
            RepairClass.MISSING_TABLE, toy_db, "SELECT * FROM flight", "q"
        )
        same = store.key(
            RepairClass.MISSING_TABLE, toy_db, "SELECT  *\n FROM   flight", "q"
        )
        assert key == same
        assert key[0] == "missing_table"
        other_class = store.key(
            RepairClass.MISSING_COLUMN, toy_db, "SELECT * FROM flight", "q"
        )
        other_prompt = store.key(
            RepairClass.MISSING_TABLE, toy_db, "SELECT * FROM flight", "q2"
        )
        assert key != other_class and key != other_prompt

    def test_schema_fingerprint_ignores_db_id(self, toy_schema):
        renamed = replace(toy_schema, db_id="another_database")
        assert schema_fingerprint(toy_schema) == schema_fingerprint(renamed)

    def test_normalize_sql(self):
        assert normalize_sql("SELECT  * \n FROM t") == "SELECT * FROM t"

    def test_lookup_learn_and_stats(self, toy_db):
        store = RepairPatternStore()
        key = store.key(RepairClass.SYNTAX_ERROR, toy_db, "SELECT *", "q")
        assert store.lookup(key) is None
        stored = _stored()
        store.learn(key, stored)
        assert store.lookup(key) == stored
        assert len(store) == 1
        assert store.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "learned": 1, "evictions": 0,
        }

    def test_lru_eviction(self, toy_db):
        store = RepairPatternStore(maxsize=2)
        keys = [
            store.key(RepairClass.SYNTAX_ERROR, toy_db, f"SELECT {n}", "q")
            for n in range(3)
        ]
        store.learn(keys[0], _stored("SELECT 0"))
        store.learn(keys[1], _stored("SELECT 1"))
        store.lookup(keys[0])                 # refresh 0; 1 becomes LRU
        store.learn(keys[2], _stored("SELECT 2"))
        assert store.lookup(keys[1]) is None  # evicted
        assert store.lookup(keys[0]) is not None
        assert store.lookup(keys[2]) is not None
        assert store.stats()["evictions"] == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            RepairPatternStore(maxsize=0)


# -- rule fixes --------------------------------------------------------------


class TestRuleFixes:
    def test_syntax_fixes_keyword_and_trailing_junk(self, toy_schema):
        fixes = rule_fixes(
            "SELECT * FORM airports", RepairClass.SYNTAX_ERROR,
            'near "FORM": syntax error', toy_schema,
        )
        assert "SELECT * FROM airports" in fixes
        fixes = rule_fixes(
            "SELECT city FROM airports WHERE", RepairClass.SYNTAX_ERROR,
            "incomplete input", toy_schema,
        )
        assert "SELECT city FROM airports" in fixes

    def test_missing_table_uses_closest_schema_name(self, toy_schema):
        fixes = rule_fixes(
            "SELECT * FROM airport", RepairClass.MISSING_TABLE,
            "no such table: airport", toy_schema,
        )
        assert fixes and fixes[0] == "SELECT * FROM airports"

    def test_missing_column_uses_closest_schema_name(self, toy_schema):
        fixes = rule_fixes(
            "SELECT cty FROM airports", RepairClass.MISSING_COLUMN,
            "no such column: cty", toy_schema,
        )
        assert fixes and fixes[0] == "SELECT city FROM airports"

    @pytest.mark.parametrize(
        "error_class",
        [
            RepairClass.TYPE_MISMATCH, RepairClass.TIMEOUT,
            RepairClass.EMPTY_RESULT, RepairClass.UNKNOWN_ERROR,
        ],
    )
    def test_classes_without_mechanical_rewrites(self, toy_schema, error_class):
        assert rule_fixes("SELECT 1", error_class, "x", toy_schema) == []

    def test_never_echoes_the_input(self, toy_schema):
        fixes = rule_fixes(
            "SELECT * FROM airports", RepairClass.SYNTAX_ERROR,
            "syntax error", toy_schema,
        )
        assert "SELECT * FROM airports" not in fixes


# -- the engine --------------------------------------------------------------


class TestRunRepair:
    def test_healthy_candidate_is_untouched(self, toy_db):
        final = GenerationCandidate(sql="SELECT city FROM airports",
                                    output_tokens=5)
        outcome = run_repair(
            final, toy_db, sampler=_refusing_sampler,
            config=_repair_config(), store=RepairPatternStore(),
            prompt_text="q",
        )
        assert not outcome.attempted
        assert outcome.error_class is None
        assert outcome.final is final
        assert outcome.attempts == 0

    def test_rule_recovery_costs_no_llm_calls(self, toy_db):
        broken = GenerationCandidate(sql="SELECT * FORM airports",
                                     output_tokens=5)
        outcome = run_repair(
            broken, toy_db, sampler=_refusing_sampler,
            config=_repair_config("rules"), store=RepairPatternStore(),
            prompt_text="q",
        )
        assert outcome.recovered and outcome.source == "rule"
        assert outcome.error_class is RepairClass.SYNTAX_ERROR
        assert outcome.final.sql == "SELECT * FROM airports"
        assert outcome.llm_calls == 0 and outcome.output_tokens == 0
        assert outcome.attempts == 1

    def test_rules_mode_never_draws_even_when_rules_fail(self, toy_db):
        broken = GenerationCandidate(sql="SELECT FROM mystery_relation (",
                                     output_tokens=5)
        outcome = run_repair(
            broken, toy_db, sampler=_refusing_sampler,
            config=_repair_config("rules", budget=3),
            store=RepairPatternStore(), prompt_text="q",
        )
        assert not outcome.recovered
        assert outcome.llm_calls == 0
        assert outcome.final is broken

    def test_lm_fallback_is_bounded_by_budget(self, toy_db):
        draws = []

        def failing_sampler(draw, temperature):
            draws.append((draw, temperature))
            return GenerationCandidate(sql="SELECT nope FROM nowhere",
                                       output_tokens=4)

        broken = GenerationCandidate(sql="SELECT mystery()", output_tokens=5)
        outcome = run_repair(
            broken, toy_db, sampler=failing_sampler,
            config=_repair_config("pattern_lm", budget=3),
            store=RepairPatternStore(), prompt_text="q",
        )
        assert not outcome.recovered and outcome.source == "none"
        # No rule fixes for this class, so the whole budget goes to draws
        # on the dedicated stream (disjoint from decode draws 0..9).
        assert outcome.attempts == 3 and outcome.llm_calls == 3
        assert [d for d, _ in draws] == [211, 212, 213]
        assert all(t == pytest.approx(0.15) for _, t in draws)
        assert outcome.output_tokens == 12
        assert outcome.final is broken

    def test_lm_recovery_stops_spending(self, toy_db):
        def sampler(draw, temperature):
            return GenerationCandidate(sql="SELECT name FROM airports",
                                       output_tokens=6)

        broken = GenerationCandidate(sql="SELECT mystery()", output_tokens=5)
        outcome = run_repair(
            broken, toy_db, sampler=sampler,
            config=_repair_config("pattern_lm", budget=3),
            store=RepairPatternStore(), prompt_text="q",
        )
        assert outcome.recovered and outcome.source == "lm"
        assert outcome.attempts == 1 and outcome.llm_calls == 1
        assert outcome.final.sql == "SELECT name FROM airports"

    def test_empty_result_repair_requires_rows(self, toy_db):
        # The replacement candidate executes fine but is still empty: for
        # the EMPTY_RESULT class that is not a recovery.
        def still_empty(draw, temperature):
            return GenerationCandidate(
                sql="SELECT city FROM airports WHERE elevation > 99999",
                output_tokens=4,
            )

        empty = GenerationCandidate(
            sql="SELECT city FROM airports WHERE city = 'Nowhereville'",
            output_tokens=4,
        )
        outcome = run_repair(
            empty, toy_db, sampler=still_empty,
            config=_repair_config("pattern_lm", budget=2),
            store=RepairPatternStore(), prompt_text="q",
        )
        assert outcome.error_class is RepairClass.EMPTY_RESULT
        assert not outcome.recovered
        assert outcome.attempts == 2

    def test_pattern_store_replays_with_identical_accounting(self, toy_db):
        store = RepairPatternStore()
        broken = GenerationCandidate(sql="SELECT * FORM airports",
                                     output_tokens=5)
        cold = run_repair(
            broken, toy_db, sampler=_refusing_sampler,
            config=_repair_config("rules"), store=store, prompt_text="q",
        )
        warm = run_repair(
            broken, toy_db, sampler=_refusing_sampler,
            config=_repair_config("rules"), store=store, prompt_text="q",
        )
        assert not cold.pattern_hit and warm.pattern_hit
        assert warm.final == cold.final
        assert (warm.recovered, warm.attempts, warm.llm_calls,
                warm.output_tokens, warm.source) == (
            cold.recovered, cold.attempts, cold.llm_calls,
            cold.output_tokens, cold.source)
        assert store.stats()["hits"] == 1

    def test_unrecoverable_outcomes_are_learned_too(self, toy_db):
        # A repeat of a hopeless failure replays the exhausted budget
        # instead of silently becoming cheaper.
        calls = []

        def failing_sampler(draw, temperature):
            calls.append(draw)
            return GenerationCandidate(sql="SELECT mystery()", output_tokens=4)

        store = RepairPatternStore()
        broken = GenerationCandidate(sql="SELECT impossible()", output_tokens=5)
        kwargs = dict(config=_repair_config("pattern_lm", budget=2),
                      store=store, prompt_text="q")
        cold = run_repair(broken, toy_db, sampler=failing_sampler, **kwargs)
        assert not cold.recovered and len(calls) == 2
        warm = run_repair(broken, toy_db, sampler=_refusing_sampler, **kwargs)
        assert warm.pattern_hit and not warm.recovered
        assert warm.attempts == cold.attempts == 2
        assert warm.llm_calls == cold.llm_calls == 2


# -- pipeline wiring ---------------------------------------------------------


def _predict_all(method, dataset):
    out = []
    for example in dataset.dev_examples:
        database = dataset.database(example.db_id)
        out.append(method.predict(example, database))
    return out


class TestPipelineWiring:
    def test_with_repair_clones_only_repair_fields(self):
        base = build_method(METHOD)
        clone = with_repair(base, mode="pattern_lm", budget=3)
        assert clone.config.repair == "pattern_lm"
        assert clone.config.repair_budget == 3
        assert clone.seed == base.seed and clone.group == base.group
        assert clone.config.with_(repair=None, repair_budget=2) == base.config
        assert base.config.repair is None      # original untouched

    def test_disabled_path_is_bit_identical_and_stage_free(self, small_dataset):
        plain = build_method(METHOD)
        plain.prepare(small_dataset)
        again = build_method(METHOD)
        again.prepare(small_dataset)
        assert _predict_all(plain, small_dataset) == \
            _predict_all(again, small_dataset)
        with tracing() as tracer:
            with tracer.example(plain.name, "e0"):
                example = small_dataset.dev_examples[0]
                plain.predict(example, small_dataset.database(example.db_id))
            spans = tracer.drain()
        assert all(s.stage != "repair" for sp in spans for s in sp.stages)

    def test_enabled_method_emits_repair_spans_and_counters(self, small_dataset):
        method = with_repair(build_method(METHOD))
        method.prepare(small_dataset)
        with tracing() as tracer:
            for example in small_dataset.dev_examples:
                database = small_dataset.database(example.db_id)
                with tracer.example(method.name, example.example_id):
                    method.predict(example, database)
            spans = tracer.drain()
        repair_stages = [
            s for sp in spans for s in sp.stages if s.stage == "repair"
        ]
        assert len(repair_stages) == len(small_dataset.dev_examples)
        attempts = sum(s.counters.get("repair_attempts", 0) for s in repair_stages)
        recovered = sum(
            s.counters.get("repair_recovered", 0) for s in repair_stages
        )
        assert attempts > 0, "the dev split must exercise the repair path"
        assert 0 <= recovered <= attempts

    def test_cold_and_warm_runs_are_bit_identical(self, small_dataset):
        method = with_repair(build_method(METHOD))
        method.prepare(small_dataset)

        def traced_pass():
            with tracing() as tracer:
                for example in small_dataset.dev_examples:
                    database = small_dataset.database(example.db_id)
                    with tracer.example(method.name, example.example_id):
                        method.predict(example, database)
                return tracer.drain()

        cold_spans = traced_pass()
        warm_spans = traced_pass()        # second pass replays the store
        assert [s.structure() for s in warm_spans] == \
            [s.structure() for s in cold_spans]
        warm_hits = sum(
            s.counters.get("repair_pattern_hits", 0)
            for sp in warm_spans
            for s in sp.stages
        )
        assert warm_hits > 0, "warm pass must be served by the pattern store"
        fresh = with_repair(build_method(METHOD))
        fresh.prepare(small_dataset)
        assert _predict_all(fresh, small_dataset) == \
            _predict_all(method, small_dataset)

    def test_sequential_parallel_equivalence_with_repair(self, small_dataset):
        method = with_repair(build_method(METHOD))
        evaluator = Evaluator(small_dataset, measure_timing=False)
        with tracing() as seq_tracer:
            seq_report = evaluator.evaluate_method(method)
        with tracing() as par_tracer:
            with ParallelEvaluator(
                small_dataset, measure_timing=False, jobs=2
            ) as engine:
                par_report = engine.evaluate_method(
                    with_repair(build_method(METHOD))
                )
                assert engine.stats.parallel_tasks > 0
        assert [r.ex for r in par_report.records] == \
            [r.ex for r in seq_report.records]
        seq = build_run_report(
            seq_report.records, spans=evaluator.trace_spans,
            metrics=seq_tracer.metrics, dataset=small_dataset.name,
        )
        par = build_run_report(
            par_report.records, spans=engine.trace_spans,
            metrics=par_tracer.metrics, dataset=small_dataset.name,
        )
        assert seq.repair["repair_attempts"] > 0
        assert par.equivalence_key() == seq.equivalence_key()
        assert [s.structure() for s in engine.trace_spans] == \
            [s.structure() for s in evaluator.trace_spans]


# -- AAS gene ----------------------------------------------------------------


class TestRepairGene:
    def test_default_layers_stay_repair_free(self):
        assert "repair" not in DEFAULT_LAYERS
        layers = layers_with_repair()
        assert layers["repair"] == REPAIR_LAYER == (None, "rules", "pattern_lm")
        assert {k: v for k, v in layers.items() if k != "repair"} == \
            dict(DEFAULT_LAYERS)

    def test_search_space_can_select_the_gene(self):
        space = SearchSpace(layers=layers_with_repair())
        rng = random.Random(7)
        seen = set()
        for n in range(64):
            config = random_config(space, rng, f"indiv-{n}")
            seen.add(config.repair)
        assert seen == {None, "rules", "pattern_lm"}

    def test_sampled_repair_config_is_runnable(self, small_dataset):
        space = SearchSpace(layers=layers_with_repair())
        rng = random.Random(3)
        config = None
        for n in range(64):
            candidate = random_config(space, rng, f"indiv-{n}")
            if candidate.repair == "pattern_lm":
                config = candidate
                break
        assert config is not None
        assignment = {"repair": "rules"}
        assert space.to_config("x", assignment).repair == "rules"
        from repro.methods.base import MethodGroup, PipelineMethod
        method = PipelineMethod(config, MethodGroup.PROMPT_LLM)
        method.prepare(small_dataset)
        example = small_dataset.dev_examples[0]
        prediction = method.predict(
            example, small_dataset.database(example.db_id)
        )
        assert prediction.sql


# -- reporting and persistence ----------------------------------------------


class TestRepairReporting:
    @pytest.fixture(scope="class")
    def repair_run(self, small_dataset):
        method = with_repair(build_method(METHOD))
        evaluator = Evaluator(small_dataset, measure_timing=False)
        with tracing() as tracer:
            report = evaluator.evaluate_method(method)
        return report, evaluator.trace_spans, tracer.metrics

    def test_report_surfaces_repair_counters(self, small_dataset, repair_run):
        report, spans, metrics = repair_run
        run_report = build_run_report(
            report.records, spans=spans, metrics=metrics,
            dataset=small_dataset.name,
        )
        repair = run_report.repair
        assert repair["repair_examples"] == len(small_dataset.dev_examples)
        assert repair["repair_attempts"] > 0
        assert repair["repair_recovered"] >= 0
        markdown = render_markdown(run_report)
        assert "## Self-repair" in markdown
        assert f"repair attempts: {repair['repair_attempts']}" in markdown
        # Metrics registry carries the same series.
        counter_names = {
            counter["name"] for counter in metrics.as_dict()["counters"]
        }
        assert "repair_attempts" in counter_names

    def test_pattern_hits_excluded_from_equivalence(self, small_dataset,
                                                    repair_run):
        report, spans, metrics = repair_run
        base = build_run_report(
            report.records, spans=spans, metrics=metrics,
            dataset=small_dataset.name,
        )
        shifted = replace(
            base, repair={**base.repair,
                          "repair_pattern_hits":
                              base.repair["repair_pattern_hits"] + 17},
        )
        assert shifted.equivalence_key() == base.equivalence_key()
        perturbed = replace(
            base, repair={**base.repair,
                          "repair_attempts":
                              base.repair["repair_attempts"] + 1},
        )
        assert perturbed.equivalence_key() != base.equivalence_key()

    def test_disabled_run_renders_disabled_note(self, small_dataset):
        method = build_method(METHOD)
        evaluator = Evaluator(small_dataset, measure_timing=False)
        with tracing() as tracer:
            report = evaluator.evaluate_method(method)
        run_report = build_run_report(
            report.records, spans=evaluator.trace_spans,
            metrics=tracer.metrics, dataset=small_dataset.name,
        )
        assert run_report.repair["repair_examples"] == 0
        assert "_Repair disabled" in render_markdown(run_report)

    def test_trace_persistence_round_trips_repair_fields(self, small_dataset,
                                                         repair_run):
        report, spans, _ = repair_run
        with ExperimentLogStore() as store:
            run_id = store.store_records(small_dataset.name, report.records)
            store.store_trace(run_id, spans)
            loaded = store.load_trace(run_id)
        assert loaded == spans
        loaded_stages = [
            s for sp in loaded for s in sp.stages if s.stage == "repair"
        ]
        assert sum(
            s.counters.get("repair_attempts", 0) for s in loaded_stages
        ) > 0
