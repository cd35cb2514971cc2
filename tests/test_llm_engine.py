"""Tests for the inference engine layer (repro.llm.engine).

The load-bearing property is bit-exactness: the prompt-prefix cache must
assemble byte-identical prompts with exact summed token counts (cold,
warm, and with caches disabled), and the batched decode path
(``generate_many`` / ``BoundSampler.many`` / the serving decode window)
must produce candidate streams identical to per-draw ``generate`` calls,
the reference it replaces: for every decoder, and for whole zoo runs
with ``BoundSampler.many`` patched to the per-draw loop.  The process
pool is checked here over the four decoder methods; every execution
mode and both cache settings in ``tests/test_mode_identity.py``.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import Evaluator
from repro.core.parallel import ParallelEvaluator
from repro.llm.decoding import (
    BeamDecoder,
    BoundSampler,
    GreedyDecoder,
    PicardDecoder,
    SamplingDecoder,
    make_sampler,
)
from repro.llm.engine import (
    PromptPrefixCache,
    PromptSegment,
    clear_prefix_cache,
    current_decode_window,
    decode_window,
    prefix_cache,
)
from repro.llm.model import SimulatedLanguageModel
from repro.llm.prompt import Prompt
from repro.llm.registry import get_profile
from repro.llm.tokens import count_tokens
from repro.methods.zoo import build_method
from repro.modules.base import PipelineConfig
from repro.modules.prompts import build_prompt
from repro.obs.trace import Tracer, tracing
from repro.schema.model import Column, ColumnType, DatabaseSchema, Table
from repro.serve import ServeConfig, ServingEngine, WorkloadSpec, build_workload
from repro.serve.scheduler import DecodeScheduler
from repro.sqlkit.picard import PicardChecker
from repro.utils.cache import caches_disabled

# Methods covering all four decode paths: greedy (DAILSQL), sampling
# (DAILSQL(SC) self-consistency), beam (BRIDGE v2), picard (T5-3B).
METHODS = ["DAILSQL", "DAILSQL(SC)", "BRIDGE v2", "T5-3B + PICARD"]

PROMPT_CONFIGS = [
    PipelineConfig(
        name="plain", backbone="gpt-4",
        prompting="similarity_fewshot", few_shot_k=3,
    ),
    PipelineConfig(
        name="linked", backbone="gpt-3.5-turbo", schema_linking="resdsql",
        db_content="bridge", prompting="manual_fewshot", few_shot_k=2,
        prompt_overhead_tokens=120,
    ),
    PipelineConfig(
        name="open", backbone="llama2-7b", db_content="codes",
        prompting="zero_shot",
    ),
]

# (draw, temperature) pairs exercising every decoder's draw pattern plus
# the repair engine's high-draw re-draws.
DRAWS = [(0, 0.0), (1, 0.15), (2, 0.15), (3, 0.5), (4, 0.5), (101, 0.0)]


def _per_draw_many(sampler, draws):
    """The reference batched decoding must match: one ``generate`` per draw."""
    return [sampler(draw, temperature) for draw, temperature in draws]


@pytest.fixture()
def per_draw_decoding(monkeypatch):
    """Route every decoder's batch through ``_per_draw_many``."""
    monkeypatch.setattr(BoundSampler, "many", _per_draw_many)


def build_dev_prompts(dataset, config, limit=8):
    train_pairs = [(e.question, e.gold_sql) for e in dataset.train_examples[:20]]
    return [
        (build_prompt(config, dataset.databases[e.db_id], e.question, train_pairs),
         dataset.databases[e.db_id])
        for e in dataset.dev_examples[:limit]
    ]


class TestPromptPrefixCache:
    def test_segment_hit_after_miss(self):
        cache = PromptPrefixCache()
        segment, hit = cache.segment("schema", ("db", 0), lambda: "CREATE\n\n")
        assert not hit
        assert segment == PromptSegment(text="CREATE\n\n", tokens=count_tokens("CREATE\n\n"))
        again, hit = cache.segment("schema", ("db", 0), lambda: "CREATE\n\n")
        assert hit
        assert again is segment
        stats = cache.stats()
        assert stats["schema"]["hits"] == 1
        assert stats["schema"]["misses"] == 1

    def test_caches_disabled_renders_fresh(self):
        cache = PromptPrefixCache()
        cache.segment("schema", ("db", 0), lambda: "A\n")
        with caches_disabled():
            segment, hit = cache.segment("schema", ("db", 0), lambda: "A\n")
            assert not hit
        assert segment.text == "A\n"

    def test_unknown_kind_rejected(self):
        cache = PromptPrefixCache()
        with pytest.raises(KeyError):
            cache.segment("nope", ("k",), lambda: "x")

    def test_build_prompt_byte_identical_cold_warm_disabled(self, small_dataset):
        clear_prefix_cache()
        cold = {}
        for config in PROMPT_CONFIGS:
            for prompt, _ in build_dev_prompts(small_dataset, config):
                cold[(config.name, prompt.question)] = prompt.text
        for config in PROMPT_CONFIGS:  # warm pass
            for prompt, _ in build_dev_prompts(small_dataset, config):
                assert prompt.text == cold[(config.name, prompt.question)]
        with caches_disabled():
            for config in PROMPT_CONFIGS:
                for prompt, _ in build_dev_prompts(small_dataset, config):
                    assert prompt.text == cold[(config.name, prompt.question)]

    def test_warm_pass_hits_every_segment(self, small_dataset):
        clear_prefix_cache()
        config = PROMPT_CONFIGS[1]
        build_dev_prompts(small_dataset, config)
        before = prefix_cache().stats()
        build_dev_prompts(small_dataset, config)
        after = prefix_cache().stats()
        for kind in ("overhead", "schema", "fewshot"):
            assert after[kind]["misses"] == before[kind]["misses"]
            assert after[kind]["hits"] > before[kind]["hits"]

    def test_prefix_counters_reach_spans(self, small_dataset):
        clear_prefix_cache()
        config = PROMPT_CONFIGS[0]
        example = small_dataset.dev_examples[0]
        database = small_dataset.databases[example.db_id]
        train_pairs = [(e.question, e.gold_sql) for e in small_dataset.train_examples]
        with tracing(Tracer()) as tracer:
            with tracer.example("m", example.example_id):
                build_prompt(config, database, example.question, train_pairs)
            with tracer.example("m", example.example_id):
                build_prompt(config, database, example.question, train_pairs)
        first, second = tracer.drain()
        assert sum(s.counters.get("prefix_misses", 0) for s in first.stages) > 0
        assert sum(s.counters.get("prefix_misses", 0) for s in second.stages) == 0
        assert sum(s.counters.get("prefix_hits", 0) for s in second.stages) > 0


class TestPromptTokenCount:
    def test_primed_count_matches_full_scan(self, small_dataset):
        clear_prefix_cache()
        for config in PROMPT_CONFIGS:
            for prompt, _ in build_dev_prompts(small_dataset, config):
                assert "token_count" in prompt.__dict__  # primed, not scanned
                assert prompt.token_count == count_tokens(prompt.text)

    def test_primed_count_matches_with_caches_disabled(self, small_dataset):
        with caches_disabled():
            for prompt, _ in build_dev_prompts(small_dataset, PROMPT_CONFIGS[1]):
                assert prompt.token_count == count_tokens(prompt.text)

    def test_lazy_count_computed_once(self):
        prompt = Prompt(text="SELECT a FROM b", question="q", db_id="d")
        assert "token_count" not in prompt.__dict__
        assert prompt.token_count == count_tokens("SELECT a FROM b")
        assert "token_count" in prompt.__dict__

    def test_prime_seeds_cache(self):
        prompt = Prompt(text="SELECT a FROM b", question="q", db_id="d")
        prompt.prime_token_count(123)
        assert prompt.token_count == 123


class TestGenerateManyEquivalence:
    @pytest.mark.parametrize("profile_name", ["gpt-4", "llama2-7b", "t5-base"])
    def test_batched_matches_sequential(self, small_dataset, profile_name):
        model = SimulatedLanguageModel(get_profile(profile_name), seed=42)
        for prompt, database in build_dev_prompts(small_dataset, PROMPT_CONFIGS[0]):
            sequential = [
                model.generate(prompt, database, temperature=t, draw=d)
                for d, t in DRAWS
            ]
            batched = model.generate_many(prompt, database, DRAWS)
            assert batched == sequential

    def test_batched_matches_sequential_with_options(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-3.5-turbo"), seed=7)
        options = dict(
            uses_natsql=True, decomposed=True, overdecompose=False,
            style_divergence=0.4,
        )
        for prompt, database in build_dev_prompts(small_dataset, PROMPT_CONFIGS[1]):
            sequential = [
                model.generate(prompt, database, temperature=t, draw=d, **options)
                for d, t in DRAWS
            ]
            assert model.generate_many(prompt, database, DRAWS, **options) == sequential

    def test_batched_matches_sequential_caches_off(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        with caches_disabled():
            for prompt, database in build_dev_prompts(
                small_dataset, PROMPT_CONFIGS[2], limit=4
            ):
                sequential = [
                    model.generate(prompt, database, temperature=t, draw=d)
                    for d, t in DRAWS
                ]
                assert model.generate_many(prompt, database, DRAWS) == sequential

    def test_empty_draw_list(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])
        assert model.generate_many(prompt, database, []) == []


class TestDecoderEquivalence:
    """Every decoder yields identical candidates batched vs per draw.

    A plain function is drawn once per call (``_draw_many``), so the
    same decoder over ``lambda d, t: sampler(d, t)`` is the per-draw
    reference.
    """

    @pytest.fixture()
    def samplers(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("t5-base"), seed=42)
        return [
            (make_sampler(model, prompt, database), database)
            for prompt, database in build_dev_prompts(
                small_dataset, PROMPT_CONFIGS[0], limit=6
            )
        ]

    @pytest.mark.parametrize(
        "decoder",
        [GreedyDecoder(), BeamDecoder(width=4), SamplingDecoder(num_samples=5)],
        ids=["greedy", "beam", "sampling"],
    )
    def test_unconstrained_decoders(self, samplers, decoder, small_dataset):
        for sampler, _ in samplers:
            per_draw = decoder.decode(lambda d, t: sampler(d, t))
            assert decoder.decode(sampler) == per_draw

    def test_picard_decoder(self, samplers):
        for sampler, database in samplers:
            checker = PicardChecker(database.schema)
            decoder = PicardDecoder(width=4, max_attempts=10)
            per_draw = decoder.decode(lambda d, t: sampler(d, t), checker)
            assert decoder.decode(sampler, checker) == per_draw

    def test_plain_function_samplers_still_work(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])

        def sample(draw, temperature):
            return model.generate(prompt, database, temperature=temperature, draw=draw)

        bound = make_sampler(model, prompt, database)
        assert BeamDecoder(width=3).decode(sample) == BeamDecoder(width=3).decode(bound)


class TestPicardFallbackTokens:
    def test_fallback_bills_actual_token_count(self, small_dataset):
        # A checker over a schema with long identifiers rejects every toy
        # candidate, forcing the guaranteed-valid fallback; its billed
        # output tokens must be the real count of the fallback SQL, not a
        # hardcoded constant.
        long_schema = DatabaseSchema(
            db_id="terminal_ops",
            tables=[
                Table(
                    name="international_airport_terminal_gate_assignments",
                    columns=[
                        Column("assignment_identifier", ColumnType.INTEGER,
                               is_primary_key=True),
                        Column("gate_designation_code", ColumnType.TEXT),
                    ],
                )
            ],
            foreign_keys=[],
            domain="flights",
        )
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])
        sampler = make_sampler(model, prompt, database)
        (candidate,) = PicardDecoder(width=2, max_attempts=3).decode(
            sampler, PicardChecker(long_schema)
        )
        assert candidate.errors == ("picard_fallback",)
        assert candidate.sql == (
            "SELECT * FROM international_airport_terminal_gate_assignments"
        )
        assert candidate.output_tokens == count_tokens(candidate.sql)
        assert candidate.output_tokens > 4  # the old hardcoded constant


class TestExecutionModeEquivalence:
    """Per-draw and process-pool zoo runs equal the batched
    sequential run."""

    @pytest.fixture(scope="class")
    def sequential_reports(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        return evaluator.evaluate_zoo([build_method(m) for m in METHODS])

    @pytest.fixture()
    def per_draw_reports(self, small_dataset, per_draw_decoding):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        return evaluator.evaluate_zoo([build_method(m) for m in METHODS])

    def test_batching_off_matches_on(self, sequential_reports, per_draw_reports):
        for name in METHODS:
            assert per_draw_reports[name].records == sequential_reports[name].records

    def test_economy_identical_across_switch(
        self, sequential_reports, per_draw_reports
    ):
        for name in METHODS:
            batched = sequential_reports[name].records
            unbatched = per_draw_reports[name].records
            assert sum(r.input_tokens for r in batched) == (
                sum(r.input_tokens for r in unbatched)
            )
            assert sum(r.output_tokens for r in batched) == (
                sum(r.output_tokens for r in unbatched)
            )
            assert sum(r.cost_usd for r in batched) == (
                sum(r.cost_usd for r in unbatched)
            )

    def test_process_pool_matches_sequential(self, small_dataset, sequential_reports):
        with ParallelEvaluator(small_dataset, measure_timing=False, jobs=2) as engine:
            reports = engine.evaluate_zoo([build_method(m) for m in METHODS])
            assert engine.stats.parallel_tasks > 0
        for name in METHODS:
            assert reports[name].records == sequential_reports[name].records


class TestDecodeScheduler:
    class _StubSampler:
        def generate_batch(self, draws):
            return [f"cand-{d}-{t}" for d, t in draws]

    def test_window_routes_and_counts(self):
        scheduler = DecodeScheduler()
        sampler = self._StubSampler()
        with scheduler.window(batch_size=3) as window:
            assert current_decode_window() is window
            assert window.submit(sampler, [(0, 0.0), (1, 0.15)]) == [
                "cand-0-0.0", "cand-1-0.15"
            ]
        assert current_decode_window() is None
        assert scheduler.stats.windows == 1
        assert scheduler.stats.submissions == 1
        assert scheduler.stats.draws == 2
        assert scheduler.stats.max_submission == 2
        assert scheduler.stats_dict()["draws"] == 2

    def test_decode_window_nests_and_restores(self):
        outer, inner = object(), object()
        with decode_window(outer):
            assert current_decode_window() is outer
            with decode_window(inner):
                assert current_decode_window() is inner
            assert current_decode_window() is outer
        assert current_decode_window() is None

    def test_serving_engine_opens_windows(self, small_dataset):
        method = "BRIDGE v2"
        workload = build_workload(
            small_dataset,
            WorkloadSpec(
                requests=12, methods=(method,), distinct_examples=6,
                zipf_s=1.1, seed=3,
            ),
        )
        served = build_method(method, seed=0)
        served.prepare(small_dataset)
        config = ServeConfig(methods=(method,), workers=2)
        with tracing(Tracer()) as tracer:
            with ServingEngine(
                small_dataset, config, methods={method: served}
            ) as engine:
                for response in engine.serve(list(workload)):
                    assert response.ok, response.error
                stats = engine.stats
        assert stats.decode_windows > 0
        assert stats.decode_submissions > 0
        assert stats.decode_draws >= stats.decode_submissions
        assert stats.decode_max_submission >= 1
        assert tracer.metrics.counter_total("serve_decode_windows") > 0
        assert tracer.metrics.counter_total("serve_decode_draws") == (
            stats.decode_draws
        )


class TestBatchCountersInSpans:
    def test_decode_stage_carries_batch_counters(self, small_dataset):
        method = build_method("BRIDGE v2", seed=0)
        method.prepare(small_dataset)
        evaluator = Evaluator(small_dataset, measure_timing=False)
        example = small_dataset.dev_examples[0]
        with tracing(Tracer()) as tracer:
            evaluator.evaluate_example(method, example)
        (span,) = tracer.drain()
        decode = next(s for s in span.stages if s.stage == "decode")
        batched_calls = decode.counters.get("llm_batched_calls", 0)
        batch_draws = decode.counters.get("llm_batch_draws", 0)
        assert batched_calls == 1
        assert batch_draws >= batched_calls
        assert decode.llm_calls == batch_draws

    def test_one_batched_call_per_decode_for_every_decoder(self, small_dataset):
        # Each example's draws go through exactly one batched call;
        # repair and PICARD top-ups take the unbatched path, so the count
        # is exact, not a lower bound.
        evaluator = Evaluator(small_dataset, measure_timing=False)
        with tracing(Tracer()):
            evaluator.evaluate_zoo([build_method(m) for m in METHODS])
        spans = evaluator.trace_spans
        assert len(spans) == len(METHODS) * len(small_dataset.dev_examples)
        for span in spans:
            calls = sum(s.counters.get("llm_batched_calls", 0) for s in span.stages)
            draws = sum(s.counters.get("llm_batch_draws", 0) for s in span.stages)
            assert calls == 1, (span.method, span.example_id)
            assert draws >= 1

    def test_no_batch_counters_when_disabled(self, small_dataset, per_draw_decoding):
        method = build_method("BRIDGE v2", seed=0)
        method.prepare(small_dataset)
        evaluator = Evaluator(small_dataset, measure_timing=False)
        example = small_dataset.dev_examples[0]
        with tracing(Tracer()) as tracer:
            evaluator.evaluate_example(method, example)
        (span,) = tracer.drain()
        for stage in span.stages:
            assert "llm_batched_calls" not in stage.counters
            assert "llm_batch_draws" not in stage.counters
