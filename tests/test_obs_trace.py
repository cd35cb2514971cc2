"""Unit tests for repro.obs: tracer, metrics registry, failure taxonomy."""

import pickle
import threading

import pytest

from repro.core.taxonomy import (
    CORRUPTION_FAMILIES,
    FAILURE_CATEGORIES,
    classify_failure,
    failure_category,
)
from repro.obs import (
    SPAN_COUNTERS,
    STAGES,
    ExampleSpan,
    HistogramSummary,
    MetricsRegistry,
    NullTracer,
    StageSpan,
    Tracer,
    build_run_trace,
    get_tracer,
    ingest_deltas,
    ingest_span,
    set_tracer,
    stage_breakdown,
    tracing,
)


class TestTracer:
    def test_example_and_stage_spans_nest(self):
        tracer = Tracer()
        with tracer.example("M", "ex-1") as span:
            with tracer.stage("decode") as stage:
                tracer.annotate_stage(llm_calls=2, output_tokens=30)
                assert stage.stage == "decode"
            with tracer.stage("score"):
                pass
        spans = tracer.drain()
        assert len(spans) == 1
        assert span is spans[0]
        assert [s.stage for s in span.stages] == ["decode", "score"]
        assert span.stages[0].llm_calls == 2
        assert span.stages[0].output_tokens == 30
        assert span.seconds >= span.stages[0].seconds

    def test_annotate_stage_rejects_undeclared_counter(self):
        tracer = Tracer()
        with tracer.example("M", "ex-1"):
            with tracer.stage("decode") as stage:
                with pytest.raises(TypeError, match="memo_hit"):
                    tracer.annotate_stage(memo_hits=1, memo_hit=1)
                tracer.annotate_stage(memo_hits=2, prefix_hits=0)
        assert stage.counters == {"memo_hits": 2}

    def test_stage_outside_example_is_noop(self):
        tracer = Tracer()
        with tracer.stage("decode") as stage:
            stage.llm_calls = 99      # swallowed by the null span
        tracer.annotate_stage(llm_calls=1)
        assert tracer.drain() == []

    def test_drain_sorts_and_filters_by_method(self):
        tracer = Tracer()
        for method, example_id in [("B", "2"), ("A", "2"), ("B", "1"), ("A", "1")]:
            with tracer.example(method, example_id):
                pass
        only_b = tracer.drain(method="B")
        assert [(s.method, s.example_id) for s in only_b] == [("B", "1"), ("B", "2")]
        rest = tracer.drain()
        assert [(s.method, s.example_id) for s in rest] == [("A", "1"), ("A", "2")]
        assert tracer.drain() == []

    def test_add_spans_merges_external_spans(self):
        tracer = Tracer()
        shipped = [ExampleSpan(method="M", example_id="z"),
                   ExampleSpan(method="M", example_id="a")]
        tracer.add_spans(shipped)
        tracer.add_spans([])
        assert [s.example_id for s in tracer.drain()] == ["a", "z"]

    def test_thread_local_open_spans(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(example_id):
            with tracer.example("M", example_id):
                barrier.wait()      # both examples open simultaneously
                with tracer.stage("decode"):
                    tracer.annotate_stage(llm_calls=1)

        threads = [threading.Thread(target=worker, args=(i,)) for i in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.drain()
        assert [s.example_id for s in spans] == ["a", "b"]
        # No cross-thread bleed: each example got exactly its own stage.
        assert all(len(s.stages) == 1 and s.stages[0].llm_calls == 1 for s in spans)

    def test_structure_ignores_timings(self):
        a = ExampleSpan("M", "x", stages=[StageSpan("decode", seconds=1.0)],
                        seconds=9.0, cost_usd=0.5, failure="schema_error")
        b = ExampleSpan("M", "x", stages=[StageSpan("decode", seconds=2.0)],
                        seconds=1.0, cost_usd=0.5, failure="schema_error")
        assert a.structure() == b.structure()
        b.stages[0].llm_calls = 1
        assert a.structure() != b.structure()


class TestAmbientTracer:
    def test_default_is_disabled_null_tracer(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled
        # Every hook is a no-op and annotations vanish.
        with tracer.example("M", "x") as span:
            span.cost_usd = 1.0
            with tracer.stage("decode") as stage:
                stage.llm_calls = 5
            tracer.annotate_stage(llm_calls=1)
        assert tracer.drain() == []

    def test_tracing_installs_and_restores(self):
        before = get_tracer()
        with tracing() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before

    def test_set_tracer_none_restores_null(self):
        custom = Tracer()
        set_tracer(custom)
        try:
            assert get_tracer() is custom
        finally:
            set_tracer(None)
        assert isinstance(get_tracer(), NullTracer)


class TestHierarchyAndBreakdown:
    def _spans(self):
        return [
            ExampleSpan("B", "2", stages=[StageSpan("decode", seconds=0.2)]),
            ExampleSpan("A", "1", stages=[
                StageSpan("score", seconds=0.1),
                StageSpan("decode", seconds=0.3, llm_calls=2, output_tokens=7),
                StageSpan("custom_stage", seconds=0.4),
            ]),
            ExampleSpan("A", "2", stages=[StageSpan("execute", cache_hit=True)]),
        ]

    def test_build_run_trace_groups_and_sorts(self):
        run = build_run_trace("ds", self._spans())
        assert run.dataset == "ds"
        assert [m.method for m in run.methods] == ["A", "B"]
        assert [s.example_id for s in run.methods[0].examples] == ["1", "2"]
        assert run.seconds == pytest.approx(
            sum(s.seconds for s in self._spans()), abs=1e-12
        )

    def test_stage_breakdown_canonical_order_and_totals(self):
        rows = stage_breakdown(self._spans())
        # Canonical stages first (in STAGES order), unknown stages last.
        assert list(rows) == ["decode", "execute", "score", "custom_stage"]
        assert rows["decode"]["calls"] == 2
        assert rows["decode"]["seconds"] == pytest.approx(0.5)
        assert rows["decode"]["llm_calls"] == 2
        assert rows["decode"]["output_tokens"] == 7
        assert rows["execute"]["cache_hits"] == 1
        shares = [row["share_pct"] for row in rows.values()]
        assert sum(shares) == pytest.approx(100.0)
        assert rows["decode"]["avg_ms"] == pytest.approx(250.0)

    def test_stage_breakdown_empty(self):
        assert stage_breakdown([]) == {}


class TestMetricsRegistry:
    def test_count_and_counter_total_superset_match(self):
        registry = MetricsRegistry()
        registry.count("examples", method="A", benchmark="spider", hardness="easy")
        registry.count("examples", method="A", benchmark="spider", hardness="hard")
        registry.count("examples", method="B", benchmark="spider", hardness="easy")
        assert registry.counter_total("examples") == 3
        assert registry.counter_total("examples", method="A") == 2
        assert registry.counter_total("examples", method="A", hardness="easy") == 1
        assert registry.counter_total("missing") == 0

    def test_observe_builds_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.observe("latency_s", value, method="A")
        [(name, labels, summary)] = registry.histograms()
        assert (name, labels) == ("latency_s", {"method": "A"})
        assert summary.count == 3
        assert summary.total == pytest.approx(6.0)
        assert summary.mean == pytest.approx(2.0)
        assert (summary.minimum, summary.maximum) == (1.0, 3.0)

    def test_merge_is_exact_and_order_independent(self):
        def build(values):
            registry = MetricsRegistry()
            for v in values:
                registry.count("hits", method="A")
                registry.observe("cost", v, method="A")
            return registry

        left, right = build([1.0, 5.0]), build([3.0])
        merged_a = MetricsRegistry()
        merged_a.merge(left)
        merged_a.merge(right)
        merged_b = MetricsRegistry()
        merged_b.merge(right)
        merged_b.merge(left)
        assert merged_a.as_dict() == merged_b.as_dict()
        assert merged_a.counter_total("hits") == 3
        [(_, _, summary)] = merged_a.histograms()
        assert (summary.count, summary.minimum, summary.maximum) == (3, 1.0, 5.0)

    def test_pickle_round_trip_keeps_every_metric(self):
        # Gateway shards return their registry over a socket, pickled.
        registry = MetricsRegistry()
        registry.count("hits", method="A")
        registry.count("hits", value=2.0, method="B")
        for value in (0.5, 1.5):
            registry.observe("cost", value, method="A")
        copy = pickle.loads(pickle.dumps(registry))
        assert copy.as_dict() == registry.as_dict()
        copy.count("hits", method="A")  # the copy has a lock of its own
        assert copy.counter_total("hits", method="A") == 2
        assert registry.counter_total("hits", method="A") == 1

    def test_as_dict_is_deterministic(self):
        registry = MetricsRegistry()
        registry.count("z", method="B")
        registry.count("a", method="A")
        exported = registry.as_dict()
        assert [c["name"] for c in exported["counters"]] == ["a", "z"]

    def test_histogram_summary_empty_as_dict(self):
        empty = HistogramSummary()
        exported = empty.as_dict()
        assert exported["count"] == 0
        assert exported["min"] == 0.0 and exported["max"] == 0.0

    def test_none_labels_are_dropped(self):
        registry = MetricsRegistry()
        registry.count("examples", method="A", hardness=None)
        assert registry.counters()[0][1] == {"method": "A"}

    def test_ingest_span_counts_failures_and_stages(self):
        registry = MetricsRegistry()
        counts = {spec.name: rank + 1 for rank, spec in enumerate(SPAN_COUNTERS)}
        span = ExampleSpan("M", "x", failure="schema_error", stages=[
            StageSpan("decode", seconds=0.1, llm_calls=3, counters=counts),
            StageSpan("execute", seconds=0.2, cache_hit=True,
                      counters={"memo_hits": 0}),
        ])
        ingest_span(registry, "spider", span)
        assert registry.counter_total("failures", category="schema_error") == 1
        assert registry.counter_total("llm_calls", stage="decode") == 3
        assert registry.counter_total("stage_cache_hits", stage="execute") == 1
        for spec in SPAN_COUNTERS:
            assert registry.counter_total(
                spec.metric, stage="decode", method="M", benchmark="spider"
            ) == counts[spec.name], spec
        # A zero count emits no series.
        assert {
            name for name, labels, _ in registry.counters()
            if labels.get("stage") == "execute"
        } == {"stage_cache_hits"}
        names = {name for name, _, _ in registry.histograms()}
        assert names == {"stage_seconds"}

    def test_ingest_deltas_folds_positive_differences(self):
        registry = MetricsRegistry()
        names = {"checkouts": "pool_checkouts", "waits": "pool_waits",
                 "created": "pool_replicas"}
        before = {"checkouts": 2, "waits": 1, "created": 1}
        after = {"checkouts": 7, "waits": 1}
        ingest_deltas(registry, before, after, names, method="M")
        ingest_deltas(registry, None, after, names, method="M")
        assert registry.counters() == [("pool_checkouts", {"method": "M"}, 5.0)]


class TestFailureTaxonomy:
    def test_every_canonical_stage_is_known(self):
        assert set(STAGES) == {
            "schema_linking", "fewshot", "prompt_build", "decode",
            "post_process", "repair", "execute", "score",
        }

    def test_category_lookup(self):
        assert failure_category("schema_error").stage == "generate"
        with pytest.raises(KeyError):
            failure_category("nope")

    def test_corruption_families_map_to_known_categories(self):
        tags = {category.tag for category in FAILURE_CATEGORIES}
        assert set(CORRUPTION_FAMILIES.values()) <= tags

    def test_classify_failure_priority(self):
        assert classify_failure(ex=True, prediction_errors=("join_error",)) is None
        assert classify_failure(
            ex=False, prediction_errors=("join_error", "parse_failure")
        ) == "parse_failure"
        assert classify_failure(
            ex=False, execution_error="timeout: budget exceeded"
        ) == "execution_timeout"
        assert classify_failure(
            ex=False, execution_error="no such column: x"
        ) == "invalid_sql"
        assert classify_failure(ex=False, truncated=True) == "result_truncated"
        assert classify_failure(
            ex=False, prediction_errors=("join_error", "value_error")
        ) == "schema_error"          # first corruption tag's family wins
        assert classify_failure(
            ex=False, prediction_errors=("value_error",)
        ) == "value_error"
        assert classify_failure(
            ex=False, prediction_errors=("drop_subquery",)
        ) == "structure_error"
        assert classify_failure(ex=False) == "unattributed"
