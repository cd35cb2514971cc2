"""Documentation consistency: the docs reference things that exist."""

import ast
import re
from pathlib import Path

import pytest

from repro.obs import SPAN_COUNTERS

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def _doc_files() -> list[Path]:
    return sorted(ROOT.glob("*.md")) + sorted((ROOT / "docs").glob("*.md"))


class TestDesignDoc:
    def test_per_experiment_benches_exist(self):
        design = _read("DESIGN.md")
        bench_files = set(re.findall(r"`benchmarks/(test_[a-z0-9_]+\.py)`", design))
        assert bench_files, "DESIGN.md lists no bench targets"
        for bench in bench_files:
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_every_bench_file_is_indexed(self):
        design = _read("DESIGN.md")
        on_disk = {
            path.name
            for path in (ROOT / "benchmarks").glob("test_*.py")
        }
        indexed = set(re.findall(r"`benchmarks/(test_[a-z0-9_]+\.py)`", design))
        assert on_disk <= indexed | {"conftest.py"}, on_disk - indexed

    def test_inventory_packages_exist(self):
        design = _read("DESIGN.md")
        packages = set(re.findall(r"`repro\.([a-z_]+)`", design))
        for package in packages:
            assert (ROOT / "src" / "repro" / package).exists() or (
                ROOT / "src" / "repro" / f"{package}.py"
            ).exists(), package


class TestExperimentsDoc:
    def test_every_table_and_figure_covered(self):
        experiments = _read("EXPERIMENTS.md")
        for artifact in (
            "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
            "Figure 1", "Figure 2", "Figure 3", "Figures 5/6/7", "Figure 8",
            "Figure 9", "Figure 11", "Figure 12", "Figure 14",
        ):
            assert artifact in experiments, artifact

    def test_mentions_bench_files_that_exist(self):
        experiments = _read("EXPERIMENTS.md")
        for bench in re.findall(r"`(test_[a-z0-9_]+\.py)`", experiments):
            assert (ROOT / "benchmarks" / bench).exists(), bench


class TestReadme:
    def test_quickstart_snippet_runs(self):
        readme = _read("README.md")
        match = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
        assert match, "README has no python quickstart"
        code = match.group(1)
        # Shrink the benchmark so the doc snippet runs fast in CI.
        code = code.replace("scale=0.2", "scale=0.05")
        namespace: dict = {}
        exec(compile(code, "README-quickstart", "exec"), namespace)  # noqa: S102

    def test_examples_listed_exist(self):
        readme = _read("README.md")
        for example in re.findall(r"python (examples/[a-z_]+\.py)", readme):
            assert (ROOT / example).exists(), example

    def test_cli_commands_listed_exist(self):
        from repro.cli import build_parser
        readme = _read("README.md")
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        for command in re.findall(r"python -m repro ([a-z][a-z-]*)", readme):
            assert command in subparsers.choices, command


class TestOneBenchmark:
    #: Names of the benchmark scripts, command, records and cache-key mode
    #: that ``perfbench/`` replaced.
    RETIRED = (
        "scripts/bench_", "serve-bench", "BENCH_eval.json", "BENCH_llm.json",
        "BENCH_serve.json", "semantic_cache_keys",
    )

    def test_no_doc_names_a_retired_benchmark(self):
        # CHANGES.md and ROADMAP.md keep the history; the documents that
        # describe the program as it is must not send a reader there.
        docs = [
            ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            ROOT / "perfbench" / "README.md", *sorted((ROOT / "docs").glob("*.md")),
        ]
        for doc in docs:
            text = doc.read_text()
            for name in self.RETIRED:
                assert name not in text, f"{doc.name} names {name}"


class TestOneRuntimeSwitch:
    #: The batching and pooling switches, the response-cache TTL and its
    #: test clock, and the serving option no caller set; the memo switch
    #: (``caches_disabled()``) is the one runtime switch left.  Then the
    #: parallel evaluator's thread pool and the options only tests set.
    #: Then the serving request log, its span record and drop counter, the
    #: dict-level metric merge, and the ``ServeConfig`` options no caller set.
    RETIRED = (
        "batching_enabled", "batching_disabled", "set_batching_enabled",
        "pooling_enabled", "pooling_disabled", "set_pooling_enabled",
        "TTLCache", "LogicalClock", "response_cache_ttl_s", "warm_start",
        "serve_cache_expirations",
        "min_process_work", "last_run_fresh", "benchmark_config",
        "_evaluate_threads", 'executor="thread"', "fall back to a thread pool",
        "ServeSpan", "request_log", "spans_dropped", "max_queue_depth",
        "merge_metric_exports", "response_cache_size", "`coalesce`",
        "coalesce=", "ServeConfig(repair", "`repair` | `False`",
    )

    def test_no_doc_names_a_retired_switch_or_option(self):
        docs = [
            ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md")),
        ]
        for doc in docs:
            text = doc.read_text()
            for name in self.RETIRED:
                assert name not in text, f"{doc.name} names {name}"


class TestPackageMetadata:
    def test_examples_all_have_main(self):
        for example in (ROOT / "examples").glob("*.py"):
            text = example.read_text()
            assert '__name__ == "__main__"' in text, example.name
            assert '"""' in text[:50], f"{example.name} missing module docstring"

    def test_all_public_modules_have_docstrings(self):
        for module in (ROOT / "src" / "repro").rglob("*.py"):
            text = module.read_text()
            assert text.lstrip().startswith('"""'), module


class TestDocLinks:
    def test_relative_markdown_links_resolve(self):
        for doc in _doc_files():
            text = doc.read_text()
            for target in re.findall(r"\]\(([^)#]+(?:\.md|\.py|\.json))\)", text):
                if "://" in target:
                    continue
                resolved = (doc.parent / target).resolve()
                assert resolved.exists(), f"{doc.name} links to missing {target}"


class TestObservabilityDocs:
    def test_every_cli_subcommand_is_documented(self):
        from repro.cli import build_parser
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        documented = "\n".join(doc.read_text() for doc in _doc_files())
        for command in subparsers.choices:
            assert f"python -m repro {command}" in documented, (
                f"CLI subcommand {command!r} is not documented in any"
                " markdown file"
            )

    def test_every_obs_public_symbol_is_documented(self):
        import repro.obs
        reference = _read("docs/OBSERVABILITY.md")
        for symbol in repro.obs.__all__:
            assert f"`{symbol}`" in reference, (
                f"repro.obs.{symbol} missing from docs/OBSERVABILITY.md"
            )

    def test_core_and_obs_docstrings_state_safety(self):
        # Every repro.core / repro.obs module must document its
        # inputs/outputs and thread/process safety.
        for package in ("core", "obs"):
            for module in (ROOT / "src" / "repro" / package).glob("*.py"):
                docstring = ast.get_docstring(ast.parse(module.read_text()))
                assert docstring, module
                lowered = docstring.lower()
                assert "inputs/outputs" in lowered, (
                    f"{module} docstring lacks an Inputs/outputs statement"
                )
                assert "safety" in lowered, (
                    f"{module} docstring lacks a thread/process-safety"
                    " statement"
                )

    def test_canonical_stages_match_doc(self):
        from repro.obs import STAGES
        reference = _read("docs/OBSERVABILITY.md")
        for stage in STAGES:
            assert f"`{stage}`" in reference, stage


class TestServingDocs:
    def test_every_serve_public_symbol_is_documented(self):
        import repro.serve
        reference = _read("docs/SERVING.md")
        for symbol in repro.serve.__all__:
            assert f"`{symbol}`" in reference, (
                f"repro.serve.{symbol} missing from docs/SERVING.md"
            )

    def test_every_serve_config_knob_is_documented(self):
        import dataclasses
        from repro.serve import ServeConfig
        reference = _read("docs/SERVING.md")
        for config_field in dataclasses.fields(ServeConfig):
            assert f"`{config_field.name}`" in reference, (
                f"ServeConfig.{config_field.name} missing from docs/SERVING.md"
            )

    def test_serve_metric_names_are_documented(self):
        reference = _read("docs/SERVING.md")
        for metric in (
            "serve_requests", "serve_coalesce_hits", "serve_timeouts",
            "serve_queue_wait_s", "serve_service_s", "serve_latency_s",
            "serve_cache_hits", "serve_cache_misses", "serve_cache_stores",
            "serve_cache_evictions", "serve_cache_invalidations",
        ):
            assert f"`{metric}`" in reference, metric

    def test_pool_api_is_documented(self):
        import repro.dbengine
        reference = _read("docs/SERVING.md")
        for symbol in ("ReadConnectionPool", "PoolStats", "DEFAULT_POOL_SIZE"):
            assert hasattr(repro.dbengine, symbol), symbol
            assert f"`{symbol}`" in reference, (
                f"{symbol} missing from docs/SERVING.md"
            )

    def test_pool_counter_names_are_documented(self):
        from repro.dbengine import PoolStats
        reference = _read("docs/SERVING.md")
        for counter in PoolStats().as_dict():
            assert f"`{counter}`" in reference, counter


class TestGatewayDocs:
    def test_every_gateway_public_symbol_is_documented(self):
        import repro.serve.gateway
        reference = _read("docs/SERVING.md")
        for symbol in repro.serve.gateway.__all__:
            assert f"`{symbol}`" in reference, (
                f"repro.serve.gateway.{symbol} missing from docs/SERVING.md"
            )

    def test_gateway_metric_names_are_documented_everywhere(self):
        serving = _read("docs/SERVING.md")
        observability = _read("docs/OBSERVABILITY.md")
        for metric in (
            "gateway_requests", "gateway_apply_writes",
            "gateway_invalidations", "gateway_worker_errors",
        ):
            assert f"`{metric}`" in serving, f"{metric} not in SERVING.md"
            assert f"`{metric}`" in observability, (
                f"{metric} not in OBSERVABILITY.md"
            )

    def test_http_endpoints_are_documented(self):
        reference = _read("docs/SERVING.md")
        for endpoint in ("/query", "/healthz", "/metrics"):
            assert f"`{endpoint}`" in reference, endpoint


class TestPipelineDocs:
    def test_reference_exists_and_is_linked(self):
        assert (ROOT / "docs" / "PIPELINE.md").exists()
        assert "docs/PIPELINE.md" in _read("README.md")
        assert "docs/PIPELINE.md" in _read("DESIGN.md")

    def test_every_canonical_stage_is_documented(self):
        from repro.obs import STAGES
        reference = _read("docs/PIPELINE.md")
        for stage in STAGES:
            assert f"`{stage}`" in reference, stage

    def test_every_pipeline_config_knob_is_documented(self):
        import dataclasses
        from repro.modules import PipelineConfig
        reference = _read("docs/PIPELINE.md")
        for config_field in dataclasses.fields(PipelineConfig):
            assert f"`{config_field.name}`" in reference, (
                f"PipelineConfig.{config_field.name} missing from"
                " docs/PIPELINE.md"
            )

    def test_documented_config_defaults_match_code(self):
        from repro.modules import PipelineConfig
        reference = _read("docs/PIPELINE.md")
        row = re.search(r"\| `repair_budget` \| `(\d+)` \|", reference)
        assert row, "repair_budget default missing from the knob table"
        import dataclasses
        defaults = {
            f.name: f.default for f in dataclasses.fields(PipelineConfig)
        }
        assert int(row.group(1)) == defaults["repair_budget"]

    def test_repair_choices_match_doc(self):
        from repro.modules import REPAIR_CHOICES
        reference = _read("docs/PIPELINE.md")
        for choice in REPAIR_CHOICES:
            if choice is not None:
                assert f"`{choice}`" in reference, choice

    def test_repair_classes_match_doc(self):
        from repro.modules.repair import RepairClass
        reference = _read("docs/PIPELINE.md")
        for repair_class in RepairClass:
            assert f"`{repair_class.value}`" in reference, repair_class

    def test_aas_genes_match_doc(self):
        from repro.core.design_space import DEFAULT_LAYERS, layers_with_repair
        reference = _read("docs/PIPELINE.md")
        layers = layers_with_repair()
        assert set(layers) == set(DEFAULT_LAYERS) | {"repair"}
        for gene in layers:
            assert f"`{gene}`" in reference, gene

    def test_documented_symbols_exist(self):
        # Every `repro.modules.repair` helper the reference names is real.
        import repro.modules.repair as repair_module
        reference = _read("docs/PIPELINE.md")
        for symbol in (
            "classify_execution_failure", "RepairPatternStore",
            "RepairClass",
        ):
            assert symbol in reference, symbol
            assert hasattr(repair_module, symbol), symbol

    def test_quickstart_example_is_referenced(self):
        reference = _read("docs/PIPELINE.md")
        assert "examples/repair_quickstart.py" in reference
        assert (ROOT / "examples" / "repair_quickstart.py").exists()


def _span_counter_table() -> dict[str, tuple[str, str]]:
    """docs/OBSERVABILITY.md's span-counter table: name -> (class, metric)."""
    text = _read("docs/OBSERVABILITY.md")
    header = "| Counter | Class | Metric | Counted by |\n"
    assert header in text, "span-counter table missing from OBSERVABILITY.md"
    table = text.split(header, 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([\w-]+) \| `(\w+)` \|", table, re.M)
    return {name: (kind, metric) for name, kind, metric in rows}


class TestSpanCounters:
    """Each declared span counter is documented with its class, and its
    class decides whether it joins the structure and equivalence key."""

    @pytest.mark.parametrize(
        "spec", SPAN_COUNTERS, ids=[spec.name for spec in SPAN_COUNTERS]
    )
    def test_counter_is_documented_ingested_and_classified(self, spec):
        from repro.obs import (
            ExampleSpan, MetricsRegistry, StageSpan, build_run_report,
            ingest_span,
        )
        table = _span_counter_table()
        assert set(table) == {declared.name for declared in SPAN_COUNTERS}
        kind = "deterministic" if spec.deterministic else "schedule-sensitive"
        assert table[spec.name] == (kind, spec.metric)
        assert "SPAN_COUNTERS" in _read("docs/PIPELINE.md")

        bare = ExampleSpan("m", "1", stages=[StageSpan("decode")])
        counted = ExampleSpan(
            "m", "1", stages=[StageSpan("decode", counters={spec.name: 3})]
        )
        registry = MetricsRegistry()
        ingest_span(registry, "b", counted)
        assert registry.counter_total(spec.metric, stage="decode") == 3

        schedule_sensitive = not spec.deterministic
        assert (bare.structure() == counted.structure()) == schedule_sensitive
        bare_key = build_run_report([], [bare]).equivalence_key()
        counted_key = build_run_report([], [counted]).equivalence_key()
        assert (bare_key == counted_key) == schedule_sensitive


class TestLLMEngineDocs:
    def test_engine_symbols_exist_and_are_documented(self):
        import repro.llm
        documented = _read("docs/OBSERVABILITY.md") + _read("docs/PIPELINE.md")
        for symbol in (
            "PromptPrefixCache", "PromptSegment", "prefix_cache",
            "clear_prefix_cache", "generate_many",
        ):
            assert hasattr(repro.llm, symbol) or symbol == "generate_many", symbol
            assert symbol in documented, (
                f"{symbol} missing from the pipeline/observability docs"
            )

    def test_decode_scheduler_is_documented(self):
        import repro.serve
        serving = _read("docs/SERVING.md")
        for symbol in ("DecodeScheduler", "DecodeWindowStats"):
            assert hasattr(repro.serve, symbol), symbol
            assert f"`{symbol}`" in serving, symbol
        for metric in ("serve_decode_windows", "serve_decode_submissions",
                       "serve_decode_draws"):
            assert f"`{metric}`" in serving, f"{metric} not in SERVING.md"
            assert f"`{metric}`" in _read("docs/OBSERVABILITY.md"), (
                f"{metric} not in OBSERVABILITY.md"
            )

    def test_readme_hot_paths_note(self):
        readme = _read("README.md")
        assert "Hot paths" in readme
        assert "`caches_disabled()`" in readme
        assert "tests/test_llm_engine.py" in readme
        assert (ROOT / "tests" / "test_llm_engine.py").exists()
