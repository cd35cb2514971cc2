"""Command-line interface for the NL2SQL360 testbed.

Subcommands::

    python -m repro evaluate  --methods SuperSQL DAILSQL --scale 0.15
    python -m repro methods                       # list the model zoo
    python -m repro search    --generations 4     # run NL2SQL360-AAS
    python -m repro stats     --benchmark bird    # Table-2 style statistics
    python -m repro fuzz-sqlkit --seeds 500       # metric-fidelity fuzz
    python -m repro report-run --log-db runs.db   # observability run report
    python -m repro docs-check                    # docs/code consistency gate

All runs are offline and deterministic for a given ``--seed``.

``evaluate``, ``search``, and ``compare`` run through the parallel
evaluation engine: ``--jobs N`` shards work across N workers, and a
``--log-db`` path enables the persistent cross-run result cache (disable
with ``--no-result-cache``), so identical re-runs skip prediction and
execution entirely.  ``--trace`` turns on the observability layer
(:mod:`repro.obs`): per-stage spans and metrics are collected, appended
to the printed output, and — with ``--log-db`` — persisted so ``repro
report-run`` can re-render the run report later (``--json`` for machine
consumption, ``--check`` for an end-to-end self-test).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from repro.core.aas import AASConfig, run_aas
from repro.core.design_space import SearchSpace, layers_with_repair
from repro.core.logs import ExperimentLogStore
from repro.core.parallel import ParallelEvaluator
from repro.core.qvt import qvt_score
from repro.core.report import format_leaderboard, format_table
from repro.datagen.benchmark import bird_like_config, build_benchmark, spider_like_config
from repro.methods.zoo import CORE_SPIDER_METHODS, build_method, zoo_configs
from repro.obs import (
    build_run_report,
    render_json,
    render_markdown,
    report_from_store,
    stage_breakdown,
    tracing,
)
from repro.schema.stats import corpus_statistics


def _build_dataset(benchmark: str, scale: float, seed: int):
    if benchmark == "bird":
        return build_benchmark(bird_like_config(scale=scale, seed=seed))
    return build_benchmark(spider_like_config(scale=scale, seed=seed))


def _cmd_methods(_args: argparse.Namespace) -> int:
    rows = [
        [name, config.backbone, "yes" if config.finetuned else "no",
         config.schema_linking or "-", config.db_content or "-",
         config.prompting, config.decoding, config.post_processing or "-"]
        for name, config in sorted(zoo_configs().items())
    ]
    print(format_table(
        ["Method", "Backbone", "FT", "Linking", "Content", "Prompting",
         "Decoding", "Post"],
        rows,
        title="Model zoo (paper Table 1 taxonomy)",
    ))
    return 0


def _make_evaluator(
    dataset, args: argparse.Namespace, store: ExperimentLogStore | None,
    measure_timing: bool,
) -> ParallelEvaluator:
    return ParallelEvaluator(
        dataset,
        log_store=store,
        measure_timing=measure_timing,
        jobs=args.jobs,
        use_result_cache=not args.no_result_cache,
    )


def _print_eval_stats(evaluator: ParallelEvaluator) -> None:
    from repro.utils.cache import lru_cache_stats

    stats = evaluator.stats
    print(
        f"[engine] predictions={stats.predictions}"
        f" cache_hits={stats.cache_hits}"
        f" gold_executions={stats.gold_executions}"
        f" parallel_tasks={stats.parallel_tasks}"
        f" pool_failures={stats.pool_failures}",
        file=sys.stderr,
    )
    lru = lru_cache_stats()
    if lru:
        detail = " ".join(
            f"{name}={bucket['hits']}/{bucket['hits'] + bucket['misses']}"
            for name, bucket in sorted(lru.items())
        )
        print(f"[caches] hits/lookups: {detail}", file=sys.stderr)


def _print_stage_breakdown(evaluator: ParallelEvaluator) -> None:
    rows = [
        [stage, int(row["calls"]), f"{row['seconds']:.4f}",
         f"{row['share_pct']:.1f}", f"{row['avg_ms']:.3f}"]
        for stage, row in stage_breakdown(evaluator.trace_spans).items()
    ]
    if rows:
        print()
        print(format_table(
            ["Stage", "Calls", "Total s", "Share %", "Avg ms"],
            rows, title="Stage-time breakdown",
        ))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args.benchmark, args.scale, args.seed)
    store = ExperimentLogStore(args.log_db) if args.log_db else None
    evaluator = _make_evaluator(dataset, args, store, not args.no_timing)
    reports = {}
    with tracing() if args.trace else nullcontext() as tracer:
        for name in args.methods:
            print(f"evaluating {name} ...", file=sys.stderr)
            reports[name] = evaluator.evaluate_method(build_method(name, seed=args.seed))
        rows = [
            [name, f"{report.ex:.1f}", f"{report.em:.1f}", f"{report.ves:.1f}",
             f"{qvt_score(report):.1f}", f"{report.avg_tokens:.0f}",
             f"{report.avg_cost:.4f}"]
            for name, report in reports.items()
        ]
        print(format_table(
            ["Method", "EX", "EM", "VES", "QVT", "Tok/q", "$/q"],
            rows,
            title=f"Evaluation on {dataset.name} dev"
                  f" ({len(dataset.dev_examples)} examples)",
        ))
        print()
        print(format_leaderboard(reports, metric=args.metric))
        if tracer is not None:
            all_records = [r for rep in reports.values() for r in rep.records]
            print()
            print(render_markdown(build_run_report(
                all_records,
                spans=evaluator.trace_spans,
                metrics=tracer.metrics,
                dataset=dataset.name,
            )), end="")
    _print_eval_stats(evaluator)
    evaluator.close()
    if store is not None:
        store.close()
    dataset.close()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args.benchmark, args.scale, args.seed)
    store = ExperimentLogStore(args.log_db) if args.log_db else None
    evaluator = _make_evaluator(dataset, args, store, measure_timing=False)
    examples = dataset.dev_examples[: args.subset]
    config = AASConfig(
        population_size=args.population,
        generations=args.generations,
        swap_probability=args.swap,
        mutation_probability=args.mutate,
        seed=args.seed,
    )
    if args.repair:
        space = SearchSpace(backbone=args.backbone, layers=layers_with_repair())
    else:
        space = SearchSpace(backbone=args.backbone)
    with tracing() if args.trace else nullcontext() as tracer:
        result = run_aas(space, evaluator, examples, config)
        print("best-of-generation EX:", [f"{v:.1f}" for v in result.best_per_generation])
        print("best composition:")
        for layer, module in result.best.assignment.items():
            print(f"  {layer:16s} -> {module}")
        print(f"fitness: {result.best.fitness:.1f} "
              f"({result.evaluations} distinct individuals evaluated)")
        if tracer is not None:
            _print_stage_breakdown(evaluator)
    _print_eval_stats(evaluator)
    evaluator.close()
    if store is not None:
        store.close()
    dataset.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args.benchmark, args.scale, args.seed)
    rows = []
    for split in ("train", "dev"):
        stats = corpus_statistics(dataset.schemas(split=split))
        row = [f"{dataset.name} {split}", str(len(dataset.split(split)))]
        for key in ("tables_per_db", "columns_per_db", "pks_per_db", "fks_per_db"):
            triple = stats[key].as_row()
            row.append(f"{triple[0]:.0f}/{triple[1]:.0f}/{triple[2]:.1f}")
        rows.append(row)
    print(format_table(
        ["Split", "#Examples", "#T/DB", "#C/DB", "#PK/DB", "#FK/DB"],
        rows,
        title="Benchmark statistics (min/max/avg, paper Table 2 layout)",
    ))
    dataset.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.extensions.interpreter import explain_sql
    for line in explain_sql(args.sql):
        print("-", line)
    return 0


def _cmd_rewrite(args: argparse.Namespace) -> int:
    from repro.extensions.query_rewriter import rewrite_question
    dataset = _build_dataset(args.benchmark, args.scale, args.seed)
    database = next(iter(dataset.databases.values()))
    if args.db_id:
        database = dataset.database(args.db_id)
    result = rewrite_question(args.question, database.schema)
    print("original: ", result.original)
    print("rewritten:", result.rewritten)
    for note in result.ambiguities:
        print("ambiguity:", note)
    dataset.close()
    return 0


def _cmd_fuzz_sqlkit(args: argparse.Namespace) -> int:
    from repro.sqlkit.differential import run_fuzz
    report = run_fuzz(
        seeds=args.seeds,
        benchmark=args.benchmark,
        scale=args.scale,
        seed=args.seed,
        include_gold_corpus=not args.no_gold_corpus,
        max_divergences=args.max_divergences,
    )
    print(report.summary())
    for divergence in report.divergences:
        print()
        print(divergence)
    return 0 if report.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import compare_methods
    dataset = _build_dataset(args.benchmark, args.scale, args.seed)
    store = ExperimentLogStore(args.log_db) if args.log_db else None
    evaluator = _make_evaluator(dataset, args, store, measure_timing=False)
    with tracing() if args.trace else nullcontext() as tracer:
        report_a = evaluator.evaluate_method(build_method(args.method_a, seed=args.seed))
        report_b = evaluator.evaluate_method(build_method(args.method_b, seed=args.seed))
        comparison = compare_methods(report_a, report_b)
        print(f"{comparison.method_a}: EX {comparison.ex_a:.1f} | "
              f"{comparison.method_b}: EX {comparison.ex_b:.1f} "
              f"(n={comparison.n})")
        print(f"discordant pairs: {comparison.a_only} only-{comparison.method_a}, "
              f"{comparison.b_only} only-{comparison.method_b}")
        print(f"McNemar p = {comparison.p_value:.4f}; "
              f"95% CI for the EX gap: [{comparison.diff_ci_low:+.1f}, "
              f"{comparison.diff_ci_high:+.1f}]")
        print(comparison.verdict())
        if tracer is not None:
            _print_stage_breakdown(evaluator)
    _print_eval_stats(evaluator)
    evaluator.close()
    if store is not None:
        store.close()
    dataset.close()
    return 0


def _report_run_check() -> int:
    """End-to-end self-test: trace a tiny run, persist it, re-render it."""
    import json

    dataset = _build_dataset("spider", 0.05, 42)
    store = ExperimentLogStore()
    with tracing():
        evaluator = ParallelEvaluator(
            dataset, log_store=store, measure_timing=False, jobs=1,
            use_result_cache=False,
        )
        evaluator.evaluate_method(build_method("C3SQL", seed=42))
        evaluator.close()
    report = report_from_store(store)
    payload = json.loads(render_json(report))
    problems = []
    if not report.traced:
        problems.append("report not marked as traced")
    if not report.stage_rows:
        problems.append("stage-time breakdown is empty")
    for section in ("headline", "stages", "failures", "cache", "repair",
                    "economy"):
        if section not in payload:
            problems.append(f"JSON report is missing section {section!r}")
    if report.cache.get("examples") != len(dataset.dev_examples):
        problems.append("cache section disagrees with the dev split size")
    if "# Run report" not in render_markdown(report):
        problems.append("markdown rendering lost its title")
    store.close()
    dataset.close()
    if problems:
        for problem in problems:
            print(f"report-run check: {problem}", file=sys.stderr)
        return 1
    print(f"report-run check: OK ({report.examples} examples,"
          f" {len(report.stage_rows)} stages,"
          f" {len(report.failures)} failure categories)")
    return 0


def _cmd_docs_check(_args: argparse.Namespace) -> int:
    """Run the docs/code consistency suite as a standalone gate."""
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    test_file = root / "tests" / "test_docs_consistency.py"
    if not test_file.exists():
        print(f"docs-check: {test_file} not found", file=sys.stderr)
        return 2
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", str(test_file), "-q"],
        cwd=root,
        env=env,
    )
    if completed.returncode == 0:
        print("docs-check: OK (docs and code agree)")
    else:
        print("docs-check: documentation drift detected", file=sys.stderr)
    return completed.returncode


def _cmd_report_run(args: argparse.Namespace) -> int:
    if args.check:
        return _report_run_check()
    if not args.log_db:
        print("report-run needs --log-db (or --check)", file=sys.stderr)
        return 2
    store = ExperimentLogStore(args.log_db)
    try:
        report = report_from_store(store, run_id=args.run_id)
    except (ValueError, KeyError) as exc:
        print(f"report-run: {exc}", file=sys.stderr)
        store.close()
        return 1
    print(render_json(report) if args.json else render_markdown(report), end="")
    store.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NL2SQL360 reproduction testbed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    methods = sub.add_parser("methods", help="list the model zoo")
    methods.set_defaults(func=_cmd_methods)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--benchmark", choices=["spider", "bird"], default="spider")
        p.add_argument("--scale", type=float, default=0.15)
        p.add_argument("--seed", type=int, default=42)

    def engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None,
                       help="evaluation workers (default: CPU count)")
        p.add_argument("--no-result-cache", action="store_true",
                       help="disable the persistent cross-run result cache")
        p.add_argument("--trace", action="store_true",
                       help="collect per-stage spans and metrics;"
                            " appends the run report to the output")

    evaluate = sub.add_parser("evaluate", help="evaluate methods on a benchmark")
    common(evaluate)
    engine_flags(evaluate)
    evaluate.add_argument("--methods", nargs="+", default=CORE_SPIDER_METHODS[:4])
    evaluate.add_argument("--metric", default="ex")
    evaluate.add_argument("--log-db", default=None,
                          help="path to a SQLite experiment log store"
                               " (also hosts the result cache)")
    evaluate.add_argument("--no-timing", action="store_true",
                          help="skip VES timing for faster runs")
    evaluate.set_defaults(func=_cmd_evaluate)

    search = sub.add_parser("search", help="run the NL2SQL360-AAS genetic search")
    common(search)
    engine_flags(search)
    search.add_argument("--log-db", default=None,
                        help="SQLite log store; makes genotype fitness"
                             " survive process restarts via the result cache")
    search.add_argument("--backbone", default="gpt-3.5-turbo")
    search.add_argument("--population", type=int, default=6)
    search.add_argument("--generations", type=int, default=4)
    search.add_argument("--swap", type=float, default=0.5)
    search.add_argument("--mutate", type=float, default=0.2)
    search.add_argument("--subset", type=int, default=50,
                        help="dev examples used as the search fitness set")
    search.add_argument("--repair", action="store_true",
                        help="add the self-repair gene to the search space"
                             " (see docs/PIPELINE.md)")
    search.set_defaults(func=_cmd_search)

    stats = sub.add_parser("stats", help="print benchmark statistics")
    common(stats)
    stats.set_defaults(func=_cmd_stats)

    explain = sub.add_parser("explain", help="explain a SQL query in English")
    explain.add_argument("sql")
    explain.set_defaults(func=_cmd_explain)

    rewrite = sub.add_parser("rewrite", help="clarify an NL question")
    common(rewrite)
    rewrite.add_argument("question")
    rewrite.add_argument("--db-id", default=None,
                         help="database to resolve ambiguity against")
    rewrite.set_defaults(func=_cmd_rewrite)

    fuzz = sub.add_parser(
        "fuzz-sqlkit",
        help="differential/metamorphic fuzz of the SQL toolkit and executor",
    )
    fuzz.add_argument("--benchmark", choices=["spider", "bird", "both"],
                      default="both")
    fuzz.add_argument("--scale", type=float, default=0.08,
                      help="benchmark scale for the fuzz corpus")
    fuzz.add_argument("--seed", type=int, default=42)
    fuzz.add_argument("--seeds", type=int, default=200,
                      help="number of fuzz rounds after the gold-corpus pass")
    fuzz.add_argument("--no-gold-corpus", action="store_true",
                      help="skip the exhaustive gold-query round-trip pass")
    fuzz.add_argument("--max-divergences", type=int, default=25,
                      help="stop after reporting this many divergences")
    fuzz.set_defaults(func=_cmd_fuzz_sqlkit)

    compare = sub.add_parser(
        "compare", help="statistical comparison of two methods (McNemar + bootstrap)"
    )
    common(compare)
    engine_flags(compare)
    compare.add_argument("--log-db", default=None,
                         help="SQLite log store hosting the result cache")
    compare.add_argument("method_a")
    compare.add_argument("method_b")
    compare.set_defaults(func=_cmd_compare)

    report_run = sub.add_parser(
        "report-run", help="render a persisted run's observability report"
    )
    report_run.add_argument("--log-db", default=None,
                            help="SQLite experiment log store to read")
    report_run.add_argument("--run-id", type=int, default=None,
                            help="run to report on (default: the latest)")
    report_run.add_argument("--json", action="store_true",
                            help="emit deterministic JSON instead of Markdown")
    report_run.add_argument("--check", action="store_true",
                            help="self-test: trace a tiny run end-to-end"
                                 " and validate the rendered report")
    report_run.set_defaults(func=_cmd_report_run)

    docs_check = sub.add_parser(
        "docs-check",
        help="verify docs (PIPELINE/SERVING/OBSERVABILITY/README/DESIGN)"
             " against the code",
    )
    docs_check.set_defaults(func=_cmd_docs_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
