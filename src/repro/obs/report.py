"""Self-documenting run reports over records, spans, and metrics.

:func:`build_run_report` turns one run's evaluation records plus the
tracer's drained spans and :class:`~repro.obs.registry.MetricsRegistry`
into a :class:`RunReport` — headline metrics, the stage-time breakdown,
top failure categories with example ids, cache effectiveness, self-repair
outcomes, and cost-per-correct economics.  :func:`report_from_store` rebuilds the same
report from a persisted run in an
:class:`~repro.core.logs.ExperimentLogStore`;
:func:`render_markdown` / :func:`render_json` serialize it.

Inputs/outputs: pure functions from (records, spans, metrics) or a log
store to a ``RunReport`` / string; nothing is mutated.  The failure,
cache, and economy sections are computed only from deterministic record
and span fields, so sequential and parallel runs of the same
configuration render them identically; only stage timings vary.

Thread/process safety: stateless pure functions over caller-owned
inputs — safe from any thread or process (the log store handed to
:func:`report_from_store` must itself be used from its owning thread).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.taxonomy import failure_category
from repro.llm.pricing import cost_per_correct
from repro.obs.registry import POOL_METRICS, SPAN_COUNTERS, MetricsRegistry
from repro.obs.trace import ExampleSpan, stage_breakdown

# Example ids listed per failure category before truncation.
_MAX_FAILURE_EXAMPLES = 5

# Report keys whose values depend on the evaluation schedule (thread
# sharding changes which lookup warms a memo first, request
# interleaving changes which submission warms the response cache, how
# many replicas get created depends on thread interleaving), excluded
# from the sequential/parallel equivalence comparison.  The span
# counters among them are the ones SPAN_COUNTERS marks so.
_SCHEDULE_SENSITIVE_KEYS = frozenset(
    {
        "lru_cache_hits", "lru_cache_misses", "lru_cache_hit_pct",
        "serve_cache_hits", "serve_cache_misses", "serve_cache_evictions",
        "prefix_hit_pct", *POOL_METRICS.values(),
        *(spec.metric for spec in SPAN_COUNTERS if not spec.deterministic),
    }
)


def _deterministic(section: dict[str, float]) -> dict[str, float]:
    return {
        key: value
        for key, value in section.items()
        if key not in _SCHEDULE_SENSITIVE_KEYS
    }


@dataclass
class RunReport:
    """One run's self-documenting report (see docs/OBSERVABILITY.md)."""

    dataset: str
    methods: list[str]
    examples: int
    traced: bool
    headline: dict[str, float]
    stage_rows: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    cache: dict[str, float] = field(default_factory=dict)
    repair: dict[str, float] = field(default_factory=dict)
    economy: dict[str, float] = field(default_factory=dict)

    def equivalence_key(self) -> dict:
        """The timing-free sections: identical across sequential/parallel.

        Schedule-sensitive fields (the memo, LRU, pool, prefix, batching
        and pattern-store counters) are reported but excluded here —
        which lookup warms a shared memo first is schedule-dependent even
        though every *result* is bit-identical.
        """
        return {
            "failures": self.failures,
            "cache": _deterministic(self.cache),
            "repair": _deterministic(self.repair),
            "economy": self.economy,
        }

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "methods": self.methods,
            "examples": self.examples,
            "traced": self.traced,
            "headline": self.headline,
            "stages": self.stage_rows,
            "failures": self.failures,
            "cache": self.cache,
            "repair": self.repair,
            "economy": self.economy,
        }


def build_run_report(
    records: list,
    spans: list[ExampleSpan] | tuple = (),
    metrics: MetricsRegistry | None = None,
    dataset: str = "?",
) -> RunReport:
    """Assemble a :class:`RunReport` from in-memory run components."""
    spans = list(spans)
    n = len(records)
    correct = sum(1 for r in records if r.ex)
    total_cost = sum(r.cost_usd for r in records)
    total_tokens = sum(r.total_tokens for r in records)

    headline = {
        "ex_pct": round(100.0 * correct / n, 2) if n else 0.0,
        "em_pct": round(100.0 * sum(1 for r in records if r.em) / n, 2) if n else 0.0,
        "avg_tokens": round(total_tokens / n, 1) if n else 0.0,
        "avg_cost_usd": round(total_cost / n, 6) if n else 0.0,
        "avg_latency_s": round(sum(r.latency_s for r in records) / n, 3) if n else 0.0,
    }

    stage_rows = [
        {
            "stage": stage,
            "calls": int(row["calls"]),
            "seconds": round(row["seconds"], 6),
            "share_pct": round(row["share_pct"], 2),
            "avg_ms": round(row["avg_ms"], 4),
            "cache_hits": int(row["cache_hits"]),
            "llm_calls": int(row["llm_calls"]),
            "output_tokens": int(row["output_tokens"]),
            **{spec.name: int(row[spec.name]) for spec in SPAN_COUNTERS},
        }
        for stage, row in stage_breakdown(spans).items()
    ]

    by_failure: dict[str, list[str]] = {}
    for span in spans:
        if span.failure is not None:
            by_failure.setdefault(span.failure, []).append(span.example_id)
    failures = []
    for tag, example_ids in sorted(
        by_failure.items(), key=lambda item: (-len(item[1]), item[0])
    ):
        try:
            category = failure_category(tag)
            stage, description = category.stage, category.description
        except KeyError:
            stage, description = "?", "unknown failure tag"
        failures.append(
            {
                "category": tag,
                "stage": stage,
                "count": len(example_ids),
                "share_pct": round(100.0 * len(example_ids) / n, 2) if n else 0.0,
                "examples": sorted(example_ids)[:_MAX_FAILURE_EXAMPLES],
                "description": description,
            }
        )

    def registry_total(name: str) -> int:
        return int(metrics.counter_total(name)) if metrics is not None else 0

    # Span-counter totals over every traced stage, keyed by metric name;
    # the ``repair_*`` ones fill the repair section, the rest the cache one.
    counter_totals = {
        spec.metric: sum(
            stage.counters.get(spec.name, 0)
            for span in spans
            for stage in span.stages
        )
        for spec in SPAN_COUNTERS
    }
    repair_counters = {
        metric: value
        for metric, value in counter_totals.items()
        if metric.startswith("repair_")
    }

    result_cache_hits = sum(1 for span in spans if span.cache_hit)
    gold_executions = registry_total("gold_executions")
    lru_hits = registry_total("lru_cache_hits")
    lru_misses = registry_total("lru_cache_misses")
    lru_lookups = lru_hits + lru_misses
    prefix_hits = counter_totals["prefix_hits"]
    prefix_lookups = prefix_hits + counter_totals["prefix_misses"]
    cache = {
        "examples": n,
        "result_cache_hits": result_cache_hits,
        "fresh_evaluations": n - result_cache_hits,
        "result_cache_hit_pct": round(100.0 * result_cache_hits / n, 2) if n else 0.0,
        "gold_executions": gold_executions,
        "gold_executions_saved": max(n - gold_executions, 0) if n else 0,
        "lru_cache_hits": lru_hits,
        "lru_cache_misses": lru_misses,
        "lru_cache_hit_pct": (
            round(100.0 * lru_hits / lru_lookups, 2) if lru_lookups else 0.0
        ),
        **{
            name: registry_total(name)
            for name in (
                "serve_cache_hits", "serve_cache_misses",
                "serve_cache_evictions", *POOL_METRICS.values(),
            )
        },
        **{
            metric: value
            for metric, value in counter_totals.items()
            if metric not in repair_counters
        },
        "prefix_hit_pct": (
            round(100.0 * prefix_hits / prefix_lookups, 2) if prefix_lookups else 0.0
        ),
    }

    repair_attempts = counter_totals["repair_attempts"]
    repair = {
        "repair_examples": sum(
            1
            for span in spans
            for stage in span.stages
            if stage.stage == "repair"
        ),
        **repair_counters,
        "repair_recovery_pct": (
            round(100.0 * counter_totals["repair_recovered"] / repair_attempts, 2)
            if repair_attempts
            else 0.0
        ),
    }

    economy = {
        "total_cost_usd": round(total_cost, 6),
        "cost_per_query_usd": round(total_cost / n, 6) if n else 0.0,
        "cost_per_correct_usd": round(cost_per_correct(total_cost, correct), 6)
        if correct or total_cost
        else 0.0,
        "correct": correct,
        "total_tokens": total_tokens,
        "tokens_per_query": round(total_tokens / n, 1) if n else 0.0,
    }

    return RunReport(
        dataset=dataset,
        methods=sorted({r.method for r in records}),
        examples=n,
        traced=bool(spans),
        headline=headline,
        stage_rows=stage_rows,
        failures=failures,
        cache=cache,
        repair=repair,
        economy=economy,
    )


def report_from_store(store, run_id: int | None = None) -> RunReport:
    """Rebuild a run's report from an :class:`ExperimentLogStore`.

    ``store`` is duck-typed (``runs``/``load_report``/``load_trace``/
    ``load_metrics``) to keep this module import-cycle free.  Defaults to
    the latest run.
    """
    runs = store.runs()
    if not runs:
        raise ValueError("log store holds no runs")
    if run_id is None:
        run_id = runs[-1][0]
    dataset = next((row[1] for row in runs if row[0] == run_id), "?")
    report = store.load_report(run_id)
    spans = store.load_trace(run_id)
    metrics = store.load_metrics(run_id)
    return build_run_report(
        report.records, spans=spans, metrics=metrics, dataset=dataset
    )


# -- rendering -----------------------------------------------------------


def _md_table(headers: list[str], rows: list[list[object]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def render_markdown(report: RunReport) -> str:
    """Render the report as a self-documenting Markdown document."""
    lines = [
        f"# Run report — {report.dataset}",
        "",
        f"Methods: {', '.join(report.methods)} · "
        f"examples: {report.examples} · "
        f"tracing: {'on' if report.traced else 'off'}",
        "",
        "## Headline metrics",
        "",
    ]
    lines += _md_table(
        ["EX %", "EM %", "Tok/q", "$/q", "Latency s/q"],
        [[
            report.headline["ex_pct"], report.headline["em_pct"],
            report.headline["avg_tokens"], report.headline["avg_cost_usd"],
            report.headline["avg_latency_s"],
        ]],
    )
    lines += ["", "## Stage-time breakdown", ""]
    if report.stage_rows:
        lines += _md_table(
            ["Stage", "Calls", "Total s", "Share %", "Avg ms",
             "Cache hits", "Memo hits", "LLM calls", "Out tokens"],
            [[
                row["stage"], row["calls"], f"{row['seconds']:.4f}",
                f"{row['share_pct']:.1f}", f"{row['avg_ms']:.3f}",
                row["cache_hits"], row.get("memo_hits", 0),
                row["llm_calls"], row["output_tokens"],
            ] for row in report.stage_rows],
        )
    else:
        lines.append("_No stage data — run with tracing enabled "
                     "(`--trace`, or `repro.obs.tracing()`)._")
    lines += ["", "## Failure categories", ""]
    if report.failures:
        lines += _md_table(
            ["Category", "Stage", "Count", "Share %", "Example ids"],
            [[
                row["category"], row["stage"], row["count"],
                f"{row['share_pct']:.1f}", ", ".join(row["examples"]),
            ] for row in report.failures],
        )
        lines.append("")
        for row in report.failures:
            lines.append(f"- **{row['category']}** — {row['description']}")
    elif report.traced:
        lines.append("_No failures recorded — every example was EX-correct._")
    else:
        lines.append("_No failure data — run with tracing enabled._")
    cache = report.cache
    lines += [
        "",
        "## Cache effectiveness",
        "",
        f"- result cache: {cache.get('result_cache_hits', 0)} of "
        f"{cache.get('examples', 0)} examples served from cache "
        f"({cache.get('result_cache_hit_pct', 0.0)}%)",
        f"- fresh evaluations: {cache.get('fresh_evaluations', 0)}",
        f"- gold executions: {cache.get('gold_executions', 0)} distinct "
        f"(saved {cache.get('gold_executions_saved', 0)} re-executions)",
        f"- hot-path memo hits: {cache.get('stage_memo_hits', 0)} across "
        f"traced stages (per-stage counts in the breakdown above)",
        f"- LRU caches: {cache.get('lru_cache_hits', 0)} hits / "
        f"{cache.get('lru_cache_misses', 0)} misses "
        f"({cache.get('lru_cache_hit_pct', 0.0)}% hit rate,"
        f" coordinator process)",
        f"- serve response cache: {cache.get('serve_cache_hits', 0)} hits / "
        f"{cache.get('serve_cache_misses', 0)} misses "
        f"({cache.get('serve_cache_evictions', 0)} evictions)",
        f"- read path: {cache.get('pool_checkouts', 0)} checkouts, "
        f"{cache.get('pool_replicas', 0)} replicas created, "
        f"{cache.get('pool_refreshes', 0)} refreshes, "
        f"{cache.get('pool_waits', 0)} waits during the run",
        f"- prompt prefix cache: {cache.get('prefix_hits', 0)} segment hits / "
        f"{cache.get('prefix_misses', 0)} misses "
        f"({cache.get('prefix_hit_pct', 0.0)}% hit rate)",
        f"- batched decoding: {cache.get('llm_batched_calls', 0)} batched "
        f"calls covering {cache.get('llm_batch_draws', 0)} draws",
        "",
        "## Self-repair",
        "",
    ]
    repair = report.repair
    if repair.get("repair_examples", 0):
        lines += [
            f"- repair stage entered on {repair.get('repair_examples', 0)} "
            f"examples",
            f"- repair attempts: {repair.get('repair_attempts', 0)} "
            f"({repair.get('repair_recovered', 0)} recovered, "
            f"{repair.get('repair_recovery_pct', 0.0)}% of attempts)",
            f"- pattern-store hits: {repair.get('repair_pattern_hits', 0)} "
            f"(schedule-sensitive; excluded from equivalence checks)",
        ]
    else:
        lines.append("_Repair disabled (no `repair` stage spans recorded)._")
    lines += [
        "",
        "## Economy",
        "",
        f"- total cost: ${report.economy.get('total_cost_usd', 0.0)}",
        f"- cost per query: ${report.economy.get('cost_per_query_usd', 0.0)}",
        f"- cost per correct query: "
        f"${report.economy.get('cost_per_correct_usd', 0.0)} "
        f"({report.economy.get('correct', 0)} correct)",
        f"- tokens per query: {report.economy.get('tokens_per_query', 0.0)}"
        f" ({report.economy.get('total_tokens', 0)} total)",
    ]
    return "\n".join(lines) + "\n"


def render_json(report: RunReport) -> str:
    """Render the report as deterministic, pretty-printed JSON."""
    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
