"""Per-layer figures of a traced run, named after the program's modules.

Sources: the benchmark's timing shims (:mod:`shims`), the example spans
the program's tracer collects (``repro.obs``), and counters each
workload reads from the program.  Every figure comes with its sample
count.  A figure whose layer is not on the workload's path has no
samples and reads 0; ``layers.json`` lists, for each figure, the
workloads it describes and the end-to-end metric it should move.
"""

from __future__ import annotations

from common import layer_percentile

#: Pipeline stages in execution order (``repro.obs.trace.STAGES`` minus repair,
#: which no workload enables).
STAGES = (
    "schema_linking", "fewshot", "prompt_build", "decode",
    "post_process", "execute", "score",
)

Figures = dict[str, tuple[float, int]]


def shim_figures(shims) -> Figures:
    """Timings and outcome ratios recorded by the benchmark's shims."""
    s = shims.samples
    c = shims.counters
    ms, us, sec = 1e-6, 1e-3, 1e-9
    out: Figures = {}
    out["core.evaluate_example_ms.p50"] = layer_percentile(s["core.evaluate_example"], 50, ms)
    out["core.evaluate_example_ms.p99"] = layer_percentile(s["core.evaluate_example"], 99, ms)
    out["core.parallel.method_s.p50"] = layer_percentile(s["core.parallel.evaluate_method"], 50, sec)
    out["methods.predict_ms.p50"] = layer_percentile(s["methods.predict"], 50, ms)
    out["modules.build_prompt_us.p50"] = layer_percentile(s["modules.build_prompt"], 50, us)
    calls = len(s["modules.build_prompt"])
    out["modules.build_prompt.calls"] = (float(calls), calls)
    out["modules.post_process_us.p50"] = layer_percentile(s["modules.post_process"], 50, us)
    out["llm.generate_many_us.p50"] = layer_percentile(s["llm.generate_many"], 50, us)
    calls = len(s["llm.generate_many"])
    out["llm.generate_many.calls"] = (float(calls), calls)
    out["nlu.parse_us.p50"] = layer_percentile(s["nlu.parse"], 50, us)
    predicts = len(s["methods.predict"])
    out["nlu.parse_per_predict"] = (len(s["nlu.parse"]) / predicts if predicts else 0.0, predicts)
    out["sqlkit.exact_match_us.p50"] = layer_percentile(s["sqlkit.exact_match"], 50, us)
    checks = len(s["sqlkit.picard_accepts"])
    out["sqlkit.picard_accept_pct"] = (
        100.0 * c["sqlkit.picard_accepted"] / checks if checks else 0.0, checks
    )
    out["dbengine.execute_us.p50"] = layer_percentile(s["dbengine.execute"], 50, us)
    calls = len(s["dbengine.execute"])
    out["dbengine.execute.calls"] = (float(calls), calls)
    cached = len(s["dbengine.execute_cached"])
    out["dbengine.exec_memo_hit_pct"] = (
        100.0 * c["dbengine.exec_memo_hits"] / cached if cached else 0.0, cached
    )
    out["dbengine.apply_write_us.p50"] = layer_percentile(s["dbengine.apply_write"], 50, us)
    return out


def stage_figures(rows: dict[str, dict[str, float]]) -> Figures:
    """Per-stage mean time and share, plus LM batching and prefix-cache ratios.

    ``rows`` is shaped like ``repro.obs.stage_breakdown`` output:
    stage -> {calls, seconds, prefix_hits, prefix_misses,
    llm_batched_calls, llm_batch_draws}.
    """
    out: Figures = {}
    total = sum(row["seconds"] for row in rows.values())
    for stage in STAGES:
        row = rows.get(stage)
        calls = int(row["calls"]) if row else 0
        seconds = row["seconds"] if row else 0.0
        out[f"stage.{stage}.ms"] = (1000.0 * seconds / calls if calls else 0.0, calls)
        out[f"stage.{stage}.share_pct"] = (100.0 * seconds / total if total else 0.0, calls)
    batched = sum(row.get("llm_batched_calls", 0) for row in rows.values())
    draws = sum(row.get("llm_batch_draws", 0) for row in rows.values())
    out["llm.draws_per_call"] = (draws / batched if batched else 0.0, int(batched))
    hits = sum(row.get("prefix_hits", 0) for row in rows.values())
    lookups = hits + sum(row.get("prefix_misses", 0) for row in rows.values())
    out["llm.prefix_hit_pct"] = (100.0 * hits / lookups if lookups else 0.0, int(lookups))
    return out


def serve_figures(
    engine: dict[str, int], pool: dict[str, int], requests: int,
    waits_s: list[float], service_s: list[float],
) -> Figures:
    """Serving-engine figures from ``ServeStats`` and pool-counter deltas.

    ``waits_s`` are the queue waits of requests the cache did not answer;
    ``service_s`` the service times of the computations among them.
    """
    batches = engine["batches"]
    windows = engine["decode_windows"]
    return {
        "serve.queue_wait_ms.p50": layer_percentile(waits_s, 50, 1000.0),
        "serve.queue_wait_ms.p99": layer_percentile(waits_s, 99, 1000.0),
        "serve.service_ms.p50": layer_percentile(service_s, 50, 1000.0),
        "serve.service_ms.p99": layer_percentile(service_s, 99, 1000.0),
        "serve.cache_hit_pct": (100.0 * engine["cache_hits"] / requests, requests),
        "serve.coalesce_pct": (100.0 * engine["coalesce_hits"] / requests, requests),
        "serve.computed": (float(engine["computed"]), engine["computed"]),
        "serve.batch_size_mean": (
            (engine["computed"] + engine["shed"]) / batches if batches else 0.0, batches
        ),
        "serve.decode_draws_per_window": (
            engine["decode_draws"] / windows if windows else 0.0, windows
        ),
        "dbengine.pool.refreshes": (float(pool["refreshes"]), pool["refreshes"]),
        "dbengine.pool.waits": (float(pool["waits"]), pool["waits"]),
    }
