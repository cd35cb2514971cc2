"""Tier-2 perf smoke: three wall-clock bounds on the evaluation engine.

An untimed warm-up pass fills the process-level caches; fifteen
alternating untraced/traced sequential passes give median wall times,
per-stage medians and the median traced/untraced ratio of adjacent
passes (a warm pass takes a fraction of a second, so fewer repeats, or
medians taken apart, let host noise decide the overhead bound); a
``ParallelEvaluator`` fills a result cache that a second one
re-reads.  Bounds: the ``fewshot`` stage under 10% of traced stage
time, the warm parallel pass at most 1.10x the sequential pass, and
tracing overhead at most 25%.  It writes no file outside pytest's
temporary directory; identity and counter gates are tier-1 tests, and
``python3 perfbench/run.py --workload eval_zoo --seed N --trace 1``
gives throughput and per-layer figures.
"""

from __future__ import annotations

import statistics
import time

from repro.core.evaluator import Evaluator
from repro.core.logs import ExperimentLogStore
from repro.core.parallel import ParallelEvaluator
from repro.datagen.benchmark import build_benchmark, spider_like_config
from repro.methods.zoo import build_method
from repro.obs import stage_breakdown, tracing

METHODS = ("C3SQL", "DAILSQL", "SFT CodeS-7B")
REPEATS = 15
FEWSHOT_SHARE_BOUND_PCT = 10.0
WARM_PARALLEL_BOUND = 1.10
TRACE_OVERHEAD_BOUND_PCT = 25.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_eval_engine_wall_clock_bounds(tmp_path):
    dataset = build_benchmark(spider_like_config(scale=0.12, seed=42))

    def methods():
        return [build_method(name, seed=42) for name in METHODS]

    def sequential(traced: bool):
        evaluator = Evaluator(dataset, measure_timing=False)
        if not traced:
            return evaluator.evaluate_zoo(methods())
        with tracing():
            evaluator.evaluate_zoo(methods())
        return stage_breakdown(evaluator.trace_spans)

    def parallel():
        with ExperimentLogStore(str(tmp_path / "cache.db")) as store:
            with ParallelEvaluator(dataset, log_store=store, measure_timing=False) as engine:
                engine.evaluate_zoo(methods())
                return engine.stats

    sequential(traced=False)  # warm-up, untimed
    untraced, traced, breakdowns = [], [], []
    for _ in range(REPEATS):
        untraced.append(_timed(lambda: sequential(traced=False))[0])
        seconds, breakdown = _timed(lambda: sequential(traced=True))
        traced.append(seconds)
        breakdowns.append(breakdown)
    parallel()  # cold: fills the result cache
    warm_seconds, warm_stats = _timed(parallel)
    dataset.close()

    sequential_seconds = statistics.median(untraced)
    # Each traced pass against the untraced pass just before it: the
    # host's speed drifts within seconds, and adjacent passes share it.
    overhead_pct = 100.0 * (
        statistics.median(t / u for u, t in zip(untraced, traced)) - 1.0
    )
    stage_seconds = {
        stage: statistics.median(rows[stage]["seconds"] for rows in breakdowns)
        for stage in breakdowns[0]
    }
    fewshot_pct = 100.0 * stage_seconds["fewshot"] / sum(stage_seconds.values())

    assert warm_stats.predictions == 0
    assert fewshot_pct < FEWSHOT_SHARE_BOUND_PCT
    assert warm_seconds <= WARM_PARALLEL_BOUND * sequential_seconds
    assert overhead_pct <= TRACE_OVERHEAD_BOUND_PCT
