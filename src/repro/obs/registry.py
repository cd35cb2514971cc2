"""Metrics registry: labelled counters and histogram summaries.

A :class:`MetricsRegistry` aggregates named counters and histograms with
free-form string labels (method, benchmark, hardness, stage, failure
category, ...).  The evaluation engines ingest one
:class:`~repro.core.metrics.EvaluationRecord` / span pair per example
via :func:`ingest_record` and :func:`ingest_span`; run reports and the
experiment log store consume the deterministic
:meth:`MetricsRegistry.as_dict` export.

Inputs/outputs: ``count``/``observe`` take a metric name plus keyword
labels; ``counters()``/``histograms()``/``as_dict()`` return views
sorted by (name, labels) so exports are byte-stable across runs and
across sequential vs parallel evaluation of the same configuration.

Thread/process safety: all mutators take an internal lock, so one
registry may be shared across threads.  Registries do not cross process
boundaries — merge per-worker or per-run registries into a parent with
:meth:`MetricsRegistry.merge` (histogram merges combine count/total/
min/max exactly, independent of merge order).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

# (metric name, sorted (label, value) pairs) — the aggregation key.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


@dataclass
class HistogramSummary:
    """Order-independent summary of one observed distribution."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "HistogramSummary") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "mean": round(self.mean, 9),
            "min": round(self.minimum, 9) if self.count else 0.0,
            "max": round(self.maximum, 9) if self.count else 0.0,
        }


def _key(name: str, labels: dict[str, object]) -> MetricKey:
    return (
        name,
        tuple(sorted((k, str(v)) for k, v in labels.items() if v is not None)),
    )


class MetricsRegistry:
    """Labelled counters and histograms with deterministic export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, HistogramSummary] = {}

    # -- writing ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = _key(name, labels)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = HistogramSummary()
            self._histograms[key].observe(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry."""
        with other._lock:
            counters = dict(other._counters)
            histograms = {k: v for k, v in other._histograms.items()}
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, summary in histograms.items():
                if key not in self._histograms:
                    self._histograms[key] = HistogramSummary()
                self._histograms[key].merge(summary)

    # -- reading ---------------------------------------------------------

    def counter_total(self, name: str, **labels: object) -> float:
        """Sum of all counters named ``name`` whose labels include ``labels``."""
        wanted = {(k, str(v)) for k, v in labels.items() if v is not None}
        with self._lock:
            return sum(
                value
                for (metric, key_labels), value in self._counters.items()
                if metric == name and wanted <= set(key_labels)
            )

    def counters(self) -> list[tuple[str, dict[str, str], float]]:
        """All counters as (name, labels, value), deterministically sorted."""
        with self._lock:
            items = sorted(self._counters.items())
        return [(name, dict(labels), value) for (name, labels), value in items]

    def histograms(self) -> list[tuple[str, dict[str, str], HistogramSummary]]:
        """All histograms as (name, labels, summary), sorted."""
        with self._lock:
            items = sorted(self._histograms.items())
        return [(name, dict(labels), summary) for (name, labels), summary in items]

    def as_dict(self) -> dict[str, list]:
        """Deterministic JSON-friendly export."""
        return {
            "counters": [
                {"name": name, "labels": labels, "value": value}
                for name, labels, value in self.counters()
            ],
            "histograms": [
                {"name": name, "labels": labels, **summary.as_dict()}
                for name, labels, summary in self.histograms()
            ],
        }


# -- evaluation-engine ingestion -----------------------------------------
# Duck-typed over EvaluationRecord / ExampleSpan to keep this module
# import-free of repro.core (which imports repro.obs).


def ingest_record(
    registry: MetricsRegistry,
    benchmark: str,
    record,
    cache_hit: bool = False,
) -> None:
    """Fold one :class:`EvaluationRecord` into per-method×benchmark×hardness metrics."""
    labels = {
        "method": record.method,
        "benchmark": benchmark,
        "hardness": record.hardness.value,
    }
    registry.count("examples", **labels)
    if record.ex:
        registry.count("ex_correct", **labels)
    if record.em:
        registry.count("em_correct", **labels)
    if cache_hit:
        registry.count("result_cache_hits", **labels)
    registry.observe("cost_usd", record.cost_usd, **labels)
    registry.observe("total_tokens", record.total_tokens, **labels)
    registry.observe("latency_s", record.latency_s, **labels)


def ingest_span(registry: MetricsRegistry, benchmark: str, span) -> None:
    """Fold one :class:`ExampleSpan` into stage/failure metrics."""
    if span.failure is not None:
        registry.count(
            "failures",
            category=span.failure,
            method=span.method,
            benchmark=benchmark,
        )
    for stage in span.stages:
        labels = {"stage": stage.stage, "method": span.method, "benchmark": benchmark}
        registry.observe("stage_seconds", stage.seconds, **labels)
        if stage.cache_hit:
            registry.count("stage_cache_hits", **labels)
        memo_hits = getattr(stage, "memo_hits", 0)
        if memo_hits:
            registry.count("stage_memo_hits", value=memo_hits, **labels)
        if stage.llm_calls:
            registry.count("llm_calls", value=stage.llm_calls, **labels)
        repair_attempts = getattr(stage, "repair_attempts", 0)
        if repair_attempts:
            registry.count("repair_attempts", value=repair_attempts, **labels)
        repair_recovered = getattr(stage, "repair_recovered", 0)
        if repair_recovered:
            registry.count("repair_recovered", value=repair_recovered, **labels)
        repair_pattern_hits = getattr(stage, "repair_pattern_hits", 0)
        if repair_pattern_hits:
            registry.count(
                "repair_pattern_hits", value=repair_pattern_hits, **labels
            )
        prefix_hits = getattr(stage, "prefix_hits", 0)
        if prefix_hits:
            registry.count("prefix_hits", value=prefix_hits, **labels)
        prefix_misses = getattr(stage, "prefix_misses", 0)
        if prefix_misses:
            registry.count("prefix_misses", value=prefix_misses, **labels)
        llm_batched_calls = getattr(stage, "llm_batched_calls", 0)
        if llm_batched_calls:
            registry.count(
                "llm_batched_calls", value=llm_batched_calls, **labels
            )
        llm_batch_draws = getattr(stage, "llm_batch_draws", 0)
        if llm_batch_draws:
            registry.count("llm_batch_draws", value=llm_batch_draws, **labels)


#: read-path counter -> metric name (PoolStats vocabulary -> ``pool_*``).
_POOL_METRIC_NAMES = {
    "created": "pool_replicas",
    "checkouts": "pool_checkouts",
    "refreshes": "pool_refreshes",
    "waits": "pool_waits",
}


def ingest_pool_deltas(
    registry: MetricsRegistry,
    benchmark: str,
    method: str,
    before: dict[str, int] | None,
    after: dict[str, int],
) -> None:
    """Fold one run's read-path (replica pool) counter deltas.

    ``before``/``after`` are summed ``Database.pool_stats()`` snapshots
    bracketing the run.  Emits ``pool_replicas`` / ``pool_checkouts`` /
    ``pool_refreshes`` / ``pool_waits`` so replica-pool contention is
    visible per run.  Zero deltas are skipped; a ``None`` snapshot skips
    ingestion.
    """
    if before is None:
        return
    for key, metric in _POOL_METRIC_NAMES.items():
        delta = after.get(key, 0) - before.get(key, 0)
        if delta > 0:
            registry.count(metric, value=delta, method=method, benchmark=benchmark)


def ingest_lru_deltas(
    registry: MetricsRegistry,
    benchmark: str,
    method: str,
    before: dict[str, dict[str, int]] | None,
) -> None:
    """Fold one run's LRU cache hit/miss deltas into counters.

    ``before`` is a :func:`~repro.utils.cache.lru_cache_stats` snapshot
    taken when the run started; the difference against the current
    totals is this run's share of the process-cumulative counters.
    Emits ``lru_cache_hits`` / ``lru_cache_misses`` per cache name (only
    the coordinator process's caches — worker-process memos do not
    cross the boundary).  A ``None`` snapshot skips ingestion.
    """
    if before is None:
        return
    from repro.utils.cache import lru_cache_stats

    for name, stats in sorted(lru_cache_stats().items()):
        prior = before.get(name, {})
        labels = {"cache": name, "method": method, "benchmark": benchmark}
        hits = stats["hits"] - prior.get("hits", 0)
        misses = stats["misses"] - prior.get("misses", 0)
        if hits > 0:
            registry.count("lru_cache_hits", value=hits, **labels)
        if misses > 0:
            registry.count("lru_cache_misses", value=misses, **labels)
