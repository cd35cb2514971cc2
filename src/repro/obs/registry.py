"""Metrics registry: labelled counters and histogram summaries.

A :class:`MetricsRegistry` aggregates named counters and histograms with
free-form string labels (method, benchmark, hardness, stage, failure
category, ...).  The evaluation engines ingest one
:class:`~repro.core.metrics.EvaluationRecord` / span pair per example
via :func:`ingest_record` and :func:`ingest_span`, and fold the deltas
of cumulative counter snapshots (LRU memos, replica pools, response
caches) with :func:`ingest_deltas`; run reports and the experiment log
store consume the deterministic :meth:`MetricsRegistry.as_dict` export.
:data:`SPAN_COUNTERS` declares each stage-span counter once, with its
deterministic-vs-schedule-sensitive class and its metric name.

Inputs/outputs: ``count``/``observe`` take a metric name plus keyword
labels; ``counters()``/``histograms()``/``as_dict()`` return views
sorted by (name, labels) so exports are byte-stable across runs and
across sequential vs parallel evaluation of the same configuration.

Thread/process safety: all mutators take an internal lock, so one
registry may be shared across threads.  A registry pickles as a
snapshot taken under its lock and arrives with a fresh lock, so a
gateway shard returns its registry over its socket as is; merge
per-worker, per-shard or per-run registries into a parent with
:meth:`MetricsRegistry.merge` (histogram merges combine count/total/
min/max exactly, independent of merge order).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable
from dataclasses import dataclass, replace

# Sorted (label, value) pairs, and (metric name, those pairs): the
# aggregation key.
LabelKey = tuple[tuple[str, str], ...]
MetricKey = tuple[str, LabelKey]


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
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

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


def label_key(labels: dict[str, object]) -> LabelKey:
    """The sorted ``(label, str(value))`` pairs of ``labels``, ``None`` values dropped."""
    return tuple(sorted((k, str(v)) for k, v in labels.items() if v is not None))


class MetricsRegistry:
    """Labelled counters and histograms with deterministic export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, HistogramSummary] = {}

    # -- writing ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels: object) -> None:
        self.add(counts=(((name, label_key(labels)), value),))

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.add(observations=(((name, label_key(labels)), value),))

    def add(
        self,
        counts: Iterable[tuple[MetricKey, float]] = (),
        observations: Iterable[tuple[MetricKey, float]] = (),
    ) -> None:
        """Add ``(key, value)`` counts and observations under one lock.

        Ingestion folds several metrics per record and span: it builds
        each label key once (:func:`label_key`) and adds them in one call.
        """
        with self._lock:
            for key, value in counts:
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, value in observations:
                summary = self._histograms.get(key)
                if summary is None:
                    summary = self._histograms[key] = HistogramSummary()
                summary.observe(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry."""
        counters, histograms = other._snapshot()
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, summary in histograms.items():
                if key not in self._histograms:
                    self._histograms[key] = HistogramSummary()
                self._histograms[key].merge(summary)

    def _snapshot(self) -> tuple[dict, dict]:
        """Copies of the counters and histogram summaries, taken under the lock."""
        with self._lock:
            return dict(self._counters), {
                key: replace(summary) for key, summary in self._histograms.items()
            }

    # Locks are not picklable: a registry pickles as its snapshot and
    # arrives with a fresh lock.
    def __getstate__(self) -> tuple:
        return self._snapshot()

    def __setstate__(self, state: tuple) -> None:
        self._lock = threading.Lock()
        self._counters, self._histograms = state

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
    labels = label_key({
        "method": record.method,
        "benchmark": benchmark,
        "hardness": record.hardness.value,
    })
    counts = [(("examples", labels), 1.0)]
    if record.ex:
        counts.append((("ex_correct", labels), 1.0))
    if record.em:
        counts.append((("em_correct", labels), 1.0))
    if cache_hit:
        counts.append((("result_cache_hits", labels), 1.0))
    registry.add(counts, (
        (("cost_usd", labels), record.cost_usd),
        (("total_tokens", labels), record.total_tokens),
        (("latency_s", labels), record.latency_s),
    ))




# -- stage-span counters -------------------------------------------------


@dataclass(frozen=True)
class CounterSpec:
    """One declared stage-span counter.

    ``deterministic`` counters are outcomes of the example itself and
    join :meth:`~repro.obs.trace.ExampleSpan.structure`; the others are
    schedule-sensitive (which evaluation warms a shared memo first, how
    draws group into batches) and are left out of every equivalence
    check.  ``metric`` is the registry counter :func:`ingest_span` emits
    and the key of the run report's ``cache`` or ``repair`` section
    (``repair`` holds the ``repair_*`` counters).
    """

    name: str
    deterministic: bool
    metric: str


#: Every counter a :class:`~repro.obs.trace.StageSpan` may carry, in
#: ``structure()`` order.  Spans, ``stage_breakdown``, metrics, run
#: reports and the log store's ``trace_spans`` columns derive from it.
SPAN_COUNTERS = (
    CounterSpec("memo_hits", False, "stage_memo_hits"),
    CounterSpec("repair_attempts", True, "repair_attempts"),
    CounterSpec("repair_recovered", True, "repair_recovered"),
    CounterSpec("repair_pattern_hits", False, "repair_pattern_hits"),
    CounterSpec("prefix_hits", False, "prefix_hits"),
    CounterSpec("prefix_misses", False, "prefix_misses"),
    CounterSpec("llm_batched_calls", False, "llm_batched_calls"),
    CounterSpec("llm_batch_draws", False, "llm_batch_draws"),
)

_COUNTER_METRICS = {spec.name: spec.metric for spec in SPAN_COUNTERS}


def ingest_span(registry: MetricsRegistry, benchmark: str, span) -> None:
    """Fold one :class:`ExampleSpan` into stage/failure metrics."""
    if span.failure is not None:
        registry.count(
            "failures",
            category=span.failure,
            method=span.method,
            benchmark=benchmark,
        )
    # "stage" sorts after "benchmark" and "method", so appending its pair
    # to the span's key gives each stage's sorted key.
    span_labels = label_key({"method": span.method, "benchmark": benchmark})
    counts: list[tuple[MetricKey, float]] = []
    observations: list[tuple[MetricKey, float]] = []
    for stage in span.stages:
        labels = span_labels + (("stage", str(stage.stage)),)
        observations.append((("stage_seconds", labels), stage.seconds))
        if stage.cache_hit:
            counts.append((("stage_cache_hits", labels), 1.0))
        if stage.llm_calls:
            counts.append((("llm_calls", labels), stage.llm_calls))
        for name, value in stage.counters.items():
            if value:
                counts.append(((_COUNTER_METRICS[name], labels), value))
    registry.add(counts, observations)


#: ``Database.pool_stats()`` key -> metric name, for :func:`ingest_deltas`.
POOL_METRICS = {
    "created": "pool_replicas",
    "checkouts": "pool_checkouts",
    "refreshes": "pool_refreshes",
    "waits": "pool_waits",
}


def ingest_deltas(
    registry: MetricsRegistry,
    before: dict[str, int] | None,
    after: dict[str, int],
    names: dict[str, str],
    **labels: object,
) -> None:
    """Fold ``after - before`` of cumulative counters into ``registry``.

    ``before``/``after`` are snapshots of process- or engine-cumulative
    counters bracketing a run, so the metrics carry only this run's
    share.  ``names`` maps each snapshot key to the metric it feeds;
    every metric gets ``labels``.  Deltas that are not positive are
    skipped; a ``None`` snapshot skips the fold.
    """
    if before is None:
        return
    for key, metric in names.items():
        delta = after.get(key, 0) - before.get(key, 0)
        if delta > 0:
            registry.count(metric, value=delta, **labels)
