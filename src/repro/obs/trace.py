"""Structured tracing for the evaluation path.

A :class:`Tracer` collects one :class:`ExampleSpan` per (method, example)
evaluation; each holds ordered :class:`StageSpan` children for the
pipeline stages in :data:`STAGES` (schema linking, few-shot retrieval,
prompt build, decode, post-process, repair, execute, score), with wall time,
LLM-call/token counters, cache-hit flags, hot-path memo-hit counters, and a failure-taxonomy tag from
:func:`repro.core.taxonomy.classify_failure`.  :func:`build_run_trace`
groups the flat span stream into the canonical ``run -> method ->
example -> stage`` hierarchy; :func:`stage_breakdown` aggregates the
per-stage timing table used by run reports and ``perfbench``'s
``stage.*`` metrics.

Inputs/outputs: instrumented code fetches the ambient tracer via
:func:`get_tracer` (installed with :func:`set_tracer` or the
:func:`tracing` context manager) and opens spans with the ``example`` /
``stage`` context managers; consumers pull finished spans with
:meth:`Tracer.drain`, which sorts deterministically by
(method, example id) so sequential and parallel runs of the same
configuration yield identical merged span trees modulo timings.

Thread/process safety: one ``Tracer`` may be shared by many threads —
open-span state is thread-local and the finished-span list is
lock-guarded, so a thread-pool evaluation interleaves safely.  Tracers
do not cross process boundaries: each worker process installs its own
tracer and ships finished spans back pickled (plain dataclasses); the
coordinator re-injects them with :meth:`Tracer.add_spans`.  The disabled
:class:`NullTracer` (the default ambient tracer) reduces every hook to a
shared no-op context manager, so tracing costs ~nothing when off.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.registry import MetricsRegistry

# Pipeline stages in execution order.  Unknown stage names are allowed
# (custom methods may emit their own); these are the canonical eight.
# The repair stage appears only for methods with ``config.repair`` set.
STAGES = (
    "schema_linking",
    "fewshot",
    "prompt_build",
    "decode",
    "post_process",
    "repair",
    "execute",
    "score",
)


@dataclass
class StageSpan:
    """One pipeline stage within one example evaluation.

    ``memo_hits`` counts hot-path memo hits observed inside the stage
    (few-shot selection memo, intent memo, PICARD verdict memo,
    candidate-execution LRU).  Unlike ``cache_hit`` it is deliberately
    *excluded* from :meth:`ExampleSpan.structure`: memos are shared
    process-wide, so hit patterns legitimately differ between sequential
    and sharded parallel runs even though results are bit-identical.

    The ``repair_*`` counters are populated only on ``repair`` stage
    spans: attempts consumed and whether the prediction was recovered
    are deterministic outcomes of the example (included in
    ``structure()``), while ``repair_pattern_hits`` — like ``memo_hits``
    — depends on which evaluation warmed the method's pattern store
    first, so it is excluded.

    ``prefix_hits`` / ``prefix_misses`` count prompt-prefix-cache segment
    lookups (see :class:`repro.llm.engine.PromptPrefixCache`) and
    ``llm_batched_calls`` / ``llm_batch_draws`` count batched
    ``generate_many`` invocations and the draws they carried.  All four
    are schedule-sensitive (cache warm-up order, batching switch) while
    the *results* stay bit-identical, so — like ``memo_hits`` — they are
    excluded from ``structure()``.
    """

    stage: str
    seconds: float = 0.0
    cache_hit: bool = False
    llm_calls: int = 0
    output_tokens: int = 0
    memo_hits: int = 0
    repair_attempts: int = 0
    repair_recovered: int = 0
    repair_pattern_hits: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0
    llm_batched_calls: int = 0
    llm_batch_draws: int = 0


@dataclass
class ExampleSpan:
    """One (method, example) evaluation with its ordered stage spans."""

    method: str
    example_id: str
    stages: list[StageSpan] = field(default_factory=list)
    seconds: float = 0.0
    # Served from the persistent cross-run result cache (no stages then).
    cache_hit: bool = False
    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: float = 0.0
    failure: str | None = None

    def structure(self) -> tuple:
        """Timing-free identity: everything except wall-clock seconds.

        Two runs of the same configuration — sequential or parallel —
        must produce equal structures for every example.
        """
        return (
            self.method,
            self.example_id,
            self.cache_hit,
            self.input_tokens,
            self.output_tokens,
            round(self.cost_usd, 9),
            self.failure,
            tuple(
                (s.stage, s.cache_hit, s.llm_calls, s.output_tokens,
                 s.repair_attempts, s.repair_recovered)
                for s in self.stages
            ),
        )


class _NullSpan:
    """Write-only sink: annotation assignments vanish."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        pass


class _NullContext:
    """Reusable no-op context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects spans and hosts the run's :class:`MetricsRegistry`."""

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: list[ExampleSpan] = []
        self._tls = threading.local()

    # -- span context managers ------------------------------------------

    @contextmanager
    def example(self, method: str, example_id: str):
        """Open the example-level span; stages nest inside it."""
        span = ExampleSpan(method=method, example_id=example_id)
        previous = getattr(self._tls, "example", None)
        self._tls.example = span
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - start
            self._tls.example = previous
            with self._lock:
                self._spans.append(span)

    def stage(self, stage: str):
        """Open a stage span inside the current example (no-op outside)."""
        current = getattr(self._tls, "example", None)
        if current is None:
            return _NULL_CONTEXT
        return self._stage_context(stage, current)

    @contextmanager
    def _stage_context(self, stage: str, example_span: ExampleSpan):
        span = StageSpan(stage=stage)
        previous = getattr(self._tls, "stage", None)
        self._tls.stage = span
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - start
            self._tls.stage = previous
            example_span.stages.append(span)

    def annotate_stage(
        self,
        llm_calls: int = 0,
        output_tokens: int = 0,
        memo_hits: int = 0,
        repair_attempts: int = 0,
        repair_recovered: int = 0,
        repair_pattern_hits: int = 0,
        prefix_hits: int = 0,
        prefix_misses: int = 0,
        llm_batched_calls: int = 0,
        llm_batch_draws: int = 0,
    ) -> None:
        """Add counters to the innermost open stage span (if any)."""
        span = getattr(self._tls, "stage", None)
        if span is not None:
            span.llm_calls += llm_calls
            span.output_tokens += output_tokens
            span.memo_hits += memo_hits
            span.repair_attempts += repair_attempts
            span.repair_recovered += repair_recovered
            span.repair_pattern_hits += repair_pattern_hits
            span.prefix_hits += prefix_hits
            span.prefix_misses += prefix_misses
            span.llm_batched_calls += llm_batched_calls
            span.llm_batch_draws += llm_batch_draws

    # -- collection ------------------------------------------------------

    def add_spans(self, spans: list[ExampleSpan]) -> None:
        """Merge externally collected spans (e.g. from worker processes)."""
        if not spans:
            return
        with self._lock:
            self._spans.extend(spans)

    def drain(self, method: str | None = None) -> list[ExampleSpan]:
        """Remove and return finished spans, deterministically sorted.

        Sorting by (method, example id) makes the result independent of
        collection order, so worker sharding cannot change it.
        """
        with self._lock:
            if method is None:
                taken, self._spans = self._spans, []
            else:
                taken = [s for s in self._spans if s.method == method]
                self._spans = [s for s in self._spans if s.method != method]
        return sorted(taken, key=lambda s: (s.method, s.example_id))


class NullTracer(Tracer):
    """Disabled tracer: every hook is a shared no-op."""

    enabled = False

    def example(self, method: str, example_id: str):  # type: ignore[override]
        return _NULL_CONTEXT

    def stage(self, stage: str):
        return _NULL_CONTEXT

    def annotate_stage(
        self,
        llm_calls: int = 0,
        output_tokens: int = 0,
        memo_hits: int = 0,
        repair_attempts: int = 0,
        repair_recovered: int = 0,
        repair_pattern_hits: int = 0,
        prefix_hits: int = 0,
        prefix_misses: int = 0,
        llm_batched_calls: int = 0,
        llm_batch_draws: int = 0,
    ) -> None:
        pass


_NULL_TRACER = NullTracer()
_ACTIVE: Tracer = _NULL_TRACER


def get_tracer() -> Tracer:
    """The ambient tracer (a disabled :class:`NullTracer` by default)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> None:
    """Install ``tracer`` ambiently; ``None`` restores the null tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else _NULL_TRACER


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scoped ambient tracing: installs ``tracer`` (default: a fresh one)."""
    tracer = tracer if tracer is not None else Tracer()
    previous = _ACTIVE
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# -- hierarchy & aggregation ---------------------------------------------


@dataclass
class MethodTrace:
    """All example spans of one method within a run."""

    method: str
    examples: list[ExampleSpan]

    @property
    def seconds(self) -> float:
        return sum(span.seconds for span in self.examples)


@dataclass
class RunTrace:
    """The ``run -> method -> example -> stage`` hierarchy."""

    dataset: str
    methods: list[MethodTrace]

    @property
    def seconds(self) -> float:
        return sum(method.seconds for method in self.methods)


def build_run_trace(dataset: str, spans: list[ExampleSpan]) -> RunTrace:
    """Group a flat span stream into the canonical hierarchy.

    Methods sort by name and examples by id, so the result is identical
    for sequential and parallel runs of the same configuration.
    """
    by_method: dict[str, list[ExampleSpan]] = {}
    for span in spans:
        by_method.setdefault(span.method, []).append(span)
    methods = [
        MethodTrace(
            method=name,
            examples=sorted(by_method[name], key=lambda s: s.example_id),
        )
        for name in sorted(by_method)
    ]
    return RunTrace(dataset=dataset, methods=methods)


def stage_breakdown(spans: list[ExampleSpan]) -> dict[str, dict[str, float]]:
    """Aggregate stage spans into the per-stage timing table.

    Returns ``stage -> {calls, seconds, avg_ms, cache_hits, memo_hits,
    llm_calls, output_tokens, repair_attempts, repair_recovered,
    repair_pattern_hits, prefix_hits, prefix_misses, llm_batched_calls,
    llm_batch_draws, share_pct}`` with stages in canonical order
    (unknown stages follow alphabetically).
    """
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        for stage in span.stages:
            row = totals.setdefault(
                stage.stage,
                {"calls": 0, "seconds": 0.0, "cache_hits": 0,
                 "memo_hits": 0, "llm_calls": 0, "output_tokens": 0,
                 "repair_attempts": 0, "repair_recovered": 0,
                 "repair_pattern_hits": 0, "prefix_hits": 0,
                 "prefix_misses": 0, "llm_batched_calls": 0,
                 "llm_batch_draws": 0},
            )
            row["calls"] += 1
            row["seconds"] += stage.seconds
            row["cache_hits"] += int(stage.cache_hit)
            row["memo_hits"] += stage.memo_hits
            row["llm_calls"] += stage.llm_calls
            row["output_tokens"] += stage.output_tokens
            row["repair_attempts"] += stage.repair_attempts
            row["repair_recovered"] += stage.repair_recovered
            row["repair_pattern_hits"] += stage.repair_pattern_hits
            row["prefix_hits"] += stage.prefix_hits
            row["prefix_misses"] += stage.prefix_misses
            row["llm_batched_calls"] += stage.llm_batched_calls
            row["llm_batch_draws"] += stage.llm_batch_draws
    grand_total = sum(row["seconds"] for row in totals.values())
    for row in totals.values():
        row["avg_ms"] = 1000.0 * row["seconds"] / max(row["calls"], 1)
        row["share_pct"] = 100.0 * row["seconds"] / grand_total if grand_total else 0.0
    order = {stage: rank for rank, stage in enumerate(STAGES)}
    return {
        stage: totals[stage]
        for stage in sorted(totals, key=lambda s: (order.get(s, len(order)), s))
    }
