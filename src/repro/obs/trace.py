"""Structured tracing for the evaluation path.

A :class:`Tracer` collects one :class:`ExampleSpan` per (method, example)
evaluation; each holds ordered :class:`StageSpan` children for the
pipeline stages in :data:`STAGES` (schema linking, few-shot retrieval,
prompt build, decode, post-process, repair, execute, score), with wall time,
LLM-call/token counters, cache-hit flags, the declared counters of
:data:`repro.obs.registry.SPAN_COUNTERS`, and a failure-taxonomy tag from
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
lock-guarded, so the serving engine's worker threads interleave safely.
Tracers do not cross process boundaries: each worker process installs
its own tracer and ships finished spans back pickled (plain
dataclasses); the coordinator re-injects them with
:meth:`Tracer.add_spans`.  The disabled
:class:`NullTracer` (the default ambient tracer) reduces every hook to a
shared no-op context manager, so tracing costs ~nothing when off.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.registry import SPAN_COUNTERS, MetricsRegistry

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

# One zero per declared span counter, in table order.
_ZERO_COUNTERS = {spec.name: 0 for spec in SPAN_COUNTERS}
# The deterministic counters join ExampleSpan.structure(); the rest are
# schedule-sensitive and left out of it.
_STRUCTURE_COUNTERS = tuple(
    spec.name for spec in SPAN_COUNTERS if spec.deterministic
)


@dataclass
class StageSpan:
    """One pipeline stage within one example evaluation.

    ``counters`` holds the declared counters of
    :data:`~repro.obs.registry.SPAN_COUNTERS` (memo hits, repair
    outcomes, prompt-prefix lookups, batched decodes) by name.  A zero
    count is never stored, so a span equals its log-store round trip.
    """

    stage: str
    seconds: float = 0.0
    cache_hit: bool = False
    llm_calls: int = 0
    output_tokens: int = 0
    counters: dict[str, int] = field(default_factory=dict)


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
        """Timing-free identity: everything except wall-clock seconds
        and the schedule-sensitive stage counters.

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
                 *(s.counters.get(name, 0) for name in _STRUCTURE_COUNTERS))
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


# The span contexts are plain classes rather than generator context
# managers, the cheaper of the two: a traced example opens one example
# and about seven stage spans.


class _ExampleContext:
    """Times one example span and hands it to its tracer when done."""

    __slots__ = ("_tracer", "_span", "_previous", "_start")

    def __init__(self, tracer: "Tracer", span: ExampleSpan) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> ExampleSpan:
        tls = self._tracer._tls
        self._previous = getattr(tls, "example", None)
        tls.example = self._span
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        tracer = self._tracer
        self._span.seconds = time.perf_counter() - self._start
        tracer._tls.example = self._previous
        with tracer._lock:
            tracer._spans.append(self._span)
        return False


class _StageContext:
    """Times one stage span and appends it to its example span."""

    __slots__ = ("_tls", "_span", "_example", "_previous", "_start")

    def __init__(self, tls: threading.local, span: StageSpan, example: ExampleSpan) -> None:
        self._tls = tls
        self._span = span
        self._example = example

    def __enter__(self) -> StageSpan:
        self._previous = getattr(self._tls, "stage", None)
        self._tls.stage = self._span
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._span.seconds = time.perf_counter() - self._start
        self._tls.stage = self._previous
        self._example.stages.append(self._span)
        return False


class Tracer:
    """Collects spans and hosts the run's :class:`MetricsRegistry`."""

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: list[ExampleSpan] = []
        self._tls = threading.local()

    # -- span context managers ------------------------------------------

    def example(self, method: str, example_id: str):
        """Open the example-level span; stages nest inside it."""
        return _ExampleContext(self, ExampleSpan(method=method, example_id=example_id))

    def stage(self, stage: str):
        """Open a stage span inside the current example (no-op outside)."""
        current = getattr(self._tls, "example", None)
        if current is None:
            return _NULL_CONTEXT
        return _StageContext(self._tls, StageSpan(stage=stage), current)

    def annotate_stage(
        self, llm_calls: int = 0, output_tokens: int = 0, **counts: int
    ) -> None:
        """Add counters to the innermost open stage span (if any).

        ``counts`` takes the names declared in
        :data:`~repro.obs.registry.SPAN_COUNTERS`; any other name raises
        :class:`TypeError`.
        """
        if not counts.keys() <= _ZERO_COUNTERS.keys():
            undeclared = sorted(counts.keys() - _ZERO_COUNTERS.keys())
            raise TypeError(f"undeclared span counters: {undeclared}")
        span = getattr(self._tls, "stage", None)
        if span is not None:
            span.llm_calls += llm_calls
            span.output_tokens += output_tokens
            for name, value in counts.items():
                if value:
                    span.counters[name] = span.counters.get(name, 0) + value

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
        self, llm_calls: int = 0, output_tokens: int = 0, **counts: int
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

    Returns ``stage -> {calls, seconds, avg_ms, cache_hits, llm_calls,
    output_tokens, share_pct}`` plus one key per declared span counter
    (:data:`~repro.obs.registry.SPAN_COUNTERS`), with stages in
    canonical order (unknown stages follow alphabetically).
    """
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        for stage in span.stages:
            row = totals.get(stage.stage)
            if row is None:
                row = totals[stage.stage] = {
                    "calls": 0, "seconds": 0.0, "cache_hits": 0,
                    "llm_calls": 0, "output_tokens": 0, **_ZERO_COUNTERS,
                }
            row["calls"] += 1
            row["seconds"] += stage.seconds
            row["cache_hits"] += int(stage.cache_hit)
            row["llm_calls"] += stage.llm_calls
            row["output_tokens"] += stage.output_tokens
            for name, value in stage.counters.items():
                row[name] += value
    grand_total = sum(row["seconds"] for row in totals.values())
    for row in totals.values():
        row["avg_ms"] = 1000.0 * row["seconds"] / max(row["calls"], 1)
        row["share_pct"] = 100.0 * row["seconds"] / grand_total if grand_total else 0.0
    order = {stage: rank for rank, stage in enumerate(STAGES)}
    return {
        stage: totals[stage]
        for stage in sorted(totals, key=lambda s: (order.get(s, len(order)), s))
    }
