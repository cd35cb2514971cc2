"""repro.obs: observability — structured tracing, metrics, run reports.

The three modules are layered: :mod:`repro.obs.trace` collects nested
spans (``run -> method -> example -> stage``) through the ambient tracer
installed with :func:`tracing`; :mod:`repro.obs.registry` aggregates
counters/histograms per method×benchmark×hardness; and
:mod:`repro.obs.report` renders both — plus the evaluation records —
into a self-documenting Markdown/JSON run report (the ``repro
report-run`` CLI command).  See docs/OBSERVABILITY.md for the span,
metric, and report-field reference.

Inputs/outputs: re-exports only; see each module's docstring.

Thread/process safety: per re-exported class — tracers and registries
are thread-safe and merged across processes explicitly; report building
is stateless and safe anywhere.
"""

from repro.obs.prometheus import render_prometheus
from repro.obs.registry import (
    SPAN_COUNTERS,
    CounterSpec,
    HistogramSummary,
    MetricsRegistry,
    ingest_deltas,
    ingest_record,
    ingest_span,
)
from repro.obs.report import (
    RunReport,
    build_run_report,
    render_json,
    render_markdown,
    report_from_store,
)
from repro.obs.trace import (
    STAGES,
    ExampleSpan,
    MethodTrace,
    NullTracer,
    RunTrace,
    StageSpan,
    Tracer,
    build_run_trace,
    get_tracer,
    set_tracer,
    stage_breakdown,
    tracing,
)

__all__ = [
    "STAGES",
    "SPAN_COUNTERS",
    "CounterSpec",
    "ExampleSpan",
    "StageSpan",
    "MethodTrace",
    "RunTrace",
    "Tracer",
    "NullTracer",
    "build_run_trace",
    "stage_breakdown",
    "get_tracer",
    "set_tracer",
    "tracing",
    "MetricsRegistry",
    "HistogramSummary",
    "ingest_record",
    "ingest_span",
    "ingest_deltas",
    "render_prometheus",
    "RunReport",
    "build_run_report",
    "report_from_store",
    "render_markdown",
    "render_json",
]
