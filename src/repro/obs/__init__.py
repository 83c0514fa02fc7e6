"""``repro.obs``: spans and metrics for the solver stack.

The shared instrumentation substrate of the engine:

* :mod:`repro.obs.trace` -- a span-based tracer behind the
  ``REPRO_TRACE=off|summary|full`` knob, with a context-manager API,
  process/thread-safe span IDs with parent links, worker-span ingestion
  and JSONL export (rendered by ``tools/repro_trace.py``);
* :mod:`repro.obs.metrics` -- an opt-in registry of counters, gauges and
  latency histograms whose snapshot rides in sweep diagnostics under the
  schema-registered ``"metrics"`` key;
* :mod:`repro.obs.clock` -- the injectable monotonic clock every obs
  timestamp (and the sweep progress/ETA computation) reads, so timing
  behaviour is deterministic under test.

Everything here is dependency-light (stdlib only) and imported by the
hot paths, so the off-mode cost of an instrumentation point is one
environment lookup (tracing) or one ``None`` check (metrics) -- gated
under 1% of a 52k-state solve by ``benchmarks/bench_observability.py``.
"""

from __future__ import annotations

from repro.obs.clock import now, override_clock, set_clock
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    metrics_registry,
    observe,
    override_metrics,
    set_gauge,
    set_metrics_registry,
)
from repro.obs.trace import (
    DEFAULT_MODE,
    ENV_VAR,
    TRACE_MODES,
    Span,
    Tracer,
    current_tracer,
    detail_span,
    ingest_spans,
    install_tracer,
    override_trace,
    record_span,
    span,
    span_from_record,
    trace_mode,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MODE",
    "ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TRACE_MODES",
    "Tracer",
    "count",
    "current_tracer",
    "detail_span",
    "ingest_spans",
    "install_tracer",
    "metrics_registry",
    "now",
    "observe",
    "override_clock",
    "override_metrics",
    "override_trace",
    "record_span",
    "set_clock",
    "set_gauge",
    "set_metrics_registry",
    "span",
    "span_from_record",
    "trace_mode",
]
