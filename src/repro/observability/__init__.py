"""Zero-dependency observability for the SSN simulation stack.

Three cooperating pieces, all process-local and off by default:

* :mod:`~repro.observability.trace` — hierarchical spans (``campaign`` >
  ``chunk`` > ``task`` > ``newton_solve``/``assembly``/``lu_solve``) with a
  contextvar current-span stack, head-based sampling, detail levels and
  cross-ProcessPool stitching.
* :mod:`~repro.observability.metrics` — a registry of counters, gauges and
  fixed-bucket histograms whose merge semantics match
  :meth:`repro.spice.telemetry.SolverTelemetry.merge`; the one
  process-wide store of solver counters.
* :mod:`~repro.observability.export` — Chrome trace-event JSON (open in
  ``chrome://tracing`` or Perfetto), Prometheus text exposition, and human
  timeline summaries; :mod:`~repro.observability.atomic` publishes every
  artifact via tempfile + fsync + ``os.replace``.

Two operational layers build on those three:

* :mod:`~repro.observability.events` — a durable, schema-versioned JSONL
  event journal (bounded ring + atomic rotation, cross-ProcessPool
  adoption, span correlation ids) recording what *happened*: request
  outcomes, chunk retries, quarantines, surrogate demotions.
* :mod:`~repro.observability.health` — the operator view: rolling-window
  SLO rates, the ``/statusz`` payload, and the crash-time flight
  recorder.

Everything is process-local, so a process pool carries the collectors
across together: :func:`repro.analysis.parallel.parallel_map` gives each
worker task fresh ones and adopts the one envelope of spans, metrics and
events the task returns.

See ``docs/observability.md`` for the span taxonomy, event schema, bucket
layouts, overhead budget and CLI workflow (``--trace`` / ``--metrics`` /
``repro trace summarize`` / ``repro events`` / ``repro status``).
"""

from .atomic import atomic_write, atomic_write_json
from .events import (
    EVENT_SCHEMA_VERSION,
    EventJournal,
    active_journal,
    adopt_events,
    disable_events,
    emit,
    enable_events,
    read_journal,
    snapshot_events,
    summarize_events,
)
from .health import (
    SloAggregator,
    flight_record,
    maybe_flight_record,
    statusz_snapshot,
)
from .metrics import (
    MetricsRegistry,
    active_registry,
    disable_metrics,
    enable_metrics,
)
from .trace import (
    Span,
    Tracer,
    active_tracer,
    adopt_spans,
    current_span_id,
    disable_tracing,
    enable_tracing,
    snapshot_spans,
    span,
)
from .export import (
    summarize_trace_file,
    timeline_summary,
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_prometheus,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventJournal",
    "MetricsRegistry",
    "SloAggregator",
    "Span",
    "Tracer",
    "active_journal",
    "active_registry",
    "active_tracer",
    "adopt_events",
    "adopt_spans",
    "atomic_write",
    "atomic_write_json",
    "current_span_id",
    "disable_events",
    "disable_metrics",
    "disable_tracing",
    "emit",
    "enable_events",
    "enable_metrics",
    "enable_tracing",
    "flight_record",
    "maybe_flight_record",
    "read_journal",
    "snapshot_events",
    "snapshot_spans",
    "span",
    "statusz_snapshot",
    "summarize_events",
    "summarize_trace_file",
    "timeline_summary",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
]
