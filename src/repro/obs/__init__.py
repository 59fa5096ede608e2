"""Observability layer: distributed tracing, span recording, metrics, logs.

Public surface for the rest of the stack:

* :mod:`repro.obs.trace` — the data model: :class:`TraceContext`
  propagation + :class:`Span` trees (``TRACE_KEY`` is the reserved
  ``Query.metadata`` carrier slot).
* :mod:`repro.obs.recorder` — :class:`SpanScope`, the one way a span is
  opened and closed (client, server, scatter and pipeline alike), the
  :func:`sampled` decision, and the per-process :class:`SpanRecorder` behind
  ``GET /debug/traces`` and the slow-query exemplar log.
* :mod:`repro.obs.metrics` — the unified :class:`MetricsRegistry` with
  Prometheus text exposition (``GET /metrics?format=text``).
* :mod:`repro.obs.logs` — per-subsystem trace-aware loggers and the worker
  log-forwarding buffer.
"""

from repro.obs.logs import (
    BufferedLogHandler,
    TraceIdFilter,
    configure_logging,
    current_trace_id,
    get_logger,
    replay_entries,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)
from repro.obs.recorder import (
    DEFAULT_BUFFER_SIZE,
    SpanRecorder,
    SpanScope,
    configure_recorder,
    get_recorder,
    sampled,
)
from repro.obs.trace import (
    TRACE_KEY,
    Span,
    TraceContext,
    build_tree,
    context_from_carrier,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "BufferedLogHandler",
    "TraceIdFilter",
    "configure_logging",
    "current_trace_id",
    "get_logger",
    "replay_entries",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "DEFAULT_BUFFER_SIZE",
    "SpanRecorder",
    "SpanScope",
    "configure_recorder",
    "get_recorder",
    "sampled",
    "TRACE_KEY",
    "Span",
    "TraceContext",
    "build_tree",
    "context_from_carrier",
    "new_span_id",
    "new_trace_id",
]
