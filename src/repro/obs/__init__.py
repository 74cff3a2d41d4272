"""Unified observability: metrics registry, span tracing, exporters.

One import surface for the telemetry substrate:

* :class:`MetricsRegistry` — thread-safe labeled counters / gauges /
  fixed-bucket histograms with plain-data :meth:`snapshot()
  <repro.obs.metrics.MetricsRegistry.snapshot>` and an
  order-independent :meth:`merge()
  <repro.obs.metrics.MetricsRegistry.merge>` for federating snapshots
  (``SummaryService.telemetry()`` folds every layer into one);
* :class:`Tracer` — nested spans on ``perf_counter`` offsets (no
  wall-clock, no RNG), with JSON-lines and Chrome trace-event writers;
* :func:`render_prometheus` / :func:`render_json` — exporters over any
  snapshot, plus :func:`parse_prometheus_text` for validation;
* :class:`~repro.utils.timing.Stopwatch` — the canonical monotonic
  interval timer, re-exported here as part of the observability API.

Everything has a null-object disabled path (:data:`NULL_METRICS`,
:data:`NULL_TRACER`), and nothing in this package can perturb a
summary: telemetry observes runs, it never participates in them.
"""

from __future__ import annotations

from repro.obs.export import (
    parse_prometheus_text,
    render_json,
    render_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    ingest_stats,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.utils.timing import Stopwatch, time_call

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Span",
    "Stopwatch",
    "Tracer",
    "ingest_stats",
    "parse_prometheus_text",
    "render_json",
    "render_prometheus",
    "time_call",
]
