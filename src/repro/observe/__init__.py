"""Observability for the reproduction: tracing, metrics, trace export.

The pipeline's value is *measurement*, so the pipeline itself must be
measurable: which stage is slow, which cache is cold, which intercepted
binary burned the time.  This package is the dependency-free layer that
answers those questions:

- :mod:`repro.observe.tracer`  -- nested spans with deterministic ids
  (monotonic counters; farm merges stay reproducible) and a zero-cost
  :data:`NULL_TRACER` for the disabled path;
- :mod:`repro.observe.metrics` -- :class:`MetricsRegistry` of counters /
  gauges / histograms / distinct-sets that serializes and merges with
  order-independent operations (and its :class:`LatencyHistogram`);
- :mod:`repro.observe.export`  -- JSONL and Chrome ``trace_event``
  writers plus a loader for ``repro trace summary``;
- :mod:`repro.observe.summary` -- per-stage p50/p95/max table and the
  one-line digest ``repro measure`` prints by default;
- :mod:`repro.observe.merge`   -- deterministic re-iding of per-shard
  span lists into one trace;
- :mod:`repro.observe.events`  -- leveled structured event log (bounded
  ring + optional JSONL sink) with a zero-cost :data:`NULL_EVENT_LOG`;
- :mod:`repro.observe.prom`    -- Prometheus text exposition of the
  registry plus the in-repo parser/validator and bucket-quantile math;
- :mod:`repro.observe.top`     -- the ``repro top`` dashboard snapshot
  builders and renderer.

Instrumented call sites accept a tracer and default to the null tracer,
so library users pay nothing unless they opt in::

    from repro.observe import Tracer, MetricsRegistry
    tracer, registry = Tracer(), MetricsRegistry()
    report = DyDroid(config, tracer=tracer, metrics=registry).measure(corpus)
    write_trace(tracer.to_dicts(), "trace.json", fmt="chrome")
"""

from repro.observe.events import (
    EVENT_LEVELS,
    Event,
    EventLog,
    NULL_EVENT_LOG,
    NullEventLog,
    load_events,
)
from repro.observe.export import TRACE_FORMATS, load_spans, to_chrome_events, write_trace
from repro.observe.merge import merge_span_lists
from repro.observe.metrics import (
    Counter,
    DistinctSet,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    defense_summary,
    evolution_summary,
    lease_summary,
    triage_summary,
    verdict_cache_summary,
    verdict_store_summary,
)
from repro.observe.prom import (
    PROM_CONTENT_TYPE,
    PromParseError,
    histogram_quantiles,
    merge_expositions,
    parse_prometheus,
    quantile_from_buckets,
    to_prometheus,
)
from repro.observe.summary import StageStats, digest_line, render_summary, stage_stats
from repro.observe.top import build_daemon_snapshot, build_farm_snapshot, render_top
from repro.observe.tracer import (
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    stage,
)

__all__ = [
    "Counter",
    "DistinctSet",
    "EVENT_LEVELS",
    "Event",
    "EventLog",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_EVENT_LOG",
    "NULL_TRACER",
    "NullEventLog",
    "NullSpan",
    "NullTracer",
    "PROM_CONTENT_TYPE",
    "PromParseError",
    "Span",
    "StageStats",
    "TRACE_FORMATS",
    "Tracer",
    "build_daemon_snapshot",
    "build_farm_snapshot",
    "defense_summary",
    "digest_line",
    "evolution_summary",
    "histogram_quantiles",
    "lease_summary",
    "load_events",
    "load_spans",
    "merge_expositions",
    "merge_span_lists",
    "parse_prometheus",
    "quantile_from_buckets",
    "render_summary",
    "render_top",
    "stage",
    "stage_stats",
    "to_chrome_events",
    "to_prometheus",
    "triage_summary",
    "verdict_cache_summary",
    "verdict_store_summary",
    "write_trace",
]
