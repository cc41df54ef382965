"""repro.obs -- the cross-layer observability subsystem.

Three pillars (see ``docs/OBSERVABILITY.md``):

* a **metrics registry** (:class:`MetricsRegistry`) every layer
  publishes into -- counters/gauges/histograms with labels;
* **structured tracing** (:class:`Tracer`) with spans and packet-scoped
  events against the simulator's virtual clock, exportable as JSON
  lines, a human-readable timeline, or Chrome trace-event JSON;
* **compiler instrumentation** (:class:`CompileTrace`) -- per-pass wall
  time and IR-size deltas inside ``nclc``.

The :class:`Observability` context bundles the first two and rides on
the simulator (``sim.obs``); the default is the no-op :data:`NULL_OBS`,
whose cost at every instrumentation site is one attribute load and a
branch.

Phase 3 adds scale discipline: deterministic trace sampling with
anomaly retention (:class:`TraceSampler`), streaming/sharded sinks
(:class:`JsonlSink`), metric cardinality caps (``max_series`` /
:data:`OVERFLOW_LABEL`), and cross-run regression diffing
(:func:`diff_runs`, ``repro.diff/1``).
"""

from repro.obs.compiler import CompileTrace, ir_size
from repro.obs.context import NULL_OBS, Observability
from repro.obs.diff import (
    DIFF_SCHEMA,
    build_report,
    diff_runs,
    render_report,
    validate_report,
)
from repro.obs.flight import FlightRecorder, flight_guard, validate_bundle
from repro.obs.int import IntConfig, IntError, IntStack, carries_int, peek_stack
from repro.obs.netmetrics import SwitchPacketTrace, collect_network_metrics
from repro.obs.profile import Profiler
from repro.obs.prom import render_prom
from repro.obs.registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    OVERFLOW_LABEL,
    ObservabilityError,
)
from repro.obs.sinks import (
    JsonlSink,
    TraceSampler,
    iter_trace_events,
    resolve_trace_paths,
    stable_hash,
    window_key,
)
from repro.obs.timeseries import AlertRule, TimeSeriesSampler, parse_rule
from repro.obs.trace import TraceEvent, Tracer

__all__ = [
    "AlertRule",
    "CompileTrace",
    "Counter",
    "DEFAULT_BUCKETS",
    "DIFF_SCHEMA",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "IntConfig",
    "IntError",
    "IntStack",
    "JsonlSink",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_OBS",
    "OVERFLOW_LABEL",
    "Observability",
    "ObservabilityError",
    "Profiler",
    "SwitchPacketTrace",
    "TimeSeriesSampler",
    "TraceEvent",
    "TraceSampler",
    "Tracer",
    "build_report",
    "carries_int",
    "collect_network_metrics",
    "diff_runs",
    "flight_guard",
    "ir_size",
    "iter_trace_events",
    "parse_rule",
    "peek_stack",
    "render_prom",
    "render_report",
    "resolve_trace_paths",
    "stable_hash",
    "validate_bundle",
    "validate_report",
    "window_key",
]
