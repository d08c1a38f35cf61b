"""Unified observability: structured tracing, metrics, and profiling.

``repro.obs`` observes a run from the *outside*, exactly like
:mod:`repro.invariants`: it is one listener on the simulator's listener
list (engine events, disruptions, reattachments, switches, recovery
episodes, stripe outages).  No protocol or kernel code is modified and
nothing is subscribed unless a channel is explicitly enabled, so the
event hot loop keeps its no-listener fast path when observability is
off.

Three independent channels (see ``docs/observability.md``):

* **trace** — typed JSONL records (:mod:`repro.obs.trace`,
  :mod:`repro.obs.schema`).  Records carry only virtual time and are
  byte-identical for a given seed at any ``--jobs`` value.
* **metrics** — one snapshot of counters/gauges/histograms per run
  (:mod:`repro.obs.metrics`), exported into runner/campaign JSON reports.
* **profile** — wall-clock attribution per event type and per pool stage
  (:mod:`repro.obs.profile`).  Wall times never enter the trace channel.
"""

from .attach import ObsAttachment
from .capture import (
    ENV_METRICS,
    ENV_PROFILE,
    ENV_TRACE,
    ENV_TRACE_EVENTS,
    ObsUnit,
    emit_unit,
    job_capture,
    metrics_enabled,
    obs_active,
    obs_env,
    obs_fingerprint,
    profile_enabled,
    trace_enabled,
    trace_events_enabled,
)
from .metrics import Histogram, aggregate_units, render_metrics_section
from .profile import (
    Profiler,
    drain_stages,
    record_stage,
    render_profile_section,
)
from .schema import (
    RECORD_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    validate_line,
    validate_record,
    validate_trace_lines,
)
from .trace import TraceWriter

__all__ = [
    "ENV_METRICS",
    "ENV_PROFILE",
    "ENV_TRACE",
    "ENV_TRACE_EVENTS",
    "RECORD_TYPES",
    "TRACE_SCHEMA_VERSION",
    "Histogram",
    "ObsAttachment",
    "ObsUnit",
    "Profiler",
    "TraceSchemaError",
    "TraceWriter",
    "aggregate_units",
    "drain_stages",
    "emit_unit",
    "job_capture",
    "metrics_enabled",
    "obs_active",
    "obs_env",
    "obs_fingerprint",
    "profile_enabled",
    "record_stage",
    "render_metrics_section",
    "render_profile_section",
    "trace_enabled",
    "trace_events_enabled",
    "validate_line",
    "validate_record",
    "validate_trace_lines",
]
