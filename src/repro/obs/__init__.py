"""``repro.obs`` — structured telemetry for the training stack.

Three layers, smallest on top:

- **Metrics** (:mod:`repro.obs.metrics`): labelled counters, gauges, and
  fixed-bucket histograms in a :class:`MetricsRegistry`.
- **Tracing** (:mod:`repro.obs.trace`): nested wall-clock spans with a
  thread-local active-span stack — ``step/forward``, ``step/backward``
  (per task), ``step/balance``, ``step/optimizer_step``.
- **Sinks** (:mod:`repro.obs.sinks`): in-memory (tests), JSONL (runs),
  and null (overhead measurement) event consumers, plus the
  :mod:`repro.obs.report` formatter for saved JSONL files.
- **Flight recorder** (:mod:`repro.obs.profiler`,
  :mod:`repro.obs.recorder`): Chrome ``trace_event`` timeline export
  with per-phase self-time attribution, and a bounded-memory per-step
  conflict-dynamics recorder rendered by ``repro report --dynamics``,
  and the per-op engine profile (:class:`repro.nn.OpProfile`) a
  profiled trainer writes, rendered by ``repro report --ops``.

:class:`Telemetry` bundles the three; ``NULL_TELEMETRY`` is the shared
no-op used when instrumentation is off.  See DESIGN.md ("Observability")
for the event schema and README.md for usage.
"""

from .metrics import SECONDS_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .profiler import Profiler
from .recorder import DynamicsRecorder
from .report import (
    format_dynamics,
    format_ops,
    format_report,
    load_events,
    summarize_dynamics,
    summarize_events,
    summarize_ops,
)
from .sinks import InMemorySink, JsonlSink, NullSink, Sink
from .telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    add_default_sink,
    configure_sinks,
    default_sinks,
)
from .trace import SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
    "SpanRecord",
    "Tracer",
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "NullSink",
    "Telemetry",
    "NULL_TELEMETRY",
    "configure_sinks",
    "add_default_sink",
    "default_sinks",
    "load_events",
    "summarize_events",
    "format_report",
    "Profiler",
    "DynamicsRecorder",
    "summarize_dynamics",
    "format_dynamics",
    "summarize_ops",
    "format_ops",
]
