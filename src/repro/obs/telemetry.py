"""The `Telemetry` facade: one registry + one tracer + N sinks.

A :class:`Telemetry` instance is the unit of instrumentation ownership:
each :class:`~repro.training.trainer.MTLTrainer` gets its own (so
per-trainer timing views stay isolated) while *sinks* may be shared — the
CLI's ``--telemetry out.jsonl`` installs one :class:`JsonlSink` globally
and every trainer created during the run streams events into it.

Disabling: ``NULL_TELEMETRY`` (or ``Telemetry.disabled()``) is a shared,
stateless instance whose spans and instruments are no-ops; hot paths may
also branch on ``telemetry.enabled`` to skip computing values that exist
only to be recorded (e.g. pairwise conflict counts).
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Iterable, Mapping

from .metrics import SECONDS_BUCKETS, MetricsRegistry
from .sinks import Sink
from .trace import SpanRecord, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "configure_sinks",
    "default_sinks",
    "add_default_sink",
]

_telemetry_ids = itertools.count(1)


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()
    duration = 0.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _NullInstrument:
    """No-op counter/gauge/histogram stand-in."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class Telemetry:
    """Bundles a metrics registry, a tracer, and event sinks.

    Parameters
    ----------
    sinks:
        Event consumers; every closed span is forwarded immediately,
        metric snapshots on :meth:`flush`.  Sinks are *not* closed by this
        object unless :meth:`close` is called — shared sinks (the global
        CLI sink) are owned by whoever installed them.
    enabled:
        When False the instance is inert: spans cost one attribute lookup,
        instruments discard writes.  Use :data:`NULL_TELEMETRY` instead of
        constructing disabled instances.
    """

    def __init__(self, sinks: Iterable[Sink] = (), enabled: bool = True) -> None:
        self.id = next(_telemetry_ids)
        self._enabled = enabled
        self.sinks: list[Sink] = list(sinks)
        self.registry = MetricsRegistry()
        #: span path -> its ``span_seconds`` histogram (per-span hot path)
        self._span_histograms: dict[str, object] = {}
        self.tracer = Tracer(on_close=self._on_span_close if enabled else None)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op instance (see :data:`NULL_TELEMETRY`)."""
        return NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **labels):
        """Open a nested wall-clock span (context manager)."""
        if not self._enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **labels)

    def durations(self, path: str) -> list[float]:
        """Raw durations (seconds) of closed spans at ``path``."""
        return self.tracer.durations(path)

    def span_paths(self) -> list[str]:
        """All span paths recorded so far, sorted."""
        return self.tracer.paths()

    def reset_timings(self) -> None:
        """Drop span durations (e.g. after a warm-up step)."""
        self.tracer.reset()

    def _on_span_close(self, record: SpanRecord) -> None:
        histogram = self._span_histograms.get(record.path)
        if histogram is None:
            histogram = self._span_histograms[record.path] = self.registry.histogram(
                "span_seconds", buckets=SECONDS_BUCKETS, span=record.path
            )
        histogram.observe(record.duration)
        if self.sinks:
            event = record.to_event()
            event["tid"] = self.id
            self.emit(event)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels):
        """Registry counter (a shared no-op instrument when disabled)."""
        if not self._enabled:
            return _NULL_INSTRUMENT
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        """Registry gauge (a shared no-op instrument when disabled)."""
        if not self._enabled:
            return _NULL_INSTRUMENT
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets=SECONDS_BUCKETS, **labels):
        """Registry histogram (a shared no-op instrument when disabled)."""
        if not self._enabled:
            return _NULL_INSTRUMENT
        return self.registry.histogram(name, buckets=buckets, **labels)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def emit(self, event: Mapping) -> None:
        """Forward one event dict to every sink."""
        if not self._enabled:
            return
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        """Emit a ``metric`` event per registry series to the sinks.

        Snapshots are cumulative: a later flush supersedes an earlier one
        from the same telemetry instance (consumers key on ``tid``).
        """
        if not self._enabled or not self.sinks:
            return
        now = time.time()
        for snapshot in self.registry.snapshot():
            event = {"type": "metric", "ts": now, "tid": self.id}
            event.update(snapshot)
            self.emit(event)

    def close(self) -> None:
        """Flush, then close every sink owned by this instance."""
        self.flush()
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Compact per-run digest: span stats + metric snapshot.

        The structure attached to
        :class:`~repro.experiments.runner.MethodResult.telemetry`.
        """
        if not self._enabled:
            return {}
        spans = {}
        for path in self.span_paths():
            values = self.durations(path)
            if not values:
                continue
            spans[path] = {
                "count": len(values),
                "total_seconds": float(sum(values)),
                "mean_seconds": float(sum(values) / len(values)),
                "median_seconds": float(statistics.median(values)),
            }
        return {"spans": spans, "metrics": self.registry.snapshot()}

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return f"Telemetry(id={self.id}, {state}, sinks={len(self.sinks)})"


#: Shared inert instance — safe to hand to any number of trainers/balancers.
NULL_TELEMETRY = Telemetry(enabled=False)


# ----------------------------------------------------------------------
# Process-wide default sinks (installed by the CLI's --telemetry flag)
# ----------------------------------------------------------------------
_default_sinks: list[Sink] = []


def configure_sinks(sinks: Iterable[Sink]) -> None:
    """Replace the process-wide default sink list.

    Trainers constructed without an explicit telemetry instance attach
    these sinks; the caller keeps ownership (and must close file sinks).
    """
    _default_sinks[:] = list(sinks)


def add_default_sink(sink: Sink) -> None:
    """Append one sink to the process-wide defaults."""
    _default_sinks.append(sink)


def default_sinks() -> list[Sink]:
    """Current process-wide default sinks (a copy)."""
    return list(_default_sinks)
