"""Timeline profiler: span events → Chrome ``trace_event`` JSON.

The tracer already produces everything a timeline needs — nested spans
with monotonic (``perf_counter``) start times, durations, labels, and
(optionally) tracemalloc deltas.  :class:`Profiler` is a
:class:`~repro.obs.sinks.Sink` that collects those span events from a
live :class:`~repro.obs.Telemetry` (or from a saved JSONL file via
:meth:`Profiler.from_events`) and renders them two ways:

- :meth:`chrome_trace` / :meth:`export_chrome_trace` — the Chrome
  ``trace_event`` format (an object with a ``traceEvents`` list of
  ``ph="X"`` complete events), loadable in ``chrome://tracing`` and
  https://ui.perfetto.dev.  Nested trainer phases (``step`` →
  ``forward`` / ``backward`` / ``balance`` / ``optimizer_step``) appear
  as nested slices; span labels, memory deltas, and error flags land in
  each slice's ``args``.
- :meth:`self_times` — per-path *self-time* attribution: the time spent
  in a phase minus the time spent in its child spans, i.e. where a step
  actually goes once the multi-root backward, the balancer kernel, and
  the flat optimizer step have each claimed their share.

Timeline placement uses the spans' ``perf_ts`` (monotonic) when every
event carries one, falling back to wall-clock ``ts`` for pre-flight-
recorder JSONL files; mixing clocks within one export is never done, so
slices always nest exactly as the spans did.

Memory tracking (``track_memory=True``) flips the owning tracer's
``track_memory`` flag and starts ``tracemalloc`` if nothing else has —
tracemalloc slows allocation-heavy code measurably, so it is opt-in and
off by default; the ≤1.5× instrumentation-overhead bar is enforced for
the default configuration (see ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import json
import os
import tracemalloc
from typing import Iterable, Mapping

from .sinks import Sink

__all__ = ["Profiler"]

#: Trainer phases whose self-time the run summary highlights.
TRAIN_PHASES = ("forward", "backward", "balance", "optimizer_step")


class Profiler(Sink):
    """Collects span events and exports a Chrome-trace timeline.

    Use either as an explicit sink (``Telemetry(sinks=[profiler])``), via
    :meth:`attach`, or through the trainer's ``profile=`` kwarg::

        trainer = MTLTrainer(..., profile="trace.json")
        trainer.fit(data, epochs=1, batch_size=64)   # exports on completion

    Parameters
    ----------
    track_memory:
        Record per-span tracemalloc deltas (requires attaching to a
        telemetry instance; see :meth:`attach`).  Off by default — the
        tracemalloc hooks have real overhead.
    """

    def __init__(self, track_memory: bool = False) -> None:
        self.track_memory = track_memory
        self.spans: list[dict] = []
        self._started_tracemalloc = False
        self._attached: list[object] = []

    # ------------------------------------------------------------------
    # Sink interface + attachment
    # ------------------------------------------------------------------
    def emit(self, event: Mapping) -> None:
        """Keep span events; ignore metric/run/dynamics traffic."""
        if event.get("type") == "span":
            self.spans.append(dict(event))

    def close(self) -> None:
        """Detach from telemetry and release the tracemalloc hook."""
        for telemetry in self._attached:
            if self in telemetry.sinks:
                telemetry.sinks.remove(self)
        self._attached.clear()
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    def attach(self, telemetry) -> "Profiler":
        """Subscribe to a :class:`~repro.obs.Telemetry`'s span stream.

        With ``track_memory`` on, also flips the telemetry's tracer to
        record tracemalloc deltas, starting tracemalloc if needed (and
        stopping it again on :meth:`close` only if this profiler started
        it).
        """
        if not telemetry.enabled:
            raise ValueError(
                "cannot profile a disabled Telemetry instance; pass an enabled "
                "one (profiling needs the span stream)"
            )
        telemetry.sinks.append(self)
        self._attached.append(telemetry)
        if self.track_memory:
            telemetry.tracer.track_memory = True
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        return self

    @classmethod
    def from_events(cls, events: Iterable[Mapping]) -> "Profiler":
        """Build a profiler from saved events (``repro.obs.load_events``)."""
        profiler = cls()
        for event in events:
            profiler.emit(event)
        return profiler

    # ------------------------------------------------------------------
    # Chrome trace export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The run as a Chrome ``trace_event`` object (``ph="X"`` slices).

        Each telemetry instance maps to one Chrome "thread" (its ``tid``),
        so two trainers profiled into one file show as parallel tracks.
        """
        spans = self.spans
        # A single timeline needs a single clock: monotonic perf_ts when
        # every span has one (> 0), wall-clock ts otherwise.
        use_perf = bool(spans) and all(s.get("perf_ts", 0.0) > 0.0 for s in spans)
        key = "perf_ts" if use_perf else "ts"
        origin = min((float(s[key]) for s in spans), default=0.0)
        events: list[dict] = []
        pid = os.getpid()

        def chrome_tid(telemetry_id: int, thread: int) -> int:
            # Thread 0 keeps the bare telemetry id (old traces unchanged);
            # helper threads (a serving batcher's worker, …) get their own track.
            return telemetry_id if thread == 0 else telemetry_id * 1000 + thread

        tracks = sorted(
            {(int(s.get("tid", 0)), int(s.get("thread", 0))) for s in spans}
        )
        for telemetry_id, thread in tracks:
            name = (
                f"telemetry-{telemetry_id}"
                if thread == 0
                else f"telemetry-{telemetry_id}/t{thread}"
            )
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": chrome_tid(telemetry_id, thread),
                    "args": {"name": name},
                }
            )
        for span in spans:
            args = dict(span.get("labels") or {})
            args["path"] = span["path"]
            if "mem_bytes" in span:
                args["mem_bytes"] = span["mem_bytes"]
            if span.get("error"):
                args["error"] = True
            events.append(
                {
                    "ph": "X",
                    "cat": "span",
                    "name": span["name"],
                    "pid": pid,
                    "tid": chrome_tid(
                        int(span.get("tid", 0)), int(span.get("thread", 0))
                    ),
                    "ts": (float(span[key]) - origin) * 1e6,  # microseconds
                    "dur": float(span["seconds"]) * 1e6,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.profiler", "clock": key},
        }

    def export_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
        return path

    # ------------------------------------------------------------------
    # Self-time attribution
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, dict]:
        """Per-path timing with child time subtracted out.

        Returns ``{path: {count, total_seconds, self_seconds,
        mem_bytes}}`` where ``self_seconds`` is the path's total minus
        the total of its *direct* children — the attribution that tells
        you whether ``step`` time lives in the four phases or in the glue
        between them.  ``mem_bytes`` sums the spans' tracemalloc deltas
        (0 when memory tracking was off).
        """
        totals: dict[str, float] = {}
        counts: dict[str, int] = {}
        memory: dict[str, int] = {}
        for span in self.spans:
            path = span["path"]
            totals[path] = totals.get(path, 0.0) + float(span["seconds"])
            counts[path] = counts.get(path, 0) + 1
            memory[path] = memory.get(path, 0) + int(span.get("mem_bytes", 0))
        result: dict[str, dict] = {}
        for path, total in sorted(totals.items()):
            prefix = path + "/"
            child_time = sum(
                t
                for p, t in totals.items()
                if p.startswith(prefix) and "/" not in p[len(prefix) :]
            )
            result[path] = {
                "count": counts[path],
                "total_seconds": total,
                # Clamp: clock jitter can make children nominally exceed
                # their parent by nanoseconds.
                "self_seconds": max(total - child_time, 0.0),
                "mem_bytes": memory[path],
            }
        return result

    def format_self_times(self) -> str:
        """Fixed-width self-time table for terminal output."""
        rows = self.self_times()
        if not rows:
            return "No spans profiled."
        lines = [
            f"{'span':<40} {'count':>6} {'total ms':>10} {'self ms':>10} {'self %':>7}"
        ]
        grand_self = sum(stats["self_seconds"] for stats in rows.values()) or 1.0
        for path, stats in rows.items():
            lines.append(
                f"{path:<40} {stats['count']:>6} "
                f"{stats['total_seconds'] * 1e3:>10.3f} "
                f"{stats['self_seconds'] * 1e3:>10.3f} "
                f"{100.0 * stats['self_seconds'] / grand_self:>6.1f}%"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Profiler(spans={len(self.spans)}, track_memory={self.track_memory})"
