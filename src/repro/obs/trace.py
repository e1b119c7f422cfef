"""Nested wall-clock tracing spans with a thread-local active-span stack.

A *span* times one region of code.  Spans nest: entering ``step`` then
``backward`` produces a span whose ``path`` is ``"step/backward"``, so the
run report can attribute every millisecond of a training step to forward,
per-task backward, balancing, or the optimizer — the decomposition the
paper's Fig. 8 backward-time study needs and the trainer previously could
not provide (it timed whole steps only).

The stack is thread-local *per tracer*: two trainers tracing concurrently
in different threads do not corrupt each other's nesting, and one trainer
used from two threads keeps two independent stacks.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["SpanRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One closed span: identity, position in the tree, and timing.

    ``perf_start`` is the ``time.perf_counter()`` reading at span entry —
    the monotonic clock the duration is measured on, so consumers that
    need a consistent timeline (the Chrome-trace exporter) can place
    nested spans without wall-clock skew.  ``memory_delta`` is the
    tracemalloc current-size delta across the span in bytes (``None``
    unless the owning tracer has ``track_memory`` on and tracemalloc is
    tracing).  ``error`` marks spans whose body raised.
    """

    name: str
    path: str
    depth: int
    start_time: float  # wall-clock epoch seconds (time.time)
    duration: float  # elapsed seconds (perf_counter delta)
    labels: dict[str, str] = field(default_factory=dict)
    perf_start: float = 0.0  # perf_counter at entry (monotonic timeline)
    memory_delta: int | None = None  # tracemalloc bytes delta, if tracked
    error: bool = False  # the span body raised
    #: Per-tracer thread index: 0 for the thread that built this tracer,
    #: 1+ for helpers like a serving batcher's worker.  Lets the
    #: Chrome-trace exporter draw background work on its own track so
    #: producer/consumer overlap is visible.
    thread: int = 0

    def to_event(self) -> dict:
        """The JSONL event this span serializes to."""
        event = {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "ts": self.start_time,
            "perf_ts": self.perf_start,
            "seconds": self.duration,
            "labels": self.labels,
        }
        if self.memory_delta is not None:
            event["mem_bytes"] = self.memory_delta
        if self.error:
            event["error"] = True
        if self.thread:
            event["thread"] = self.thread
        return event


class _SpanContext:
    """Context manager for one span activation (not reusable)."""

    __slots__ = (
        "_tracer",
        "name",
        "labels",
        "path",
        "depth",
        "duration",
        "_start_wall",
        "_start_perf",
        "_start_mem",
    )

    def __init__(self, tracer: Tracer, name: str, labels: dict[str, str]) -> None:
        self._tracer = tracer
        self.name = name
        self.labels = labels
        self.path = ""
        self.depth = 0
        self.duration = 0.0
        self._start_mem: int | None = None

    def __enter__(self) -> _SpanContext:
        stack = self._tracer._stack()
        self.depth = len(stack)
        self.path = f"{stack[-1].path}/{self.name}" if stack else self.name
        stack.append(self)
        if self._tracer.track_memory and tracemalloc.is_tracing():
            self._start_mem = tracemalloc.get_traced_memory()[0]
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Duration is taken before any unwind bookkeeping so a raising
        # body still gets an accurate wall-clock measurement.
        duration = self.duration = time.perf_counter() - self._start_perf
        memory_delta = None
        if self._start_mem is not None and tracemalloc.is_tracing():
            memory_delta = tracemalloc.get_traced_memory()[0] - self._start_mem
        stack = self._tracer._stack()
        if not stack or stack[-1] is not self:
            if exc_type is not None:
                # Never mask the body's exception with a nesting complaint;
                # the unwind already explains the out-of-order closure.
                return
            raise RuntimeError(
                f"span {self.path!r} closed out of order (active: "
                f"{stack[-1].path if stack else None!r})"
            )
        stack.pop()
        self._tracer._finish(
            SpanRecord(
                name=self.name,
                path=self.path,
                depth=self.depth,
                start_time=self._start_wall,
                duration=duration,
                labels=self.labels,
                perf_start=self._start_perf,
                memory_delta=memory_delta,
                error=exc_type is not None,
                thread=self._tracer.thread_index(),
            )
        )


class Tracer:
    """Produces spans, keeps raw per-path durations, and notifies a callback.

    ``on_close`` (set by :class:`~repro.obs.Telemetry`) receives every
    closed :class:`SpanRecord` — that is the hook that fans records out to
    sinks and the metrics registry.  Raw durations are kept per *path*
    (``"step/backward"``), so callers can compute medians and other
    order statistics that fixed-bucket histograms cannot recover.
    """

    def __init__(
        self,
        on_close: Callable[[SpanRecord], None] | None = None,
        track_memory: bool = False,
    ) -> None:
        self._local = threading.local()
        self._durations: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._thread_count = 0
        # The constructing thread claims index 0 up front, so helper
        # threads always render on secondary tracks even when one of them
        # (e.g. a serving batcher's worker) opens the run's first span.
        self._stack()
        self.on_close = on_close
        #: when True (and ``tracemalloc`` is tracing), every span records
        #: its tracemalloc current-size delta as ``SpanRecord.memory_delta``.
        #: Mutable at runtime — the profiler flips it on when attached with
        #: memory tracking requested.
        self.track_memory = track_memory

    # ------------------------------------------------------------------
    def _stack(self) -> list[_SpanContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._local.thread_index = self._thread_count
                self._thread_count += 1
        return stack

    def thread_index(self) -> int:
        """This thread's per-tracer index (0 = first span-opening thread)."""
        self._stack()
        return self._local.thread_index

    def span(self, name: str, **labels) -> _SpanContext:
        """Open a (nested) span; use as ``with tracer.span("forward"): ...``."""
        if not name or "/" in name:
            raise ValueError(f"span name must be non-empty and '/'-free; got {name!r}")
        return _SpanContext(self, name, {k: str(v) for k, v in labels.items()})

    def active_path(self) -> str | None:
        """Path of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1].path if stack else None

    # ------------------------------------------------------------------
    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            self._durations.setdefault(record.path, []).append(record.duration)
        if self.on_close is not None:
            self.on_close(record)

    def durations(self, path: str) -> list[float]:
        """Raw durations (seconds) of every closed span at ``path``."""
        with self._lock:
            return list(self._durations.get(path, ()))

    def paths(self) -> list[str]:
        """All span paths seen so far, sorted."""
        with self._lock:
            return sorted(self._durations)

    def reset(self) -> None:
        """Drop recorded durations (open spans are unaffected)."""
        with self._lock:
            self._durations.clear()
