"""In-memory span recording around calls into the library's layers.

The traced run wraps public entry points of each layer (a model's
``forward_all``, a balancer's ``balance``, ``Tensor.backward``, ...) from
the benchmark's own code; nothing inside the library changes.  Each
wrapped call records one span: id, name, start, end, parent span id, a
tag (step or request id, or a row count) and the thread it ran on.
Spans stay in memory until :meth:`SpanLog.write_chrome_trace` writes them
in the same Chrome ``trace_event`` layout as ``repro.obs.Profiler``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

__all__ = ["SpanLog", "Patches", "self_times", "union_seconds"]

# Field positions of one recorded span tuple.
ID, NAME, START, END, PARENT, TAG, THREAD = range(7)


class SpanLog:
    """Thread-safe append-only span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: Tag given to spans whose wrapper has no ``tag_fn`` (the current
        #: step id on training workloads).
        self.tag = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag_fn=None):
        """Return ``fn`` wrapped so every call records a span ``name``."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            tag = tag_fn(args) if tag_fn is not None else self.tag
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, tag, threading.get_ident())
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def within(self, windows) -> list[tuple]:
        """Spans that began inside one of the ``(start, end)`` windows."""
        return [s for s in self.spans if any(lo <= s[START] < hi for lo, hi in windows)]

    def write_chrome_trace(self, path, meta: dict | None = None) -> None:
        """Write all spans as Chrome ``trace_event`` ``X`` slices (µs)."""
        spans = sorted(self.spans, key=lambda s: s[START])
        origin = spans[0][START] if spans else 0.0
        threads = {}
        for span in spans:
            threads.setdefault(span[THREAD], len(threads))
        pid = os.getpid()
        events = [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": f"thread-{tid}"}}
            for tid in threads.values()
        ]
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "cat": "span",
                    "name": span[NAME],
                    "pid": pid,
                    "tid": threads[span[THREAD]],
                    "ts": (span[START] - origin) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "args": {"id": span[ID], "parent": span[PARENT], "tag": span[TAG]},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"producer": "perfbench", **(meta or {})},
                },
                handle,
            )
            handle.write("\n")


class Patches:
    """Install wrappers as attributes and take them out again.

    Instance attributes shadow the class method for one object only (a
    model, a balancer, a dataset); module and class attributes (the
    trainer module's ``backward_multi``, ``Tensor.backward``) are swapped
    and restored.
    """

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        had_own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, had_own, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id → own duration minus the duration of its direct children."""
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span[PARENT] >= 0:
            child_seconds[span[PARENT]] = (
                child_seconds.get(span[PARENT], 0.0) + span[END] - span[START]
            )
    return {
        span[ID]: span[END] - span[START] - child_seconds.get(span[ID], 0.0)
        for span in spans
    }


def union_seconds(intervals, start: float, end: float) -> float:
    """Length of the union of ``(lo, hi)`` intervals clipped to a window."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
