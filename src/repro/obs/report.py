"""Run-report rendering for saved telemetry (JSONL) files.

``python -m repro report out.jsonl`` funnels through here: load the event
stream a :class:`~repro.obs.sinks.JsonlSink` wrote, aggregate it, and
render a human-readable digest — per-phase span timing, per-method
balancer conflict counts, and MoCoGrad calibration diagnostics.

Aggregation rules
-----------------
- *Spans* are grouped by ``path`` (``"step/backward"``); statistics come
  from the raw per-event durations, so medians/percentiles are exact.
- *Counters* are cumulative per telemetry instance (``tid``): the last
  snapshot per ``(tid, name, labels)`` wins, then instances are summed —
  flushing twice never double-counts.
- *Gauges* keep the latest value per ``(name, labels)`` across the file.
- *Histograms* follow the counter rule (last snapshot per instance wins),
  then instances pool by ``(name, labels)``: counts, sums, and per-bucket
  counts add (bucket merging needs matching bounds; mismatched bounds
  keep count/sum only).
"""

from __future__ import annotations

import json
import statistics
from typing import Iterable, Mapping

__all__ = [
    "load_events",
    "summarize_events",
    "format_report",
    "summarize_dynamics",
    "format_dynamics",
    "summarize_ops",
    "format_ops",
]


def load_events(path: str) -> list[dict]:
    """Parse one JSONL telemetry file into event dicts.

    Blank lines are skipped; a malformed line raises ``ValueError`` with
    its line number (truncated final lines from killed runs are the one
    exception — they are dropped with no error).
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == len(lines):  # torn tail write from a killed run
                continue
            raise ValueError(f"{path}:{number}: invalid JSON event: {exc}") from None
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{number}: event must be a JSON object")
        events.append(event)
    return events


def _series_key(event: Mapping) -> tuple:
    labels = event.get("labels") or {}
    return (event.get("name"), tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def summarize_events(events: Iterable[Mapping]) -> dict:
    """Aggregate an event stream into the report's data model."""
    span_durations: dict[str, list[float]] = {}
    counters_by_tid: dict[tuple, float] = {}
    gauges: dict[tuple, tuple[float, float]] = {}  # key -> (ts, value)
    histograms: dict[tuple, dict] = {}
    runs: list[dict] = []

    for event in events:
        etype = event.get("type")
        if etype == "span":
            span_durations.setdefault(event["path"], []).append(float(event["seconds"]))
        elif etype == "metric":
            key = _series_key(event)
            tid = event.get("tid", 0)
            if event.get("kind") == "counter":
                counters_by_tid[(tid, *key)] = float(event["value"])
            elif event.get("kind") == "gauge":
                ts = float(event.get("ts", 0.0))
                if key not in gauges or ts >= gauges[key][0]:
                    gauges[key] = (ts, float(event["value"]))
            elif event.get("kind") == "histogram":
                histograms[(tid, *key)] = dict(event)
        elif etype == "run":
            runs.append(dict(event))

    spans = {}
    for path, values in sorted(span_durations.items()):
        ordered = sorted(values)
        spans[path] = {
            "count": len(values),
            "total_seconds": float(sum(values)),
            "mean_seconds": float(sum(values) / len(values)),
            "median_seconds": float(statistics.median(values)),
            "p95_seconds": float(ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]),
        }

    counters: dict[tuple, float] = {}
    for (_tid, name, labels), value in counters_by_tid.items():
        counters[(name, labels)] = counters.get((name, labels), 0.0) + value

    pooled = _pool_histograms(histograms)

    return {
        "runs": runs,
        "spans": spans,
        "counters": {
            name: {labels: value for (n, labels), value in counters.items() if n == name}
            for name in {n for n, _ in counters}
        },
        "gauges": {key: value for key, (_ts, value) in gauges.items()},
        "histograms": {
            name: {labels: stats for (n, labels), stats in pooled.items() if n == name}
            for name in {n for n, _ in pooled}
        },
        "num_histograms": len(histograms),
    }


def _pool_histograms(histograms: Mapping[tuple, Mapping]) -> dict[tuple, dict]:
    """Sum per-instance histogram snapshots into per-series totals.

    Counts and sums always add; per-bucket counts add element-wise when
    every contributing instance shares the same bucket bounds, otherwise
    the pooled entry keeps ``buckets: None`` (count/sum stay exact, the
    bucket-resolution shape is undefined across mismatched bounds).
    """
    pooled: dict[tuple, dict] = {}
    for (_tid, name, labels), event in histograms.items():
        entry = pooled.setdefault(
            (name, labels), {"count": 0, "sum": 0.0, "buckets": None, "_bounds": None}
        )
        entry["count"] += int(event.get("count", 0))
        entry["sum"] += float(event.get("sum", 0.0))
        buckets = event.get("buckets")
        if buckets is None:
            entry["_bounds"] = "mismatch"
            continue
        bounds = tuple(float(b["le"]) for b in buckets)
        if entry["_bounds"] is None:
            entry["_bounds"] = bounds
            entry["buckets"] = [
                {"le": float(b["le"]), "count": int(b["count"])} for b in buckets
            ]
        elif entry["_bounds"] == bounds:
            for slot, bucket in zip(entry["buckets"], buckets):
                slot["count"] += int(bucket["count"])
        else:
            entry["_bounds"] = "mismatch"
            entry["buckets"] = None
    for entry in pooled.values():
        entry.pop("_bounds", None)
        entry["mean"] = entry["sum"] / entry["count"] if entry["count"] else 0.0
    return pooled


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Minimal fixed-width table (kept local: obs must not import experiments)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row]
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _label_value(labels: tuple, key: str) -> str | None:
    return dict(labels).get(key)


def _bucket_percentile(stats: Mapping, p: float) -> float:
    """Bucket-resolution percentile of a pooled histogram (nan if unknown)."""
    buckets = stats.get("buckets")
    count = int(stats.get("count", 0))
    if not buckets or count == 0:
        return float("nan")
    rank = max(1, int(-(-p * count // 100)))  # ceil(p/100 * count)
    cumulative = 0
    for bucket in buckets:
        cumulative += int(bucket["count"])
        if cumulative >= rank:
            return float(bucket["le"])
    return float("inf")


def format_report(summary: Mapping) -> str:
    """Render the digest ``python -m repro report`` prints."""
    sections: list[str] = []

    if summary["runs"]:
        run = summary["runs"][0]
        header = f"Telemetry report — {run.get('experiment', '?')} (preset={run.get('preset', '?')})"
        sections.append(header)
    else:
        sections.append("Telemetry report")

    if summary["spans"]:
        rows = [
            [
                path,
                stats["count"],
                stats["total_seconds"],
                stats["mean_seconds"] * 1e3,
                stats["median_seconds"] * 1e3,
                stats["p95_seconds"] * 1e3,
            ]
            for path, stats in summary["spans"].items()
        ]
        sections.append(
            _format_table(
                ["Span", "Count", "Total s", "Mean ms", "Median ms", "p95 ms"],
                rows,
                title="Per-phase timing",
            )
        )
    else:
        sections.append("No spans recorded.")

    if summary.get("histograms"):
        rows = []
        for name in sorted(summary["histograms"]):
            for labels, stats in sorted(summary["histograms"][name].items()):
                label_text = ",".join(f"{k}={v}" for k, v in labels) or "-"
                rows.append(
                    [
                        name,
                        label_text,
                        int(stats["count"]),
                        stats["mean"],
                        _bucket_percentile(stats, 50),
                        _bucket_percentile(stats, 95),
                    ]
                )
        sections.append(
            _format_table(
                ["Histogram", "Labels", "Count", "Mean", "p50≤", "p95≤"],
                rows,
                title="Histograms (pooled across instances)",
            )
        )

    conflict_counts = summary["counters"].get("balancer_conflicts_total", {})
    pair_counts = summary["counters"].get("balancer_pairs_total", {})
    if pair_counts:
        rows = []
        for labels, pairs in sorted(pair_counts.items()):
            method = _label_value(labels, "method") or "?"
            conflicts = conflict_counts.get(labels, 0.0)
            fraction = conflicts / pairs if pairs else 0.0
            rows.append([method, int(pairs), int(conflicts), fraction])
        sections.append(
            _format_table(
                ["Method", "Pairs", "Conflicts", "Fraction"],
                rows,
                title="Balancer conflicts (gradient pairs with GCD > 1)",
            )
        )

    reused = sum(summary["counters"].get("stream_shard_reuse_total", {}).values())
    if reused:
        sections.append(f"Streaming data pipeline\n  shards reused: {int(reused)}")

    peak_rss = [
        value for (name, _labels), value in summary["gauges"].items()
        if name == "process_peak_rss_mb"
    ]
    if peak_rss:
        sections.append(f"Process\n  peak RSS: {max(peak_rss):.1f} MiB")

    applied = summary["counters"].get("mocograd_calibrations_total", {})
    skipped = summary["counters"].get("mocograd_skipped_zero_momentum_total", {})
    if applied or skipped:
        total_applied = sum(applied.values())
        total_skipped = sum(skipped.values())
        lam = next(
            (v for (name, _labels), v in summary["gauges"].items() if name == "mocograd_lambda"),
            None,
        )
        lines = [
            "MoCoGrad calibration",
            f"  calibrations applied: {int(total_applied)}",
            f"  skipped (zero momentum): {int(total_skipped)}",
        ]
        if lam is not None:
            lines.append(f"  final λ: {lam:.4f}")
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Conflict-dynamics rendering (``repro report --dynamics``)
# ----------------------------------------------------------------------
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float], width: int = 48) -> str:
    """Render a series as unicode blocks, mean-binned to ``width`` chars."""
    finite = [v for v in values if v == v and abs(v) != float("inf")]
    if not finite:
        return ""
    if len(values) > width:
        binned = []
        for i in range(width):
            chunk = values[i * len(values) // width : (i + 1) * len(values) // width]
            chunk = chunk or [values[-1]]
            binned.append(sum(chunk) / len(chunk))
        values = binned
    low, high = min(finite), max(finite)
    span = high - low
    chars = []
    for value in values:
        if value != value or abs(value) == float("inf"):
            chars.append(" ")
            continue
        level = 0 if span == 0 else int((value - low) / span * (len(_SPARK_BLOCKS) - 1))
        chars.append(_SPARK_BLOCKS[level])
    return "".join(chars)


def _pair_labels(tasks: list[str]) -> list[str]:
    """Row-major i < j pair labels matching GradStats.snapshot ordering."""
    return [
        f"{tasks[i]}·{tasks[j]}"
        for i in range(len(tasks))
        for j in range(i + 1, len(tasks))
    ]


def summarize_dynamics(events: Iterable[Mapping]) -> dict:
    """Aggregate ``dynamics`` events into labelled per-metric series.

    Samples are deduped by step (last event wins, so repeated recorder
    flushes are safe).  List-valued sample fields expand into one series
    per element: per-task fields (length K) are labelled with task names
    from the ``dynamics_meta`` event, ``gcd_pairs`` with ``taskA·taskB``
    pair labels; without matching metadata they fall back to ``name[k]``.

    Returns ``{"meta": {...}, "steps": [...], "series": {label: [(step,
    value), ...]}}`` with series sorted by step.
    """
    meta: dict = {}
    by_step: dict[int, dict] = {}
    for event in events:
        etype = event.get("type")
        if etype == "dynamics_meta":
            meta = {k: v for k, v in event.items() if k != "type"}
        elif etype == "dynamics":
            step = int(event.get("step", 0))
            by_step[step] = {
                k: v for k, v in event.items() if k not in ("type", "step", "tid", "ts")
            }

    tasks = list(meta.get("tasks") or [])
    pair_labels = _pair_labels(tasks)
    series: dict[str, list[tuple[int, float]]] = {}
    for step in sorted(by_step):
        for name, value in by_step[step].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                series.setdefault(name, []).append((step, float(value)))
            elif isinstance(value, (list, tuple)):
                for index, element in enumerate(value):
                    if not isinstance(element, (int, float)):
                        continue
                    if name == "gcd_pairs" and index < len(pair_labels):
                        label = f"gcd[{pair_labels[index]}]"
                    elif index < len(tasks) and len(value) == len(tasks):
                        label = f"{name}[{tasks[index]}]"
                    else:
                        label = f"{name}[{index}]"
                    series.setdefault(label, []).append((step, float(element)))
    return {"meta": meta, "steps": sorted(by_step), "series": series}


def format_dynamics(summary: Mapping) -> str:
    """Render per-metric sparkline tables from :func:`summarize_dynamics`."""
    series: dict = summary["series"]
    if not series:
        return (
            "No dynamics events found — run training with dynamics recording on\n"
            "(python -m repro train --record-dynamics --telemetry out.jsonl)."
        )
    meta = summary.get("meta") or {}
    steps = summary["steps"]
    header = (
        f"Conflict dynamics — {len(steps)} samples over steps "
        f"{steps[0]}–{steps[-1]}"
    )
    if meta:
        header += (
            f" (mode={meta.get('mode', '?')}, capacity={meta.get('capacity', '?')}, "
            f"seen={meta.get('seen', '?')})"
        )
    name_width = max(len(name) for name in series)
    lines = [
        header,
        f"{'metric':<{name_width}} {'first':>10} {'min':>10} {'max':>10} {'last':>10}  trend",
    ]
    for name in sorted(series):
        values = [value for _step, value in series[name]]
        lines.append(
            f"{name:<{name_width}} {values[0]:>10.4f} {min(values):>10.4f} "
            f"{max(values):>10.4f} {values[-1]:>10.4f}  {_sparkline(values)}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-op engine profile (``repro report --ops``)
# ----------------------------------------------------------------------
def summarize_ops(events: Iterable[Mapping]) -> dict:
    """Pool the ``ops`` events of :class:`~repro.nn.profile.OpProfile`.

    Each profiled trainer writes a cumulative snapshot per ``fit``, so the
    last event per telemetry instance (``tid``) wins; instances then add.
    Returns ``{"forward": {op: [calls, seconds, bytes]}, "backward": {…},
    "walks": [walks, seconds, minor page faults]}``; the faults field is
    left out when any event predates it (a two-field ``walks``).
    """
    latest: dict = {}
    for event in events:
        if event.get("type") == "ops":
            latest[event.get("tid", 0)] = event
    pooled: dict = {"forward": {}, "backward": {}, "walks": [0, 0.0, 0]}
    fields = 3
    for event in latest.values():
        for phase in ("forward", "backward"):
            for op, stats in (event.get(phase) or {}).items():
                total = pooled[phase].setdefault(op, [0, 0.0, 0])
                for i in range(3):
                    total[i] += stats[i]
        walks = event.get("walks") or [0, 0.0]
        fields = min(fields, len(walks))
        for i, value in enumerate(walks[:3]):
            pooled["walks"][i] += value
    del pooled["walks"][fields:]
    return pooled


def format_ops(summary: Mapping) -> str:
    """Per-op table, most expensive first, from :func:`summarize_ops`."""
    if not summary["forward"] and not summary["backward"]:
        return (
            "No op profile found — run training with the flight recorder on\n"
            "(python -m repro train --profile trace.json --telemetry out.jsonl)."
        )
    rows = [
        (phase, op, stats)
        for phase in ("forward", "backward")
        for op, stats in summary[phase].items()
    ]
    grand = sum(stats[1] for _phase, _op, stats in rows) or 1.0
    rows.sort(key=lambda row: -row[2][1])
    table = [
        [
            op,
            phase,
            int(stats[0]),
            stats[1] * 1e3,
            stats[1] / stats[0] * 1e6 if stats[0] else 0.0,
            f"{100.0 * stats[1] / grand:.1f}%",
            stats[2] / 2**20,
        ]
        for phase, op, stats in rows
    ]
    lines = [
        _format_table(
            ["Op", "Phase", "Calls", "Total ms", "us/call", "Share", "Out MiB"],
            table,
            title="Per-op engine profile (forward: lap since the previous op)",
        )
    ]
    walks, walk_seconds, *faults = summary["walks"]
    if walks:
        adjoint_seconds = sum(stats[1] for stats in summary["backward"].values())
        lines.append(
            f"backward walks: {int(walks)}, {walk_seconds * 1e3:.3f} ms total, "
            f"{(walk_seconds - adjoint_seconds) * 1e3:.3f} ms outside the adjoints "
            "(sort, merges, leaf accumulation)"
        )
        if faults:
            lines.append(f"minor page faults per walk: {faults[0] / walks:.1f}")
    return "\n".join(lines)
