"""Bench-trend harness: speedup history keyed by git SHA, with a gate.

Aggregates the ``BENCH_*.json`` reports at the repository root into one
``BENCH_trend.json`` history file, prints a comparison table of the
current numbers against the committed baseline (the most recent history
entry from a *different* commit), and exits non-zero when any tracked
speedup regressed by more than ``--threshold`` (relative).

Only real measurements enter the history: a report counts as current when
its ``git_sha`` is HEAD's, or when its ``source_sha1`` is the digest of the
code on disk (a report measured on a tree before that tree was committed).
Any other report is printed as ``stale <sha>`` and is neither gated nor
recorded, so an old file left on disk cannot be stamped with a later
commit.  Every report is listed with its SHA and the host it was
measured on (CPU model, ``nproc``, BLAS, ``OPENBLAS_NUM_THREADS``), or
``host not recorded`` for a report written before that fingerprint.

Tracked metrics (label → speedup):

- ``grad_collection/K{K}`` — multi-root vs per-task backward;
- ``balancers/{name}/K{K}`` — vectorized vs loop pairwise kernels
  (small-K diagnostic rows, ``"gated": false``, are skipped);
- ``balancers/mocograd_ml9`` — MoCoGrad's direct Σ ĝ vs its full-matrix
  reference at the ``ml9`` shape (``bench_balancers.py``);
- ``optim/{name}`` — flat vs loop optimizer step;
- ``feature_space/d{d}`` — feature-space vs parameter-space balancing
  cost at shared-parameter count d (``bench_feature_space.py``);
- ``streaming/streaming`` — a streaming epoch vs the eager
  materialize-then-iterate baseline (``bench_streaming.py``);
- ``streaming/movielens_shard`` — the blocked MovieLens history sampler
  vs its full-product reference on one shard (``bench_streaming.py``);
- ``serve/batched`` / ``serve/no_grad`` — micro-batched request serving
  vs one-forward-per-request, and the no-autograd inference forward vs
  the graph-building forward (``bench_serve.py``).

Speedup ratios are self-normalizing (both sides of each ratio run on the
same machine in the same process), which is why the gate tracks speedups
rather than raw wall-clock seconds.  They still move with the host (core
count, caches, BLAS threading): the since-deleted warm mmap shard cache
read 2.32× on a 1-core host and 1.2–1.3× on a 2-vCPU one at the same
code.  So every
history entry records, per metric, the host fingerprint of the report it
came from, and a metric is gated only when its baseline was measured on
the same host (equal ``cpu_model``, ``nproc``, ``blas`` and
``openblas_num_threads``).  A baseline from another host, or from a
report without a fingerprint, is listed as ``other host`` and not gated.

Usage::

    PYTHONPATH=src python benchmarks/trend.py           # compare + record
    PYTHONPATH=src python benchmarks/trend.py --check   # compare only
    PYTHONPATH=src python benchmarks/trend.py --threshold 0.2

The default mode appends the current numbers to the history *after* the
gate passes (re-runs at the same SHA replace that SHA's entry, so CI
retries don't grow the file); ``--check`` never writes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchlib import REPO_ROOT, git_sha, source_digest

TREND_SCHEMA = 1
TREND_FILE = "BENCH_trend.json"
#: Relative regression the gate tolerates before failing (30%). Generous
#: on purpose: shared CI runners are noisy and the ratios, while
#: self-normalizing, still jitter; the gate exists to catch the 2x-grade
#: regressions a bad kernel change causes, not 5% drift.
DEFAULT_THRESHOLD = 0.30
#: History entries kept (oldest dropped first).
MAX_HISTORY = 200


def extract_metrics(report: dict) -> dict[str, float]:
    """Flatten one BENCH_*.json report into ``{label: speedup}``."""
    kind = report.get("benchmark")
    metrics: dict[str, float] = {}
    if kind == "grad_collection":
        for row in report.get("results", []):
            metrics[f"grad_collection/K{row['num_tasks']}"] = float(row["speedup"])
    elif kind == "balancers":
        for row in report.get("results", []):
            # Reports written while the loop kernels still shipped in src/
            # mark the same diagnostic rows "vectorized_kernel": false.
            if not row.get("gated", row.get("vectorized_kernel", True)):
                continue
            metrics[f"balancers/{row['balancer']}/K{row['num_tasks']}"] = float(
                row["speedup"]
            )
        if "mocograd_ml9" in report:
            metrics["balancers/mocograd_ml9"] = float(report["mocograd_ml9"]["speedup"])
    elif kind == "optim":
        for row in report.get("results", []):
            metrics[f"optim/{row['optimizer']}"] = float(row["speedup"])
    elif kind == "feature_space":
        for row in report.get("results", []):
            metrics[f"feature_space/d{row['dim_shared']}"] = float(
                row["balance_speedup"]
            )
    elif kind == "streaming":
        # The eager row is the baseline (speedup 1.0 by construction), and
        # an older report's cache rows measured code that is gone.
        for row in report.get("results", []):
            if row["mode"] == "streaming":
                metrics["streaming/streaming"] = float(row["speedup"])
        if "movielens_shard" in report:
            metrics["streaming/movielens_shard"] = float(
                report["movielens_shard"]["speedup"]
            )
    elif kind == "serve":
        # sequential and graph rows are the baselines (speedup 1.0 by
        # construction) — only the two fast paths are trend-tracked.
        tracked = {"batched": "serve/batched", "no_grad": "serve/no_grad"}
        for row in report.get("results", []):
            label = tracked.get(row["mode"])
            if label is not None:
                metrics[label] = float(row["speedup"])
    return metrics


def measured_at(report: dict, sha: str, source: str | None = None) -> bool:
    """Whether ``report`` was measured at commit ``sha`` (or on ``source``).

    Abbreviated SHAs may differ in length, so either may prefix the other;
    an unknown SHA on either side never matches.  ``source`` is the
    :func:`~benchlib.source_digest` of the code on disk: a report that
    recorded the same digest measured exactly this code.
    """
    if source is not None and report.get("source_sha1") == source:
        return True
    recorded = str(report.get("git_sha", "unknown"))
    if "unknown" in (recorded, sha):
        return False
    return recorded.startswith(sha) or sha.startswith(recorded)


#: The ``provenance()`` fields that identify a host.
HOST_FIELDS = ("cpu_model", "nproc", "blas", "openblas_num_threads")


def host_of(report: dict) -> dict | None:
    """The host fingerprint of a report, ``None`` if it recorded none."""
    if "cpu_model" not in report:
        return None
    return {field: report.get(field) for field in HOST_FIELDS}


def describe_host(report: dict) -> str:
    """The host fingerprint of a report, or ``host not recorded``."""
    if "cpu_model" not in report:
        return "host not recorded"
    threads = report.get("openblas_num_threads")
    return (
        f"{report['cpu_model']}, nproc {report.get('nproc', '?')}, "
        f"{report.get('blas', 'unknown BLAS')}, "
        f"OPENBLAS_NUM_THREADS {'unset' if threads is None else threads}"
    )


def collect_measured(
    root: Path, sha: str
) -> tuple[dict[str, float], dict[str, str], list[str], dict[str, dict | None]]:
    """Read every BENCH_*.json (except the trend file) under ``root``.

    Returns ``{label: speedup}`` of the reports measured at ``sha``,
    ``{label: recorded sha}`` of the stale rest, one line per report
    naming its file, SHA and host, and ``{label: host fingerprint}`` of
    the current metrics (``None`` for a report without one).
    """
    current: dict[str, float] = {}
    stale: dict[str, str] = {}
    sources: list[str] = []
    hosts: dict[str, dict | None] = {}
    source = source_digest()
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name == TREND_FILE:
            continue
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable {path.name}: {exc}", file=sys.stderr)
            continue
        metrics = extract_metrics(report)
        sources.append(
            f"{path.name}  {report.get('git_sha', 'unknown')}  {describe_host(report)}"
        )
        if measured_at(report, sha, source):
            current.update(metrics)
            hosts.update(dict.fromkeys(metrics, host_of(report)))
        else:
            stale.update(dict.fromkeys(metrics, str(report.get("git_sha", "unknown"))))
    return current, stale, sources, hosts


def entry_hosts(hosts: dict[str, dict | None]) -> list[dict]:
    """``{label: fingerprint}`` as a history entry's ``hosts`` list: one
    item per recorded host, naming its metrics (unrecorded ones are left
    out)."""
    grouped: dict[tuple, dict] = {}
    for label in sorted(hosts):
        host = hosts[label]
        if host is not None:
            key = tuple(host[field] for field in HOST_FIELDS)
            grouped.setdefault(key, {**host, "metrics": []})["metrics"].append(label)
    return list(grouped.values())


def metric_hosts(entry: dict) -> dict[str, dict]:
    """``{label: fingerprint}`` of a history entry (empty for an entry
    written before hosts were recorded)."""
    return {
        label: {field: item.get(field) for field in HOST_FIELDS}
        for item in entry.get("hosts", [])
        for label in item.get("metrics", [])
    }


def load_history(path: Path) -> list[dict]:
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if data.get("schema") != TREND_SCHEMA:
        print(
            f"warning: {path.name} has schema {data.get('schema')!r}, "
            f"expected {TREND_SCHEMA}; starting a fresh history",
            file=sys.stderr,
        )
        return []
    return list(data.get("history", []))


def save_history(path: Path, history: list[dict]) -> None:
    payload = {"schema": TREND_SCHEMA, "history": history[-MAX_HISTORY:]}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def baseline_entry(history: list[dict], sha: str) -> dict | None:
    """Most recent history entry not from ``sha`` (falls back to any)."""
    for entry in reversed(history):
        if entry.get("sha") != sha:
            return entry
    return history[-1] if history else None


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    threshold: float,
    stale: dict[str, str] | None = None,
    other_host: set[str] | frozenset[str] = frozenset(),
) -> tuple[list[list], list[str]]:
    """Build comparison rows and the list of regressed labels.

    ``stale`` labels (``{label: sha}``) get a ``stale <sha>`` row and
    ``other_host`` labels (baseline measured on another or an unrecorded
    host) an ``other host`` row; neither is gated.
    """
    stale = stale or {}
    rows: list[list] = []
    regressions: list[str] = []
    for label in sorted(current):
        now = current[label]
        base = baseline.get(label)
        if base is None:
            rows.append([label, "-", f"{now:.2f}x", "new"])
            continue
        delta = (now - base) / base if base else 0.0
        status = "ok"
        if label in other_host:
            status = "other host"
        elif base > 0 and now < base * (1.0 - threshold):
            status = "REGRESSED"
            regressions.append(label)
        rows.append([label, f"{base:.2f}x", f"{now:.2f}x", f"{delta:+.1%} {status}"])
    for label in sorted(stale):
        base = baseline.get(label)
        base_cell = "-" if base is None else f"{base:.2f}x"
        rows.append([label, base_cell, "-", f"stale {stale[label]}"])
    for label in sorted(set(baseline) - set(current) - set(stale)):
        rows.append([label, f"{baseline[label]:.2f}x", "-", "missing"])
    return rows, regressions


def format_rows(rows: list[list]) -> str:
    headers = ["metric", "baseline", "current", "delta"]
    cells = [headers] + [[str(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="directory holding BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative speedup drop that fails the gate (default: 0.30)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline only; never update the history",
    )
    args = parser.parse_args(argv)

    sha = git_sha()
    current, stale, sources, hosts = collect_measured(args.root, sha)
    if not current and not stale:
        print("no BENCH_*.json reports found — run the benchmarks first", file=sys.stderr)
        return 2
    print("reports:")
    for line in sources:
        print(f"  {line}")

    trend_path = args.root / TREND_FILE
    history = load_history(trend_path)
    baseline = baseline_entry(history, sha)

    if baseline is None:
        print(f"no baseline in {TREND_FILE}; recording first entry at {sha}")
        rows, regressions = compare(current, {}, args.threshold, stale)
    else:
        print(
            f"baseline: {baseline.get('sha', '?')}  current: {sha}  "
            f"gate: -{args.threshold:.0%}"
        )
        base_hosts = metric_hosts(baseline)
        other_host = {
            label
            for label in current
            if hosts[label] is None or base_hosts.get(label) != hosts[label]
        }
        rows, regressions = compare(
            current, baseline.get("metrics", {}), args.threshold, stale, other_host
        )
    print(format_rows(rows))

    if regressions:
        print(
            f"FAIL: {len(regressions)} metric(s) regressed by more than "
            f"{args.threshold:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1

    if not current:
        print(f"no report was measured at {sha}; nothing recorded")
    elif not args.check:
        history = [entry for entry in history if entry.get("sha") != sha]
        history.append(
            {"sha": sha, "ts": time.time(), "metrics": current, "hosts": entry_hosts(hosts)}
        )
        save_history(trend_path, history)
        print(f"recorded entry for {sha} in {trend_path.name} ({len(history)} total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
