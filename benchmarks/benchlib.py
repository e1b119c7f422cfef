"""Shared helpers for the perf benchmark scripts.

Every ``BENCH_*.json`` report carries the same provenance block so
``benchmarks/trend.py`` can key speedup history by commit:

- ``schema`` — report schema version (bumped when the result layout
  changes incompatibly);
- ``git_sha`` — the commit the numbers were measured at (``"unknown"``
  outside a git checkout);
- ``source_sha1`` — a digest of the measured code (``src/``,
  ``tests/reference/`` and ``benchmarks/*.py``, as on disk), so a report
  measured on a tree before it was committed still names that tree;
- ``platform`` / ``python`` / ``numpy`` — the environment fingerprint;
- ``cpu_model``, ``nproc`` (CPUs this process may run on), ``blas`` (the
  BLAS numpy links against) and ``openblas_num_threads`` (the
  ``OPENBLAS_NUM_THREADS`` value, ``None`` when unset) — the host
  fingerprint, the same fields ``perfbench/run.py`` records.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

#: Version of the BENCH_*.json report layout (shared by all benchmarks).
BENCH_SCHEMA = 2

REPO_ROOT = Path(__file__).resolve().parent.parent

# The ratio benches divide by the reference implementations kept with the
# tests (``tests/reference/``); the repository root makes them importable.
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))


def git_sha(short: bool = True) -> str:
    """Current commit SHA, or ``"unknown"`` when git is unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short" if short else "HEAD", "HEAD"]
            if short
            else ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def source_digest() -> str:
    """SHA-1 over the path and bytes of every Python file the benches run."""
    digest = hashlib.sha1()
    files = [
        *(REPO_ROOT / "src").rglob("*.py"),
        *(REPO_ROOT / "tests" / "reference").rglob("*.py"),
        *(REPO_ROOT / "benchmarks").glob("*.py"),
    ]
    for path in sorted(files):
        digest.update(str(path.relative_to(REPO_ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    """The CPU's model name (``/proc/cpuinfo`` on Linux)."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_name() -> str:
    """Name and version of the BLAS numpy links against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # noqa: BLE001 — older numpy has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version', '')}".strip()


def provenance() -> dict:
    """The provenance block every benchmark report embeds."""
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "source_sha1": source_digest(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu_model(),
        "nproc": affinity or os.cpu_count(),
        "blas": blas_name(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
