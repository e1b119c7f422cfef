"""Balancer-kernel microbenchmark: loop vs vectorized pairwise kernels.

Measures the balance phase alone — direct ``balancer.balance()`` calls on
synthetic ``(K, d)`` gradient matrices, telemetry disabled — for every
balancer with a pairwise kernel (MoCoGrad, PCGrad, GradVac), production
vectorized kernel against its per-pair loop reference
(``tests/reference/balancers.py``) at K ∈ {2, 4, 8, 16}, and writes
``BENCH_balancers.json`` at the repository root.

The workload isolates what PR 4 changed: Algorithm 1's conflict test and
Eq. (8) calibration (and the PCGrad/GradVac surgery loops) used to run as
O(K²) Python loops with per-pair d-length BLAS-1 calls; the vectorized
kernels read the shared per-step GradStats cache (one K×K Gram GEMM) and
do O(K) incremental updates per pair.  d = 4096 matches the shared-trunk
dimensionality regime of the paper's benchmarks.

Rows below ``MIN_GATED_TASKS`` (K=2; PCGrad also K=4) are recorded with
``"gated": false``: there the vectorized kernel's fixed overhead (mask
construction, coefficient matrix, final GEMM) is not paid back by a
handful of pairs, so they are diagnostics outside the smoke gate and the
trend file.

Usage::

    PYTHONPATH=src python benchmarks/bench_balancers.py [--smoke] [--out PATH]

``--smoke`` shrinks the run for CI and exits non-zero if any gated
vectorized kernel is slower than its loop reference (speedup < 1.0).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from benchlib import provenance
from tests.reference.balancers import LOOP_KERNELS

import repro.balancers  # noqa: F401 - triggers registration
from repro.core import create_balancer

TASK_COUNTS = (2, 4, 8, 16)
DIM = 4096
BALANCERS = ("mocograd", "pcgrad", "gradvac")
#: Smallest K whose row the smoke gate (and the trend file) covers.
MIN_GATED_TASKS = {"mocograd": 4, "pcgrad": 6, "gradvac": 4}


def median_balance_seconds(
    name: str, mode: str, num_tasks: int, steps: int, warmup: int
) -> float:
    """Median wall-clock seconds of one ``balance()`` call."""
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=(num_tasks, DIM)) for _ in range(warmup + steps)]
    losses = np.ones(num_tasks)
    if mode == "loop":
        balancer = LOOP_KERNELS[name](seed=0)
    else:
        balancer = create_balancer(name, seed=0)
    balancer.reset(num_tasks)
    durations = []
    for matrix in grads:
        start = time.perf_counter()
        balancer.balance(matrix, losses)
        durations.append(time.perf_counter() - start)
    return float(np.median(durations[warmup:]))


def run(steps: int, warmup: int) -> dict:
    results = []
    for name in BALANCERS:
        for num_tasks in TASK_COUNTS:
            loop = median_balance_seconds(name, "loop", num_tasks, steps, warmup)
            vectorized = median_balance_seconds(name, "vectorized", num_tasks, steps, warmup)
            results.append(
                {
                    "balancer": name,
                    "num_tasks": num_tasks,
                    "loop_seconds": loop,
                    "vectorized_seconds": vectorized,
                    "speedup": loop / vectorized,
                    "gated": num_tasks >= MIN_GATED_TASKS[name],
                }
            )
    return {
        "benchmark": "balancers",
        "workload": {
            "dim": DIM,
            "task_counts": list(TASK_COUNTS),
            "steps": steps,
            "warmup": warmup,
        },
        **provenance(),
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run; fail (exit 1) if any vectorized kernel is "
        "slower than its loop reference",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_balancers.json",
        help="output JSON path (default: <repo root>/BENCH_balancers.json)",
    )
    args = parser.parse_args(argv)

    steps, warmup = (15, 5) if args.smoke else (50, 10)
    report = run(steps, warmup)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'balancer':>10} {'K':>3} {'loop (ms)':>10} {'vectorized (ms)':>16} {'speedup':>8}")
    for row in report["results"]:
        note = "" if row["gated"] else "  (ungated)"
        print(
            f"{row['balancer']:>10} {row['num_tasks']:>3} "
            f"{row['loop_seconds'] * 1e3:>10.3f} "
            f"{row['vectorized_seconds'] * 1e3:>16.3f} {row['speedup']:>7.2f}x{note}"
        )
    print(f"wrote {args.out}")

    if args.smoke:
        slow = [
            r
            for r in report["results"]
            if r["gated"] and r["speedup"] < 1.0
        ]
        if slow:
            rows = ", ".join(f"{r['balancer']}@K={r['num_tasks']}" for r in slow)
            print(f"FAIL: vectorized kernel slower than loop for {rows}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
