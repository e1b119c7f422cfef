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

A ``mocograd_ml9`` row times MoCoGrad's ``balance`` at the shape of the
end-to-end ``ml9`` workload (K = 9 genres, d = 162,832 shared
parameters, telemetry enabled as in the trainer) against
``MatrixMoCoGrad``, the reference that forms every calibrated ``ĝ_i``
before summing.  The two run interleaved on the same conflicting
gradients; the row also records the largest relative direction error and
whether the momentum stayed bitwise equal.

Usage::

    PYTHONPATH=src python benchmarks/bench_balancers.py [--smoke] [--out PATH]

``--smoke`` shrinks the run for CI and exits non-zero if any gated
vectorized kernel is slower than its loop reference (speedup < 1.0), or
if the ``mocograd_ml9`` row is slower than its reference, leaves
``DIRECTION_RTOL`` or moves the momentum off the reference's bits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from benchlib import provenance
from tests.reference.balancers import LOOP_KERNELS, MatrixMoCoGrad

import repro.balancers  # noqa: F401 - triggers registration
from repro.core import MoCoGrad, create_balancer
from repro.obs import Telemetry

TASK_COUNTS = (2, 4, 8, 16)
DIM = 4096
BALANCERS = ("mocograd", "pcgrad", "gradvac")
#: Smallest K whose row the smoke gate (and the trend file) covers.
MIN_GATED_TASKS = {"mocograd": 4, "pcgrad": 6, "gradvac": 4}
#: perfbench ``ml9``: 9 genre tasks over the BST encoder's shared parameters.
ML9_TASKS, ML9_DIM = 9, 162_832
#: Largest relative deviation of the direct Σ ĝ from the full-matrix sum.
DIRECTION_RTOL = 1e-12


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


def mocograd_ml9(steps: int, warmup: int) -> dict:
    """Median ``balance()`` seconds of MoCoGrad and its full-matrix reference.

    Each step feeds both balancers the same matrix, in alternating order;
    every fourth matrix has all tasks aligned (a step without calibration),
    the rest oppose even and odd tasks around a shared direction.
    """
    rng = np.random.default_rng(0)
    shared = rng.normal(size=ML9_DIM)
    opposed = np.where(np.arange(ML9_TASKS) % 2 == 0, 1.0, -1.0)[:, None]
    grads = [
        rng.normal(size=(ML9_TASKS, ML9_DIM)) + 2.0 * (1.0 if i == 3 else opposed) * shared
        for i in range(4)
    ]
    losses = np.ones(ML9_TASKS)
    balancers = {"direct": MoCoGrad(seed=0), "matrix": MatrixMoCoGrad(seed=0)}
    durations = {name: [] for name in balancers}
    for balancer in balancers.values():
        balancer.telemetry = Telemetry()
        balancer.reset(ML9_TASKS)
    worst, bitwise = 0.0, True
    for step in range(warmup + steps):
        matrix = grads[step % len(grads)]
        order = list(balancers) if step % 2 == 0 else list(reversed(balancers))
        outputs = {}
        for name in order:
            start = time.perf_counter()
            outputs[name] = balancers[name].balance(matrix, losses)
            durations[name].append(time.perf_counter() - start)
        error = np.linalg.norm(outputs["direct"] - outputs["matrix"])
        worst = max(worst, float(error / np.linalg.norm(outputs["matrix"])))
        bitwise &= np.array_equal(balancers["direct"].momentum, balancers["matrix"].momentum)
    seconds = {name: float(np.median(d[warmup:])) for name, d in durations.items()}
    return {
        "num_tasks": ML9_TASKS,
        "dim": ML9_DIM,
        "telemetry": True,
        "oracle_seconds": seconds["matrix"],
        "seconds": seconds["direct"],
        "speedup": seconds["matrix"] / seconds["direct"],
        "direction_rel_error": worst,
        "momentum_bitwise_equal": bool(bitwise),
    }


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
        "mocograd_ml9": mocograd_ml9(steps, warmup),
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
    ml9 = report["mocograd_ml9"]
    print(
        f"mocograd_ml9: {ml9['seconds'] * 1e3:.2f} ms vs full matrix "
        f"{ml9['oracle_seconds'] * 1e3:.2f} ms ({ml9['speedup']:.2f}x, direction "
        f"error {ml9['direction_rel_error']:.1e}, momentum bitwise equal: "
        f"{ml9['momentum_bitwise_equal']})"
    )
    print(f"wrote {args.out}")

    if args.smoke:
        failures = []
        slow = [
            r
            for r in report["results"]
            if r["gated"] and r["speedup"] < 1.0
        ]
        if slow:
            rows = ", ".join(f"{r['balancer']}@K={r['num_tasks']}" for r in slow)
            failures.append(f"vectorized kernel slower than loop for {rows}")
        if ml9["speedup"] < 1.0:
            failures.append(f"mocograd_ml9 slower than its reference ({ml9['speedup']:.2f}x)")
        if ml9["direction_rel_error"] > DIRECTION_RTOL:
            failures.append(
                f"mocograd_ml9 direction off by {ml9['direction_rel_error']:.1e} (relative)"
            )
        if not ml9["momentum_bitwise_equal"]:
            failures.append("mocograd_ml9 momentum differs from the reference")
        if failures:
            print("FAIL: " + "; ".join(failures), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
