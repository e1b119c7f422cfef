"""Gradient-collection microbenchmark: per-task vs multi-root backward.

Measures the backward phase (the ``step/backward`` telemetry span, i.e.
gradient collection only — no forward, balancing, or optimizer time) of
``MTLTrainer`` (one multi-root walk) against the per-task reference loop
(``tests/reference/trainer.py``: K backward passes) on a single-input
hard-parameter-sharing problem at K ∈ {2, 4, 8} tasks, and writes
``BENCH_grad_collection.json`` at the repository root.

The workload is a deep narrow trunk (8 × 48-unit layers, batch 32): the
regime the paper's Fig. 8 identifies as the per-task bottleneck, where K
separate walks repeat graph traversal and numpy dispatch per task.  The
multi-root kernel amortizes both; at K = 8 it must hold ≥ 1.5×.

Usage::

    PYTHONPATH=src python benchmarks/bench_grad_collection.py [--smoke] [--out PATH]

``--smoke`` shrinks the run for CI and exits non-zero if multi-root is
slower than per-task (speedup < 1.0) at any K.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from benchlib import provenance
from tests.reference.trainer import TRAINERS

from repro.arch import HardParameterSharing, LinearHead, MLPEncoder
from repro.balancers import EqualWeighting
from repro.data import TaskSpec
from repro.nn.functional import mse_loss
from repro.obs import Telemetry

TASK_COUNTS = (2, 4, 8)
BATCH = 32
IN_DIM = 16
HIDDEN = [48] * 8


def median_backward_seconds(
    num_tasks: int, mode: str, steps: int, warmup: int
) -> float:
    """Median duration of the ``step/backward`` span over ``steps`` steps."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(BATCH, IN_DIM))
    names = [f"t{k}" for k in range(num_tasks)]
    targets = {name: rng.normal(size=BATCH) for name in names}
    tasks = [TaskSpec(name, mse_loss, {}, {}) for name in names]
    model = HardParameterSharing(
        MLPEncoder(IN_DIM, HIDDEN, np.random.default_rng(1)),
        {name: LinearHead(HIDDEN[-1], 1, np.random.default_rng(2)) for name in names},
    )
    telemetry = Telemetry()
    trainer = TRAINERS[mode](model, tasks, EqualWeighting(), seed=0, telemetry=telemetry)
    for _ in range(warmup + steps):
        trainer.train_step_single(x, targets)
    return float(np.median(telemetry.durations("step/backward")[warmup:]))


def run(steps: int, warmup: int) -> dict:
    results = []
    for num_tasks in TASK_COUNTS:
        per_task = median_backward_seconds(num_tasks, "per_task", steps, warmup)
        multi_root = median_backward_seconds(num_tasks, "multi_root", steps, warmup)
        results.append(
            {
                "num_tasks": num_tasks,
                "per_task_seconds": per_task,
                "multi_root_seconds": multi_root,
                "speedup": per_task / multi_root,
            }
        )
    return {
        "benchmark": "grad_collection",
        "workload": {
            "batch": BATCH,
            "in_dim": IN_DIM,
            "hidden": HIDDEN,
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
        help="short CI run; fail (exit 1) if multi-root is slower than per-task",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_grad_collection.json",
        help="output JSON path (default: <repo root>/BENCH_grad_collection.json)",
    )
    args = parser.parse_args(argv)

    steps, warmup = (15, 5) if args.smoke else (40, 8)
    report = run(steps, warmup)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'K':>3} {'per_task (ms)':>14} {'multi_root (ms)':>16} {'speedup':>8}")
    for row in report["results"]:
        print(
            f"{row['num_tasks']:>3} {row['per_task_seconds'] * 1e3:>14.3f} "
            f"{row['multi_root_seconds'] * 1e3:>16.3f} {row['speedup']:>7.2f}x"
        )
    print(f"wrote {args.out}")

    if args.smoke:
        slow = [r for r in report["results"] if r["speedup"] < 1.0]
        if slow:
            ks = ", ".join(str(r["num_tasks"]) for r in slow)
            print(f"FAIL: multi_root slower than per_task at K = {ks}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
