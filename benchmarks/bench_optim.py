"""Optimizer microbenchmark: flat arena steps vs per-parameter loops.

Each registered optimizer (SGD+momentum, Adam, AdaGrad, RMSProp) over an
arena-packed parameter set shaped like a real model (many small tensors,
total d ≥ 1e5) runs its fused flat kernel; its loop reference from
``tests/reference/optim.py`` steps an unpacked copy one parameter at a
time.  Both are timed and written to ``BENCH_optim.json`` at the
repository root.  The acceptance bar is ≥ 1.5× on Adam at this d; CI's
smoke gate fails any optimizer below 1.0×.

The flat kernels must also be allocation-free: after warmup, one flat
``_step`` may not allocate a single d-length temporary.  This is asserted
on every run via a ``tracemalloc`` probe (numpy buffers are tracked through
the tracemalloc allocation domain), so a regression that reintroduces
``grad**2`` / bias-correction / weight-decay temporaries fails the
benchmark before any timing is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_optim.py [--smoke] [--out PATH]

``--smoke`` shrinks the run for CI and exits non-zero if any flat kernel is
slower than its loop reference (speedup < 1.0) or the allocation probe trips.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from benchlib import provenance
from tests.reference.optim import LOOP_KERNELS, unpacked_copy

from repro.nn import Adam, AdaGrad, Parameter, ParameterArena, RMSProp, SGD

OPTIMIZERS = {
    "sgdm": (SGD, dict(lr=1e-2, momentum=0.9, weight_decay=1e-4)),
    "adam": (Adam, dict(lr=1e-3, weight_decay=1e-4)),
    "adagrad": (AdaGrad, dict(lr=1e-2)),
    "rmsprop": (RMSProp, dict(lr=1e-3)),
}

# ~256 tensors averaging ~430 elements: the granularity of a real trunk
# (weights + biases), total d ≈ 1.1e5 — the Adam/d≥1e5 acceptance config.
PARAM_SHAPES = [(24, 16), (16,)] * 128


def make_arena(seed: int = 0) -> ParameterArena:
    rng = np.random.default_rng(seed)
    return ParameterArena([Parameter(rng.normal(size=shape)) for shape in PARAM_SHAPES])


def assert_allocation_free(optimizer, dim: int) -> int:
    """Probe one warmed-up flat step for d-length allocations.

    Returns the observed peak allocation delta in bytes; raises
    ``AssertionError`` when it reaches a quarter of a d-length buffer.
    """
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    for _ in range(3):
        optimizer.step()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    delta = peak - baseline
    limit = dim * 8 // 4
    assert delta < limit, (
        f"flat _step allocated {delta} bytes after warmup "
        f"(d-length buffer is {dim * 8}); the fused path must be allocation-free"
    )
    return delta


def time_optimizer_steps(name: str, flat: bool, steps: int, warmup: int) -> float:
    """Median seconds per step of the flat kernel or the loop reference."""
    import time

    cls, kwargs = OPTIMIZERS[name]
    arena = make_arena()
    arena.grad[:] = np.random.default_rng(1).normal(size=arena.size)
    if flat:
        optimizer = cls(arena, **kwargs)
    else:
        plain = unpacked_copy(arena.parameters)
        for param, packed in zip(plain, arena.parameters):
            param.grad = packed.grad.copy()
        optimizer = LOOP_KERNELS[cls](plain, **kwargs)
    durations = []
    for i in range(warmup + steps):
        start = time.perf_counter()
        optimizer.step()
        if i >= warmup:
            durations.append(time.perf_counter() - start)
    return float(np.median(durations))


def bench_optimizer_steps(steps: int, warmup: int) -> list[dict]:
    results = []
    for name in OPTIMIZERS:
        cls, kwargs = OPTIMIZERS[name]
        arena = make_arena()
        flat = cls(arena, **kwargs)
        arena.grad[:] = np.random.default_rng(1).normal(size=arena.size)
        for _ in range(3):  # warm scratch/state before probing
            flat.step()
        probe_bytes = assert_allocation_free(flat, arena.size)
        loop_seconds = time_optimizer_steps(name, False, steps, warmup)
        flat_seconds = time_optimizer_steps(name, True, steps, warmup)
        results.append(
            {
                "optimizer": name,
                "dim": arena.size,
                "num_parameters": len(arena),
                "loop_seconds": loop_seconds,
                "flat_seconds": flat_seconds,
                "speedup": loop_seconds / flat_seconds,
                "probe_peak_bytes": probe_bytes,
            }
        )
    return results


def run(steps: int, warmup: int) -> dict:
    return {
        "benchmark": "optim",
        "workload": {
            "dim": sum(int(np.prod(shape)) for shape in PARAM_SHAPES),
            "num_parameters": len(PARAM_SHAPES),
            "steps": steps,
            "warmup": warmup,
        },
        **provenance(),
        "results": bench_optimizer_steps(steps, warmup),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run; fail (exit 1) if any flat kernel is slower than its loop reference",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_optim.json",
        help="output JSON path (default: <repo root>/BENCH_optim.json)",
    )
    args = parser.parse_args(argv)

    steps, warmup = (60, 10) if args.smoke else (200, 20)
    report = run(steps, warmup)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'optimizer':>9} {'loop (us)':>10} {'flat (us)':>10} {'speedup':>8}")
    for row in report["results"]:
        print(
            f"{row['optimizer']:>9} {row['loop_seconds'] * 1e6:>10.1f} "
            f"{row['flat_seconds'] * 1e6:>10.1f} {row['speedup']:>7.2f}x"
        )
    print(f"wrote {args.out}")

    if args.smoke:
        slow = [r for r in report["results"] if r["speedup"] < 1.0]
        if slow:
            names = ", ".join(r["optimizer"] for r in slow)
            print(f"FAIL: flat slower than loop for: {names}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
