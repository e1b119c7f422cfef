"""End-to-end benchmark of the repo's training and serving paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ali_param --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

- ``ali_param`` — AliExpress-ES HPS + MoCoGrad, parameter-space balancing;
- ``ali_feat``  — the same, feature-space balancing;
- ``ml9``       — MovieLens 9 genres, multi-input, large shared layer;
- ``serve_ali`` — the four AliExpress scenarios behind one ``Server``.

Each set-up and each timed window runs in a fresh process
(``perfbench/workloads.py``), so ``setup_s`` and ``peak_rss_mb`` are the
workload's own.  Set-up is repeated in several processes and its median
reported.  The gated timings are stated at a reference host speed, set
by a fixed kernel timed next to the work (``hostref.host_ref_ms``);
the timings as measured are printed on the line before the result.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload with spans around each layer's entry points and prints
the per-layer metrics, writing the spans as a Chrome trace under
``.perfbench_out/``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when a correctness check fails or the program cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostref import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("ali_param", "ali_feat", "ml9", "serve_ali")
#: Set-up processes per run (the timed process included); the median of
#: their set-up times is ``setup_s``.
SETUP_SAMPLES = {"ali_param": 5, "ali_feat": 5, "ml9": 3, "serve_ali": 5}
#: Wall-clock cap for all child processes of one run.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
}
#: Printed on every untraced run but not gated; see NOTES.md, "Bounds".
UNGATED_UNITS = {
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "val_loss": "loss",
    "val_loss_before": "loss",
}
PER_LAYER_UNITS = {
    "data.wait_share": "share",
    "data.shard_ms": "ms",
    "data.shards": "count",
    "arch.forward_ms": "ms",
    "training.loss_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.trunk_backward_ms": "ms",
    "core.balance_ms": "ms",
    "nn.optim_ms": "ms",
    "training.self_ms": "ms",
    "training.step_ms_p50": "ms",
    "setup.data_s": "s",
    "setup.model_s": "s",
    "setup.registry_s": "s",
    "setup.warmup_s": "s",
    "serve.submit_us_p50": "us",
    "serve.forward_ms_p50": "ms",
    "serve.batch_rows_mean": "rows",
    "serve.batches": "count",
    "serve.forward_busy_share": "share",
    "serve.gen_late_ms_p99": "ms",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "share",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest() -> str:
    """SHA-1 over the library sources, for checkouts without git."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """BLAS numpy links against, and its thread count when it says."""
    info = {"name": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # noqa: BLE001 — older numpy has no dict mode
        pass
    try:
        import ctypes

        maps = Path("/proc/self/maps").read_text().splitlines()
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    info["threads"] = int(getattr(handle, symbol)())
                    return info
    except Exception:  # noqa: BLE001 — best effort only
        pass
    return info


def provenance() -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "git_sha": git_sha(),
        "src_sha1": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": affinity or os.cpu_count(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_child(args, deadline: float, setup_only: bool, trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--size", args.size, "--out", str(OUT),
    ]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before the workload could run")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{args.workload} did not finish in time") from error
    if done.returncode != 0:
        raise BenchmarkError(
            f"{args.workload} exited with {done.returncode}:\n{done.stderr.strip()[-3000:]}"
        )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as error:
        raise BenchmarkError(f"{args.workload} printed no result") from error


def measure(args) -> dict:
    """Run the set-up processes and the timed process; merge results."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [
        run_child(args, deadline, setup_only=True, trace=False)["phases"]
        for _ in range((SETUP_SAMPLES[args.workload] if args.size == "full" else 2) - 1)
    ]
    timed = run_child(args, deadline, setup_only=False, trace=bool(args.trace))
    setups.append(timed["phases"])
    timed["setup"] = {
        phase: statistics.median(sample.get(phase, 0.0) for sample in setups)
        for phase in ("setup_s", "data_s", "model_s", "registry_s", "warmup_s")
    }
    # One host speed for the run's set-ups: the median of all their
    # reference readings is steadier than each process's two.
    timed["setup"]["setup_s_at_ref"] = timed["setup"]["setup_s"] * speed(
        [ref for sample in setups for ref in sample["ref_ms"]], args.workload
    )
    timed["setup_samples"] = [sample["setup_s"] for sample in setups]
    timed["setup_ref_ms"] = [sample["ref_ms"] for sample in setups]
    return timed


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        values = dict(result["layers"])
        for phase in ("data_s", "model_s", "registry_s", "warmup_s"):
            values[f"setup.{phase}"] = result["setup"][phase]
        units = PER_LAYER_UNITS
    else:
        values = dict(result["at_ref"], peak_rss_mb=result["peak_rss_mb"])
        values["setup_s"] = result["setup"]["setup_s_at_ref"]
        units = END_TO_END_UNITS
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "host": provenance()}
    try:
        result = measure(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    info["host"]["ref_ms"] = result["ref_ms"]

    checks = result["checks"]
    correct = all(value for key, value in checks.items() if isinstance(value, bool))
    summary = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics_of(result, bool(args.trace)),
    }
    info["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**info, "summary": summary}, indent=1) + "\n")
    # Printed, not gated: their spread over seeds exceeds any allowed bound.
    ungated = {name: {"value": result[name], "unit": unit} for name, unit in UNGATED_UNITS.items()
               if name in result}
    unscaled = {"setup_s": result["setup"]["setup_s"], "rows_per_s": result["rows_per_s"],
                "latency_p50_ms": result["latency_p50_ms"]}
    print(json.dumps({"provenance": info["host"], "checks": checks, "counts": result["counts"],
                      "unscaled": unscaled, "ungated": ungated, "gc": result.get("gc")}))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
