"""Tests of the benchmark itself, at tiny input sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

TRAIN_LAYERS = workloads.TRAIN_LAYERS


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, lines = bench(workload, trace=0)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END_UNITS
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_and_writes_spans(workload):
    code, lines = bench(workload, trace=1)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.PER_LAYER_UNITS
    assert metrics["trace.overhead"]["value"] > 0
    assert 0.0 <= metrics["trace.unattributed_share"]["value"] <= 1.0

    trace = json.loads((run.OUT / f"{workload}.trace.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans
    if workload == "serve_ali":
        assert {"serve.submit", "serve.forward"} <= {e["name"] for e in spans}
        return
    # Layer spans nested in a step never add up to more than the step.
    children: dict[int, float] = {}
    for event in spans:
        if event["name"] in TRAIN_LAYERS:
            parent = event["args"]["parent"]
            children[parent] = children.get(parent, 0.0) + event["dur"]
    steps = [e for e in spans if e["name"] == "training.step"]
    assert steps
    for step in steps:
        assert children.get(step["args"]["id"], 0.0) <= step["dur"] + 1e-3
    layer_ms = sum(metrics[f"{name}_ms"]["value"] for name in TRAIN_LAYERS)
    mean_step_ms = np.mean([e["dur"] for e in steps]) / 1e3
    assert layer_ms <= mean_step_ms * (1 + 1e-9)


def test_perturbed_served_row_trips_equivalence_check():
    model_dir = run.OUT / "test-models"
    model_dir.mkdir(parents=True, exist_ok=True)
    state, _ = workloads.build_serving(seed=5, size=workloads.SIZES["tiny"], model_dir=model_dir)
    try:
        gen = workloads.LoadGenerator(state, np.random.default_rng(0), capacity=400)
        sent = gen.closed_loop(400, outstanding=32)
        assert not gen.failed[sent].any()
        kept = np.arange(0, gen.count, workloads.SAMPLE_EVERY)
        samples = gen.samples[kept // workloads.SAMPLE_EVERY]
        args = (state["server"], state["pools"], gen.scenario[kept], gen.row[kept])
        assert workloads.served_mismatch(*args, samples) <= workloads.EQUIVALENCE_TOL
        perturbed = samples.copy()
        perturbed[len(perturbed) // 2, 1] += 1e-9
        assert workloads.served_mismatch(*args, perturbed) > workloads.EQUIVALENCE_TOL
        missing = samples.copy()
        missing[0, 0] = np.nan
        assert workloads.served_mismatch(*args, missing) > workloads.EQUIVALENCE_TOL
    finally:
        state["server"].close()
        shutil.rmtree(model_dir, ignore_errors=True)


def test_fails_without_the_library():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bare / "perfbench" / source.name)
    try:
        code, lines = bench("ali_param", trace=0, cwd=bare)
        assert code != 0
        assert not any(line.startswith("{") for line in lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
