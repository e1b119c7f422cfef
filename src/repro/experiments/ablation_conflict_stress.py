"""Ablation — MoCoGrad vs baselines in the paper's motivating regime: heavy
conflict (MovieLens, relatedness 0.05) and noisy gradients (batch 24)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..data.movielens import GENRES, make_movielens
from ..training.run import RunSpec
from ..training.run import run as run_spec
from .reporting import format_table

__all__ = ["METHODS", "PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"records_per_genre": 300, "epochs": 6, "seeds": 3},
    "full": {"records_per_genre": 600, "epochs": 10, "seeds": 5},
}

# gradnorm is the repo's extension baseline (paper ref. [44]); included to
# position it against the compared methods under heavy conflict.
METHODS = ("equal", "pcgrad", "cagrad", "gradnorm", "mocograd")


def rmse_per_seed(benchmark, method: str, epochs: int, seeds, **balancer_kwargs) -> list:
    """Across-task test RMSE of one batch-24 training run per seed."""
    spec = RunSpec(
        method=method, balancer_kwargs=balancer_kwargs, epochs=epochs, batch_size=24, lr=3e-3
    )
    values = []
    for seed in seeds:
        metrics, _ = run_spec(benchmark, replace(spec, seed=seed))
        values.append(np.mean([m["rmse"] for m in metrics.values()]))
    return values


def run(preset: str = "quick", methods=METHODS, seed: int = 0) -> dict:
    """Run the ablation; returns ``{method: (mean, std)}`` of the RMSE over seeds."""
    params = PRESETS[preset]
    benchmark = make_movielens(
        genres=GENRES[:4],
        records_per_genre=params["records_per_genre"],
        relatedness=0.05,
        seed=seed,
    )
    seeds = range(seed, seed + params["seeds"])
    result = {}
    for method in methods:
        values = rmse_per_seed(benchmark, method, params["epochs"], seeds)
        result[method] = (float(np.mean(values)), float(np.std(values)))
    return result


def format_result(result: dict) -> str:
    """Render methods by ascending average RMSE."""
    rows = [[m, avg, std] for m, (avg, std) in sorted(result.items(), key=lambda kv: kv[1][0])]
    title = "Ablation — conflict-stress MovieLens (relatedness 0.05)"
    return format_table(["Method", "Avg RMSE ↓", "std"], rows, title=title)
