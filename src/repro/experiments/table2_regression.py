"""Table II — multi-task regression: QM9 (avg MAE) and MovieLens (avg RMSE).

Each method trains the 11-task QM9 model and the 9-genre MovieLens model;
the table reports the across-task average MAE / RMSE plus ΔM per dataset.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..data.movielens import GENRES, make_movielens
from ..data.qm9 import PROPERTIES, make_qm9
from ..metrics.delta import delta_m_from_results
from ..training.run import METHODS, RunSpec, run_stl
from ..training.run import run as run_spec
from .reporting import format_percent, format_table

__all__ = ["PRESETS", "run", "format_result"]

# QM9 lives in the scarce-and-noisy-labels regime where the paper's
# "sharing helps" shape holds: few training molecules per property with
# strong label noise, evaluated on large clean test pools (see the QM9
# generator docstring).  MovieLens uses moderate conflict (relatedness 0.2).
PRESETS = {
    "quick": {
        "qm9": {
            "data": {
                "molecules_per_task": 30,
                "noise": 0.5,
                "hidden": (48, 32),
                "properties": PROPERTIES,
            },
            "epochs": 25,
            "batch_size": 16,
        },
        "movielens": {
            "data": {"records_per_genre": 150, "genres": GENRES[:4], "relatedness": 0.5},
            "epochs": 8,
            "batch_size": 32,
        },
        "lr": 3e-3,
        "num_seeds": 2,
    },
    "full": {
        "qm9": {
            "data": {
                "molecules_per_task": 50,
                "noise": 0.5,
                "hidden": (48, 32),
                "properties": PROPERTIES,
            },
            "epochs": 30,
            "batch_size": 16,
        },
        "movielens": {
            "data": {"records_per_genre": 300, "genres": GENRES, "relatedness": 0.5},
            "epochs": 10,
            "batch_size": 32,
        },
        "lr": 3e-3,
        "num_seeds": 3,
    },
}


def _average(metrics: dict[str, dict[str, float]], key: str) -> float:
    return float(np.mean([task_metrics[key] for task_metrics in metrics.values()]))


def run(preset: str = "quick", methods=METHODS, seed: int = 0) -> dict:
    """Run Table II; returns per-dataset average errors + ΔM per method."""
    params = PRESETS[preset]
    qm9 = make_qm9(seed=seed, **params["qm9"]["data"])
    movielens = make_movielens(seed=seed, **params["movielens"]["data"])

    result: dict = {"preset": preset, "qm9": {}, "movielens": {}}
    for name, benchmark, avg_metric in (
        ("qm9", qm9, "mae"),
        ("movielens", movielens, "rmse"),
    ):
        spec = RunSpec(
            epochs=params[name]["epochs"],
            batch_size=params[name]["batch_size"],
            lr=params["lr"],
            seed=seed,
            num_seeds=params.get("num_seeds", 1),
        )
        stl = run_stl(benchmark, spec)
        directions = {t.name: dict(t.higher_is_better) for t in benchmark.tasks}
        result[name]["stl"] = {"avg": _average(stl, avg_metric), "delta_m": 0.0}
        for method in methods:
            metrics, _ = run_spec(benchmark, replace(spec, method=method))
            result[name][method] = {
                "avg": _average(metrics, avg_metric),
                "delta_m": delta_m_from_results(metrics, stl, directions),
            }
    return result


def format_result(result: dict) -> str:
    """Render the Table II layout (per-dataset averages + ΔM)."""
    headers = ["Method", "QM9 Avg MAE", "QM9 ΔM", "MovieLens Avg RMSE", "MovieLens ΔM"]
    rows = []
    for method in result["qm9"]:
        rows.append(
            [
                method,
                result["qm9"][method]["avg"],
                format_percent(result["qm9"][method]["delta_m"]),
                result["movielens"][method]["avg"],
                format_percent(result["movielens"][method]["delta_m"]),
            ]
        )
    return format_table(headers, rows, title="Table II — QM9 / MovieLens regression")
