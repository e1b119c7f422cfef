"""Fig. 1 — task A's RMSE as unrelated genres join its joint run (HPS, MMoE)."""

from __future__ import annotations

from ..analysis import task_interference_curve
from .reporting import format_table

__all__ = ["PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"records_per_genre": 250, "epochs": 5},
    "full": {"records_per_genre": 500, "epochs": 10},
}


def run(preset: str = "quick", seed: int = 0) -> dict:
    """Run Fig. 1; returns ``{architecture: task_interference_curve(...)}``."""
    params = PRESETS[preset]
    return {
        arch: task_interference_curve(architecture=arch, relatedness=0.05, seed=seed, **params)
        for arch in ("hps", "mmoe")
    }


def format_result(result: dict) -> str:
    """Render task A's RMSE per architecture and task set."""
    rows = [
        [arch, task_set, rmse]
        for arch, curve in result.items()
        for task_set, rmse in zip(curve["task_sets"], curve["rmse"])
    ]
    title = "Fig. 1 — task interference on MovieLens-sim"
    return format_table(["Arch", "Task set", "Task-A RMSE"], rows, title=title)
