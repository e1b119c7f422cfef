"""Ablation — Algorithm 1's two ambiguities (momentum cadence and source,
DESIGN.md) plus λ and β₁, on the conflict-stress workload."""

from __future__ import annotations

import numpy as np

from ..data.movielens import GENRES, make_movielens
from .ablation_conflict_stress import rmse_per_seed
from .reporting import format_table

__all__ = ["PRESETS", "VARIANTS", "run", "format_result"]

PRESETS = {
    "quick": {"records_per_genre": 250, "epochs": 5, "seeds": 2},
    "full": {"records_per_genre": 500, "epochs": 8, "seeds": 4},
}

#: Variant label → MoCoGrad keyword arguments (empty: the defaults).
VARIANTS = {
    "per_step/raw λ=0.12": {},
    "per_pair/raw λ=0.12": {"momentum_update": "per_pair"},
    "per_step/calibrated λ=0.12": {"momentum_source": "calibrated"},
    "per_step/raw λ=0.06": {"calibration": 0.06},
    "per_step/raw λ=0.30": {"calibration": 0.30},
    "per_step/raw β₁=0.5": {"beta1": 0.5},
}


def run(preset: str = "quick", seed: int = 0) -> dict:
    """Run the ablation; returns ``{variant: RMSE averaged over seeds}``."""
    params = PRESETS[preset]
    benchmark = make_movielens(
        genres=GENRES[:3],
        records_per_genre=params["records_per_genre"],
        relatedness=0.05,
        seed=seed,
    )
    seeds = range(seed, seed + params["seeds"])
    return {
        label: float(np.mean(rmse_per_seed(benchmark, "mocograd", params["epochs"], seeds, **kw)))
        for label, kw in VARIANTS.items()
    }


def format_result(result: dict) -> str:
    """Render variants by ascending average RMSE."""
    rows = sorted(result.items(), key=lambda kv: kv[1])
    title = "Ablation — MoCoGrad design choices (conflict-stress MovieLens)"
    return format_table(["Variant", "Avg RMSE ↓"], rows, title=title)
