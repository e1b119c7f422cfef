"""Fig. 9 — MoCoGrad's Office-Home accuracy over the calibration strength λ."""

from __future__ import annotations

from ..analysis import lambda_sensitivity
from .plots import ascii_bar_chart
from .reporting import format_table

__all__ = ["PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"num_classes": 8, "samples_per_domain": 80, "epochs": 20},
    "full": {"num_classes": 10, "samples_per_domain": 150, "epochs": 35},
}


def run(preset: str = "quick", seed: int = 0) -> dict:
    """Run Fig. 9; returns ``{"lambda": [...], "avg_accuracy": [...]}``."""
    return lambda_sensitivity(seed=seed, **PRESETS[preset])


def format_result(result: dict) -> str:
    """Render the accuracy-per-λ table and bar chart."""
    rows = list(zip(result["lambda"], result["avg_accuracy"]))
    title = "Fig. 9 — λ sensitivity on Office-Home-sim"
    table = format_table(["λ", "Avg ACC"], rows, title=title, float_digits=3)
    bars = ascii_bar_chart({f"λ={lam:.2f}": acc for lam, acc in rows}, sort=False, fmt="{:.3f}")
    return table + "\n\n" + bars
