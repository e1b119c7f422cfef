"""Fig. 2 — TCI vs GCD over an instrumented task-conflict dial (DESIGN.md)."""

from __future__ import annotations

from ..analysis import tci_gcd_correlation
from .plots import ascii_scatter
from .reporting import format_table

__all__ = ["PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"num_samples": 300, "epochs": 15, "seeds": 3},
    "full": {"num_samples": 600, "epochs": 25, "seeds": 5},
}


def run(preset: str = "quick", seed: int = 0) -> dict:
    """Run Fig. 2; returns per-level ``cosine``/``gcd``/``tci`` and ``pearson_r``."""
    return tci_gcd_correlation(seed=seed, **PRESETS[preset])


def format_result(result: dict) -> str:
    """Render the (cosine, GCD, TCI) table, the Pearson r and a scatter."""
    rows = list(zip(result["cosine"], result["gcd"], result["tci"]))
    rows.append(["pearson_r", result["pearson_r"], ""])
    title = "Fig. 2 — TCI vs GCD (instrumented conflict dial)"
    table = format_table(["True task cosine", "mean GCD", "TCI"], rows, title=title)
    scatter = ascii_scatter(result["gcd"], result["tci"], x_label="GCD", y_label="TCI")
    return table + "\n\n" + scatter
