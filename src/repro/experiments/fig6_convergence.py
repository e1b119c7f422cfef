"""Fig. 6 — average training loss per epoch of every method on NYUv2."""

from __future__ import annotations

from ..analysis import convergence_curves
from .plots import ascii_line_chart
from .reporting import format_table
from .runner import METHODS

__all__ = ["PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"num_scenes": 80, "epochs": 5},
    "full": {"num_scenes": 200, "epochs": 12},
}


def run(preset: str = "quick", methods=METHODS, seed: int = 0) -> dict:
    """Run Fig. 6; returns ``convergence_curves(...)`` (per-method loss curves)."""
    return convergence_curves(methods=methods, seed=seed, **PRESETS[preset])


def format_result(result: dict) -> str:
    """Render the per-epoch average-loss table and a chart of four methods."""
    curves = result["curves"]
    headers = ["Method"] + [f"epoch{e + 1}" for e in range(result["epochs"])]
    rows = [[method] + c["average"] for method, c in curves.items()]
    table = format_table(headers, rows, title="Fig. 6 — average training loss per epoch")
    charted = [m for m in ("equal", "mgda", "nashmtl", "mocograd") if m in curves]
    chart = ascii_line_chart({m: curves[m]["average"] for m in charted}, y_label="avg loss")
    return table + "\n\n" + chart
