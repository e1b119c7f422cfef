"""Fig. 7 — MoCoGrad's ΔM against STL under five architectures on CityScapes."""

from __future__ import annotations

from ..analysis import architecture_sweep
from .plots import ascii_bar_chart
from .reporting import format_percent, format_table

__all__ = ["PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"num_scenes": 100, "epochs": 4},
    "full": {"num_scenes": 300, "epochs": 8},
}


def run(preset: str = "quick", seed: int = 0) -> dict:
    """Run Fig. 7; returns ``architecture_sweep(...)`` (``delta_m`` per architecture)."""
    return architecture_sweep(seed=seed, **PRESETS[preset])


def format_result(result: dict) -> str:
    """Render the ΔM-per-architecture table and bar chart."""
    rows = [[arch, format_percent(delta)] for arch, delta in result["delta_m"].items()]
    title = "Fig. 7 — MoCoGrad × architecture on CityScapes-sim"
    table = format_table(["Architecture", "ΔM (MoCoGrad vs STL)"], rows, title=title)
    return table + "\n\n" + ascii_bar_chart(result["delta_m"])
