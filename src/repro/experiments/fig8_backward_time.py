"""Fig. 8 — median step and backward-only ms per method (balancing is in the step)."""

from __future__ import annotations

from ..analysis import backward_time_study
from .reporting import format_table
from .runner import METHODS

__all__ = ["PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"num_records": 1200, "steps": 20},
    "full": {"num_records": 4000, "steps": 60},
}


def run(preset: str = "quick", methods=METHODS, seed: int = 0) -> dict:
    """Run Fig. 8; returns ``backward_time_study(...)`` (seconds per method)."""
    return backward_time_study(methods=methods, seed=seed, **PRESETS[preset])


def format_result(result: dict) -> str:
    """Render ms/step and backward ms/step per method, fastest step first."""
    steps, backward = result["seconds_per_step"], result["backward_seconds_per_step"]
    rows = [[m, steps[m] * 1000.0, backward[m] * 1000.0] for m in sorted(steps, key=steps.get)]
    return format_table(
        ["Method", "ms / step", "backward ms / step"],
        rows,
        title="Fig. 8 — backward time per step on AliExpress-sim",
        float_digits=3,
    )
