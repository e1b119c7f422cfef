"""Table III — NYUv2 scene understanding (segmentation / depth / normals).

Reports the paper's full metric set per method: mIoU and PixAcc for
segmentation, Abs/Rel error for depth, mean/median angle distance and the
within-t° fractions for surface normals, plus ΔM over all nine numbers.
"""

from __future__ import annotations

from ..data.nyuv2 import make_nyuv2
from ..training.run import METHODS, RunSpec
from .reporting import format_percent, format_table
from .runner import run_methods

__all__ = ["PRESETS", "run", "format_result", "METRIC_COLUMNS"]

PRESETS = {
    "quick": {"num_scenes": 150, "epochs": 6, "batch_size": 16, "lr": 3e-3, "num_seeds": 2},
    "full": {"num_scenes": 400, "epochs": 12, "batch_size": 16, "lr": 3e-3, "num_seeds": 2},
}

#: (task, metric) columns in the paper's order.
METRIC_COLUMNS = (
    ("segmentation", "miou"),
    ("segmentation", "pixacc"),
    ("depth", "abs_err"),
    ("depth", "rel_err"),
    ("normal", "mean"),
    ("normal", "median"),
    ("normal", "within_11.25"),
    ("normal", "within_22.5"),
    ("normal", "within_30"),
)


def run(preset: str = "quick", methods=METHODS, seed: int = 0) -> dict:
    """Run Table III; returns per-method metric dicts plus ΔM."""
    params = PRESETS[preset]
    benchmark = make_nyuv2(num_scenes=params["num_scenes"], seed=seed)
    spec = RunSpec(
        epochs=params["epochs"],
        batch_size=params["batch_size"],
        lr=params["lr"],
        seed=seed,
        num_seeds=params.get("num_seeds", 1),
    )
    results = run_methods(benchmark, spec, methods)
    return {
        "preset": preset,
        "metrics": {name: r.metrics for name, r in results.items()},
        "delta_m": {name: r.delta_m for name, r in results.items()},
    }


def format_result(result: dict) -> str:
    """Render the Table III layout (9 metric columns + ΔM)."""
    headers = ["Method"] + [f"{task[:3]}.{metric}" for task, metric in METRIC_COLUMNS] + ["ΔM"]
    rows = []
    for method, metrics in result["metrics"].items():
        row = [method] + [metrics[task][metric] for task, metric in METRIC_COLUMNS]
        row.append(format_percent(result["delta_m"][method]))
        rows.append(row)
    return format_table(headers, rows, title="Table III — NYUv2", float_digits=3)
