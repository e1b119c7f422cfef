"""Fig. 5 — per-domain accuracy of all methods on Office-Home."""

from __future__ import annotations

import numpy as np

from ..data.officehome import DOMAINS, make_officehome
from ..training.run import METHODS, RunSpec
from .reporting import format_percent, format_table
from .runner import run_methods

__all__ = ["PRESETS", "run", "format_result"]

# The near-convergence regime where the paper's method ordering shows:
# hard enough that accuracies stay below ceiling, conflicted enough that
# plain joint training pays a visible price the manipulation methods
# partially recover.
PRESETS = {
    "quick": {
        "num_classes": 8,
        "samples_per_domain": 80,
        "domain_conflict": 0.4,
        "style_strength": 0.8,
        "epochs": 25,
        "batch_size": 16,
        "lr": 3e-3,
        "num_seeds": 2,
    },
    "full": {
        "num_classes": 15,
        "samples_per_domain": 150,
        "domain_conflict": 0.4,
        "style_strength": 0.8,
        "epochs": 40,
        "batch_size": 16,
        "lr": 3e-3,
        "num_seeds": 3,
    },
}


def run(
    preset: str = "quick",
    methods=METHODS,
    seed: int = 0,
    mocograd_lambda: float = 0.12,
) -> dict:
    """Run Fig. 5; returns per-domain accuracies, averages and ΔM."""
    params = PRESETS[preset]
    benchmark = make_officehome(
        num_classes=params["num_classes"],
        samples_per_domain=params["samples_per_domain"],
        domain_conflict=params["domain_conflict"],
        style_strength=params["style_strength"],
        seed=seed,
    )
    spec = RunSpec(
        epochs=params["epochs"],
        batch_size=params["batch_size"],
        lr=params["lr"],
        seed=seed,
        num_seeds=params.get("num_seeds", 1),
    )
    results = run_methods(benchmark, spec, methods)
    accuracy = {
        name: {domain: r.metrics[domain]["accuracy"] for domain in DOMAINS}
        for name, r in results.items()
    }
    average = {name: float(np.mean(list(vals.values()))) for name, vals in accuracy.items()}
    return {
        "preset": preset,
        "accuracy": accuracy,
        "avg_accuracy": average,
        "delta_m": {name: r.delta_m for name, r in results.items()},
    }


def format_result(result: dict) -> str:
    """Render the Fig. 5 table (per-domain accuracy + Avg ACC + ΔM)."""
    headers = ["Method"] + list(DOMAINS) + ["Avg ACC", "ΔM"]
    rows = []
    for method, values in result["accuracy"].items():
        row = [method] + [values[d] for d in DOMAINS]
        row.append(result["avg_accuracy"][method])
        row.append(format_percent(result["delta_m"][method]))
        rows.append(row)
    return format_table(headers, rows, title="Fig. 5 — Office-Home accuracy", float_digits=3)
