"""Table I — AUC on the AliExpress scenarios (2 × 4 tasks + ΔM).

For each country scenario (ES, FR, NL, US) every method trains a 2-task
CTR/CTCVR model; the table reports per-task AUC plus the ΔM aggregate over
all eight task metrics, exactly the layout of the paper's Table I.
"""

from __future__ import annotations

from dataclasses import replace

from ..data.aliexpress import COUNTRIES, make_aliexpress_suite
from ..metrics.delta import delta_m
from ..training.run import METHODS, RunSpec, run_stl
from ..training.run import run as run_spec
from .reporting import format_percent, format_table

__all__ = ["PRESETS", "run", "format_result"]

PRESETS = {
    "quick": {"num_records": 1500, "epochs": 4, "batch_size": 128, "lr": 2e-3, "num_seeds": 2},
    "full": {"num_records": 6000, "epochs": 10, "batch_size": 256, "lr": 1e-3, "num_seeds": 3},
}


def run(
    preset: str = "quick",
    methods=METHODS,
    seed: int = 0,
    mocograd_lambda: float = 0.12,
) -> dict:
    """Run Table I; returns ``{"auc": {method: {country_task: auc}}, "delta_m": ...}``."""
    params = PRESETS[preset]
    suite = make_aliexpress_suite(num_records=params["num_records"], seed=seed)

    spec = RunSpec(
        epochs=params["epochs"],
        batch_size=params["batch_size"],
        lr=params["lr"],
        seed=seed,
        num_seeds=params.get("num_seeds", 1),
    )

    def spec_for(method: str) -> RunSpec:
        kwargs = {"calibration": mocograd_lambda} if method == "mocograd" else {}
        return replace(spec, method=method, balancer_kwargs=kwargs)

    auc: dict[str, dict[str, float]] = {"stl": {}}
    stl_flat: dict[str, float] = {}
    for country, benchmark in suite.items():
        stl = run_stl(benchmark, spec)
        for task in ("CTR", "CTCVR"):
            key = f"{country}_{task}"
            auc["stl"][key] = stl[task]["auc"]
            stl_flat[key] = stl[task]["auc"]

    delta: dict[str, float] = {"stl": 0.0}
    for method in methods:
        auc[method] = {}
        for country, benchmark in suite.items():
            metrics, _ = run_spec(benchmark, spec_for(method))
            for task in ("CTR", "CTCVR"):
                auc[method][f"{country}_{task}"] = metrics[task]["auc"]
        keys = sorted(stl_flat)
        delta[method] = delta_m(
            [auc[method][k] for k in keys],
            [stl_flat[k] for k in keys],
            [True] * len(keys),
        )
    return {"auc": auc, "delta_m": delta, "preset": preset}


def format_result(result: dict) -> str:
    """Render in the paper's Table I layout."""
    columns = [f"{c}_{t}" for c in COUNTRIES for t in ("CTR", "CTCVR")]
    headers = ["Method"] + columns + ["ΔM"]
    rows = []
    for method, values in result["auc"].items():
        row = [method] + [values[c] for c in columns]
        row.append(format_percent(result["delta_m"][method]))
        rows.append(row)
    return format_table(headers, rows, title="Table I — AliExpress AUC")
