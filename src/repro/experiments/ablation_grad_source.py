"""Ablation — MoCoGrad step time and AUC on parameter vs feature gradients (§VI-C)."""

from __future__ import annotations

import numpy as np

from ..core.balancer import create_balancer
from ..data.aliexpress import make_aliexpress
from ..training.trainer import MTLTrainer
from .reporting import format_table

__all__ = ["PRESETS", "run", "format_result"]

# The batch must divide the 960-sample train split: in feature space d_feat
# follows the batch shape, and MoCoGrad's (K, d_feat) momentum rejects a
# trailing partial batch (DESIGN.md, "Gradient spaces").  The study is small
# at either preset, so both run the same configuration.
PRESETS = {
    "quick": {"num_records": 1200, "epochs": 4, "batch_size": 120},
    "full": {"num_records": 1200, "epochs": 4, "batch_size": 120},
}


def run(preset: str = "quick", seed: int = 0) -> dict:
    """Run the ablation; returns median seconds per step and mean AUC per space.

    The two arms train in alternating one-epoch chunks (ABBA order), so a
    slow phase of the host lands on both medians alike instead of on
    whichever arm happened to run during it.
    """
    params = PRESETS[preset]
    data = make_aliexpress("ES", num_records=params["num_records"], seed=seed)
    trainers = {
        space: MTLTrainer(
            data.build_model("hps", np.random.default_rng(seed)),
            data.tasks,
            create_balancer("mocograd", seed=seed),
            mode=data.mode,
            grad_space=space,
            lr=2e-3,
            seed=seed,
        )
        for space in ("parameters", "features")
    }
    for epoch in range(params["epochs"]):
        chunk = list(trainers.values())
        for trainer in chunk if epoch % 2 == 0 else reversed(chunk):
            trainer.fit(data.train, 1, params["batch_size"])
    seconds = {space: trainer.median_step_seconds for space, trainer in trainers.items()}
    auc = {
        space: float(np.mean([m["auc"] for m in trainer.evaluate(data.test).values()]))
        for space, trainer in trainers.items()
    }
    return {"seconds_per_step": seconds, "auc": auc}


def format_result(result: dict) -> str:
    """Render ms/step and mean AUC per gradient space."""
    seconds = result["seconds_per_step"]
    rows = [[space, seconds[space] * 1000, auc] for space, auc in result["auc"].items()]
    title = "Ablation — parameter-level vs feature-level gradients (§VI-C)"
    return format_table(["grad_space", "ms / step", "mean AUC"], rows, title=title, float_digits=3)
