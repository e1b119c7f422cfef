"""Fig. 6 — training-loss convergence curves on NYUv2.

Trains every method on the same NYUv2 instance and returns per-epoch loss
curves for each task plus the across-task average (the paper's panels a–d).
"""

from __future__ import annotations

from ..data.nyuv2 import make_nyuv2
from ..training.run import METHODS, RunSpec, build_trainer

__all__ = ["convergence_curves"]


def convergence_curves(
    methods=METHODS,
    num_scenes: int = 120,
    epochs: int = 6,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
) -> dict:
    """Per-method loss curves: ``{method: {task: [per-epoch loss], "average": [...]}}``."""
    benchmark = make_nyuv2(num_scenes=num_scenes, seed=seed)
    curves: dict[str, dict[str, list[float]]] = {}
    for method in methods:
        spec = RunSpec(method=method, lr=lr, epochs=epochs, batch_size=batch_size, seed=seed)
        history = build_trainer(benchmark, spec).fit(benchmark.train, spec.epochs, spec.batch_size)
        curves[method] = {
            task.name: history.task_loss_curve(task.name).tolist()
            for task in benchmark.tasks
        }
        curves[method]["average"] = history.average_loss_curve().tolist()
    return {"curves": curves, "epochs": epochs, "tasks": benchmark.task_names}
