"""Fig. 9 — sensitivity of MoCoGrad to the calibration strength λ.

Sweeps λ over the paper's range on the Office-Home benchmark and reports
the across-domain average accuracy per value; the paper finds an interior
optimum around λ = 0.12 with degradation at both extremes.
"""

from __future__ import annotations

import numpy as np

from ..data.officehome import make_officehome
from ..training.run import RunSpec, run

__all__ = ["lambda_sensitivity", "DEFAULT_LAMBDA_GRID"]

DEFAULT_LAMBDA_GRID = (0.03, 0.06, 0.09, 0.12, 0.15, 0.18)


def lambda_sensitivity(
    lambda_grid=DEFAULT_LAMBDA_GRID,
    num_classes: int = 8,
    samples_per_domain: int = 80,
    domain_conflict: float = 0.4,
    style_strength: float = 0.8,
    epochs: int = 25,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
    num_seeds: int = 2,
) -> dict:
    """Average accuracy per λ: ``{"lambda": [...], "avg_accuracy": [...]}``.

    Runs in the same near-convergence conflicted regime as the Fig. 5
    reproduction so that the calibration strength is a live parameter.
    """
    benchmark = make_officehome(
        num_classes=num_classes,
        samples_per_domain=samples_per_domain,
        domain_conflict=domain_conflict,
        style_strength=style_strength,
        seed=seed,
    )
    averages = []
    for lam in lambda_grid:
        spec = RunSpec(
            method="mocograd",
            balancer_kwargs={"calibration": lam},
            epochs=epochs,
            batch_size=batch_size,
            lr=lr,
            seed=seed,
            num_seeds=num_seeds,
        )
        metrics, _ = run(benchmark, spec)
        averages.append(float(np.mean([m["accuracy"] for m in metrics.values()])))
    return {"lambda": list(lambda_grid), "avg_accuracy": averages}
