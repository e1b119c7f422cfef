"""Fig. 8 — backward time per optimization step, by method.

Consumes the trainer's :mod:`repro.obs` span data instead of re-timing:
the ``step`` span gives whole-step wall-clock and the ``step/backward``
span gives the *backward-only* time the paper's Fig. 8 actually plots
(the seed implementation conflated the two).  The expected ordering:
Nash-MTL slowest (inner solve), MGDA/CAGrad in between, the
projection-style methods (PCGrad, GradVac, MoCoGrad) comparable to plain
joint training.

Also exposes the paper's feature-level speedup (``grad_space="features"``)
for comparison.
"""

from __future__ import annotations

import numpy as np

from ..core.balancer import create_balancer
from ..data.aliexpress import make_aliexpress
from ..experiments.runner import METHODS
from ..obs import Telemetry
from ..training.trainer import MTLTrainer

__all__ = ["backward_time_study"]


def backward_time_study(
    methods=METHODS,
    num_records: int = 1500,
    steps: int = 30,
    batch_size: int = 128,
    lr: float = 1e-3,
    seed: int = 0,
    grad_space: str = "parameters",
) -> dict:
    """Median step/backward seconds per method from telemetry spans.

    Returns ``{"seconds_per_step": {method: s}, "backward_seconds_per_step":
    {method: s}, "steps": n, "grad_space": ...}``.
    """
    benchmark = make_aliexpress("ES", num_records=num_records, seed=seed)
    trainers: dict[str, MTLTrainer] = {}
    for method in methods:
        model = benchmark.build_model("hps", np.random.default_rng(seed))
        # A private telemetry per method keeps span populations separate
        # (no sinks: only the in-memory durations are needed here).
        trainer = MTLTrainer(
            model,
            benchmark.tasks,
            create_balancer(method, seed=seed),
            mode=benchmark.mode,
            grad_space=grad_space,
            lr=lr,
            seed=seed,
            telemetry=Telemetry(),
        )
        # Warm-up step excluded from the statistics (first-call overheads).
        trainer.fit(benchmark.train, 1, batch_size, max_steps_per_epoch=1)
        trainer.telemetry.reset_timings()
        trainers[method] = trainer
    # Every method trains in the same one-epoch chunks, taken in turn and in
    # ABBA order, so a slow phase of the host lands on all the medians alike
    # instead of on whichever methods happened to run during it.
    order = list(trainers.values())
    remaining, turn = steps, 0
    while remaining > 0:
        chunk = min(remaining, max(1, len(benchmark.train) // batch_size))
        for trainer in order if turn % 2 == 0 else reversed(order):
            trainer.fit(benchmark.train, 1, batch_size, max_steps_per_epoch=chunk)
        remaining -= chunk
        turn += 1
    step_timings = {method: t.median_step_seconds for method, t in trainers.items()}
    backward_timings = {method: t.median_backward_seconds for method, t in trainers.items()}
    return {
        "seconds_per_step": step_timings,
        "backward_seconds_per_step": backward_timings,
        "steps": steps,
        "grad_space": grad_space,
    }
