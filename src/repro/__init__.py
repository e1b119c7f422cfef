"""repro — reproduction of MoCoGrad (Chai et al., ICDE 2024).

"Towards Task-Conflicts Momentum-Calibrated Approach for Multi-task
Learning": a momentum-calibrated gradient-manipulation method (MoCoGrad)
for mitigating task conflicts in multi-task learning, plus the TCI/GCD
conflict diagnostics, convergence theory, ten baselines, five MTL
architectures and six benchmark reproductions.

Quick start::

    import numpy as np
    from repro import MoCoGrad, MTLTrainer
    from repro.data import make_aliexpress

    bench = make_aliexpress("ES")
    model = bench.build_model("hps", np.random.default_rng(0))
    trainer = MTLTrainer(model, bench.tasks, MoCoGrad(seed=0),
                         mode=bench.mode, lr=1e-3, seed=0)
    trainer.fit(bench.train, epochs=10, batch_size=128)
    print(trainer.evaluate(bench.test))
"""

from . import analysis, arch, balancers, core, data, experiments, metrics, nn, obs, serve, training
from .core import (
    GradientBalancer,
    GradStats,
    MoCoGrad,
    available_balancers,
    create_balancer,
    gradient_conflict_degree,
    pairwise_gcd,
    task_conflict_intensity,
)
from .training import MTLTrainer, RunSpec, build_trainer, run_stl

__version__ = "1.0.0"

__all__ = [
    "nn",
    "core",
    "balancers",
    "arch",
    "data",
    "metrics",
    "training",
    "analysis",
    "experiments",
    "obs",
    "serve",
    "MoCoGrad",
    "GradStats",
    "GradientBalancer",
    "create_balancer",
    "available_balancers",
    "gradient_conflict_degree",
    "pairwise_gcd",
    "task_conflict_intensity",
    "MTLTrainer",
    "RunSpec",
    "build_trainer",
    "run_stl",
    "__version__",
]
