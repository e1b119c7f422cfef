"""Single-task learning (STL) — the baseline row of every table.

Trains one independent model per task and evaluates it, providing both the
STL rows of Tables I–IV and the single-task risks that TCI (Definition 2)
and ΔM (Eq. 27) are measured against.  The STL model is the benchmark's
one builder with a single head, ``build_model("hps", rng,
tasks=(name,))``, so the baseline is the MTL network minus the other
tasks' heads, never a separately maintained copy.
"""

from __future__ import annotations

import numpy as np

from ..balancers.equal import EqualWeighting
from ..data.base import MULTI_INPUT, Benchmark
from .trainer import MTLTrainer

__all__ = ["train_stl", "train_stl_all"]


def train_stl(
    benchmark: Benchmark,
    task_name: str,
    epochs: int,
    batch_size: int,
    lr: float = 1e-3,
    optimizer: str = "adam",
    seed: int = 0,
    max_steps_per_epoch: int | None = None,
) -> dict[str, float]:
    """Train one single-task model; return its test metrics."""
    task = benchmark.task(task_name)
    rng = np.random.default_rng(seed)
    model = benchmark.build_model("hps", rng, tasks=(task_name,))
    # A single-task model is a one-task MTLModel: reuse the MTL trainer
    # with the trivial balancer (balancing a single gradient is a no-op).
    trainer = MTLTrainer(
        model,
        [task],
        EqualWeighting(),
        mode=benchmark.mode,
        optimizer=optimizer,
        lr=lr,
        seed=seed,
    )
    if benchmark.mode == MULTI_INPUT:
        train_data = {task_name: benchmark.train[task_name]}
        test_data = {task_name: benchmark.test[task_name]}
    else:
        train_data = benchmark.train
        test_data = benchmark.test
    trainer.fit(train_data, epochs, batch_size, max_steps_per_epoch=max_steps_per_epoch)
    return trainer.evaluate(test_data)[task_name]


def train_stl_all(
    benchmark: Benchmark,
    epochs: int,
    batch_size: int,
    lr: float = 1e-3,
    optimizer: str = "adam",
    seed: int = 0,
    max_steps_per_epoch: int | None = None,
) -> dict[str, dict[str, float]]:
    """STL metrics for every task: ``{task: {metric: value}}``."""
    return {
        name: train_stl(
            benchmark,
            name,
            epochs,
            batch_size,
            lr=lr,
            optimizer=optimizer,
            seed=seed,
            max_steps_per_epoch=max_steps_per_epoch,
        )
        for name in benchmark.task_names
    }
