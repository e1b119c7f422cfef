"""Generic synthetic multi-task benchmark with an exact conflict dial.

The six named generators mirror the paper's datasets; this module exposes
the underlying mechanism directly as a seventh, fully-controllable
benchmark: K regression (or binary classification) tasks over a shared
input whose ground-truth directions have a *specified Gram matrix* — i.e.
you choose the exact pairwise task cosines.  The Fig. 2 reproduction and
the convex-theory demos are special cases of this generator.

Useful for:
- unit-testing balancers against known conflict geometry,
- sweeping conflict levels continuously (the instrumented dial),
- quick-start experiments that don't need a domain-shaped dataset.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..arch.encoders import MLPEncoder
from ..arch.heads import LinearHead
from ..arch.hps import HardParameterSharing
from ..metrics.classification import roc_auc
from ..metrics.regression import mae, rmse
from ..nn.functional import bce_with_logits, mse_loss
from .base import SINGLE_INPUT, ArrayDataset, Benchmark, TaskSpec, train_val_test_split
from .latent import correlated_task_matrix

__all__ = ["make_synthetic_mtl", "uniform_conflict_gram"]


def uniform_conflict_gram(num_tasks: int, cosine: float) -> np.ndarray:
    """Gram matrix with every off-diagonal pairwise cosine equal.

    Valid (PSD) for ``cosine ≥ −1/(K−1)``; raises otherwise.
    """
    if num_tasks < 1:
        raise ValueError("num_tasks must be ≥ 1")
    if num_tasks > 1 and cosine < -1.0 / (num_tasks - 1) - 1e-12:
        raise ValueError(
            f"uniform cosine {cosine} is infeasible for {num_tasks} tasks "
            f"(needs ≥ {-1.0 / (num_tasks - 1):.3f})"
        )
    gram = np.full((num_tasks, num_tasks), float(cosine))
    np.fill_diagonal(gram, 1.0)
    return gram


def _task_specs(task_type: str, num_tasks: int) -> list[TaskSpec]:
    """K regression or classification task specs (eager + streaming)."""
    if task_type == "regression":
        metrics = {"rmse": lambda o, t: rmse(o, t), "mae": lambda o, t: mae(o, t)}
        directions_map = {"rmse": False, "mae": False}
        loss_fn = mse_loss
    else:
        metrics = {"auc": lambda o, t: roc_auc(1.0 / (1.0 + np.exp(-o)), t)}
        directions_map = {"auc": True}
        loss_fn = bce_with_logits
    return [
        TaskSpec(f"task{k}", loss_fn, dict(metrics), dict(directions_map))
        for k in range(num_tasks)
    ]


def _build_model(
    in_features: int,
    hidden: tuple[int, ...],
    seed: int,
    architecture: str,
    model_rng: np.random.Generator | None,
    tasks: tuple[str, ...],
):
    """The benchmark's HPS builder, bound to its knobs with ``partial``."""
    if architecture != "hps":
        raise ValueError("the synthetic benchmark ships an HPS factory only")
    model_rng = model_rng or np.random.default_rng(seed)
    encoder = MLPEncoder(in_features, list(hidden), model_rng)
    heads = {name: LinearHead(hidden[-1], 1, model_rng) for name in tasks}
    return HardParameterSharing(encoder, heads)


def make_synthetic_mtl(
    num_tasks: int = 3,
    num_samples: int = 600,
    in_features: int = 16,
    task_gram: np.ndarray | None = None,
    pairwise_cosine: float = 0.0,
    noise: float = 0.2,
    task_type: str = "regression",
    hidden: tuple[int, ...] = (24, 12),
    seed: int = 0,
) -> Benchmark:
    """Build a single-input MTL benchmark with exact task geometry.

    Parameters
    ----------
    task_gram:
        Explicit ``(K, K)`` PSD matrix of pairwise task cosines (unit
        diagonal).  Defaults to :func:`uniform_conflict_gram` at
        ``pairwise_cosine``.
    task_type:
        ``"regression"`` (MSE / RMSE+MAE) or ``"classification"``
        (logistic labels / BCE / AUC).
    """
    if task_type not in ("regression", "classification"):
        raise ValueError("task_type must be 'regression' or 'classification'")
    rng = np.random.default_rng(seed)
    if task_gram is None:
        task_gram = uniform_conflict_gram(num_tasks, pairwise_cosine)
    task_gram = np.asarray(task_gram, dtype=np.float64)
    if task_gram.shape != (num_tasks, num_tasks):
        raise ValueError("task_gram must be (K, K)")
    directions = correlated_task_matrix(num_tasks, in_features, task_gram, rng)

    inputs = rng.normal(size=(num_samples, in_features))
    scores = inputs @ directions.T  # (n, K)
    targets: dict[str, np.ndarray] = {}
    for k in range(num_tasks):
        name = f"task{k}"
        if task_type == "regression":
            targets[name] = scores[:, k] + noise * rng.normal(size=num_samples)
        else:
            probabilities = 1.0 / (1.0 + np.exp(-2.0 * scores[:, k]))
            targets[name] = (rng.random(num_samples) < probabilities).astype(np.float64)

    dataset = ArrayDataset(inputs, targets)
    train_idx, val_idx, test_idx = train_val_test_split(num_samples, rng)

    return Benchmark(
        name=f"synthetic-{task_type}",
        mode=SINGLE_INPUT,
        tasks=_task_specs(task_type, num_tasks),
        train=dataset.subset(train_idx),
        val=dataset.subset(val_idx),
        test=dataset.subset(test_idx),
        build_model=partial(_build_model, in_features, hidden, seed),
        metadata={
            "task_gram": task_gram,
            "noise": noise,
            "task_type": task_type,
            "directions": directions,
        },
    )
