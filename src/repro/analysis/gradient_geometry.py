"""Gradient-geometry instrumentation over training runs.

Turns the trainer's dynamics recorder (``record_dynamics=``) and on-demand
gradient probes into the summary statistics the paper's Section III reasons about:
per-epoch conflict trajectories, pairwise conflict matrices, and
before/after comparisons of what a balancer does to the gradient geometry.
"""

from __future__ import annotations

import numpy as np

from ..core.conflict import conflict_fraction, pairwise_gcd

__all__ = [
    "conflict_trajectory",
    "probe_pairwise_conflicts",
    "balancer_geometry_effect",
]


def conflict_trajectory(trainer, window: int = 1) -> dict:
    """Summarize the conflict dynamics of a ``record_dynamics`` run.

    Reads the ``gcd_mean`` / ``conflict_fraction`` of the trainer's
    recorder samples (one per resolving step) and returns per-window means
    plus overall statistics.  ``window`` groups samples by step — window
    ``w`` holds steps ``w·window + 1 … (w + 1)·window`` (set it to
    steps-per-epoch for per-epoch curves).  A bounded recorder decimates
    long runs, so each window averages the samples it retained.
    """
    if window < 1:
        raise ValueError("window must be ≥ 1")
    if trainer.recorder is None:
        raise ValueError("trainer has no dynamics recorder (record_dynamics=False?)")
    samples = [sample for sample in trainer.recorder.samples() if "gcd_mean" in sample]
    if not samples:
        raise ValueError("the trainer's recorder holds no conflict samples yet")
    history = np.array([(s["gcd_mean"], s["conflict_fraction"]) for s in samples])
    groups = (np.array([s["step"] for s in samples]) - 1) // window
    curves = np.array([history[groups == g].mean(axis=0) for g in np.unique(groups)])
    return {
        "gcd_curve": curves[:, 0].tolist(),
        "conflict_fraction_curve": curves[:, 1].tolist(),
        "mean_gcd": float(history[:, 0].mean()),
        "mean_conflict_fraction": float(history[:, 1].mean()),
        "max_gcd": float(history[:, 0].max()),
        "steps": len(samples),
    }


def probe_pairwise_conflicts(trainer, dataset, batch_size: int = 64, num_batches: int = 5, seed: int = 0) -> dict:
    """Average pairwise GCD matrix over fresh batches (single-input data)."""
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(num_batches):
        idx = rng.choice(len(dataset), size=min(batch_size, len(dataset)), replace=False)
        inputs, targets = dataset.batch(idx)
        grads = trainer.task_gradients(inputs, targets)
        matrices.append(pairwise_gcd(grads))
    mean_matrix = np.mean(matrices, axis=0)
    task_names = [task.name for task in trainer.tasks]
    num_tasks = len(task_names)
    pairs = {}
    for i in range(num_tasks):
        for j in range(i + 1, num_tasks):
            pairs[(task_names[i], task_names[j])] = float(mean_matrix[i, j])
    return {
        "matrix": mean_matrix,
        "pairs": pairs,
        "most_conflicting_pair": max(pairs, key=pairs.get) if pairs else None,
    }


def balancer_geometry_effect(balancer, grads: np.ndarray, losses: np.ndarray | None = None) -> dict:
    """What one balancing step does to the gradient geometry.

    Compares the naive sum against the balanced update: norm ratio, cosine
    to the naive direction, and worst-task alignment (min_k ⟨g_k, d⟩ —
    CAGrad's objective), before/after.  Works with any balancer.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if losses is None:
        losses = np.ones(grads.shape[0])
    naive = grads.sum(axis=0)
    balanced = balancer.balance(grads, np.asarray(losses, dtype=np.float64))
    naive_norm = float(np.linalg.norm(naive))
    balanced_norm = float(np.linalg.norm(balanced))
    if naive_norm > 1e-12 and balanced_norm > 1e-12:
        cosine = float(naive @ balanced / (naive_norm * balanced_norm))
    else:
        cosine = 0.0
    return {
        "input_conflict_fraction": conflict_fraction(grads),
        "norm_ratio": balanced_norm / max(naive_norm, 1e-12),
        "cosine_to_naive": cosine,
        "worst_task_alignment_naive": float((grads @ naive).min()),
        "worst_task_alignment_balanced": float((grads @ balanced).min()),
    }
