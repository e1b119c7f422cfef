"""Task-conflict diagnostics from Section III of the paper.

Implements

- **Gradient Conflict Degree** (Definition 3):
  ``GCD(g_i, g_j) = 1 − cos φ_ij``; a gradient conflict occurs iff GCD > 1
  (i.e. the cosine similarity is negative).
- **Task Conflict Intensity** (Definition 2):
  ``TCI(T^k, F) = R_k(F(T^1..T^K)) − R_k(F(T^k))`` — the expected-risk gap
  between the jointly trained model and the single-task model.  For
  lower-is-better metrics (losses, RMSE) a *positive* TCI means joint
  training hurt the task, i.e. task conflict occurred.

These are the quantities behind Fig. 1 and Fig. 2 and behind MoCoGrad's
conflict test (Algorithm 1 line 9).

The per-pair helpers (:func:`cosine_similarity`,
:func:`gradient_conflict_degree`, :func:`is_conflicting`) recompute
d-length products on every call; a balancer's ``balance()`` reads the
shared per-step :class:`~repro.core.gradstats.GradStats` cache instead.
The matrix functions (:func:`pairwise_gcd`, :func:`conflict_fraction`) are
backed by :class:`GradStats`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gradstats import GradStats

__all__ = [
    "cosine_similarity",
    "gradient_conflict_degree",
    "is_conflicting",
    "pairwise_gcd",
    "conflict_fraction",
    "task_conflict_intensity",
    "tci_profile",
]

_EPS = 1e-12


# ----------------------------------------------------------------------
# Per-pair diagnostics (Definition 3)
# ----------------------------------------------------------------------
def cosine_similarity(grad_i: np.ndarray, grad_j: np.ndarray) -> float:
    """Cosine of the angle between two gradient vectors.

    Returns 0.0 when either vector is (numerically) zero, so a vanished
    gradient neither counts as conflicting nor as aligned.
    """
    grad_i = np.asarray(grad_i, dtype=np.float64).reshape(-1)
    grad_j = np.asarray(grad_j, dtype=np.float64).reshape(-1)
    norm_i = np.linalg.norm(grad_i)
    norm_j = np.linalg.norm(grad_j)
    if norm_i < _EPS or norm_j < _EPS:
        return 0.0
    return float(np.dot(grad_i, grad_j) / (norm_i * norm_j))


def gradient_conflict_degree(grad_i: np.ndarray, grad_j: np.ndarray) -> float:
    """GCD (Definition 3): ``1 − cos φ_ij`` ∈ [0, 2]."""
    return 1.0 - cosine_similarity(grad_i, grad_j)


def is_conflicting(grad_i: np.ndarray, grad_j: np.ndarray) -> bool:
    """Whether the two task gradients conflict (GCD > 1 ⇔ cos < 0)."""
    return cosine_similarity(grad_i, grad_j) < 0.0


# ----------------------------------------------------------------------
# Matrix diagnostics (GradStats-backed)
# ----------------------------------------------------------------------
def pairwise_gcd(grads: np.ndarray, stats: GradStats | None = None) -> np.ndarray:
    """GCD matrix over all task pairs of a ``(K, d)`` gradient matrix.

    The diagonal is 0 (a task never conflicts with itself) and every
    entry is clamped to Definition 3's [0, 2] range — floating-point
    drift in the underlying Gram GEMM can never push a cosine outside
    [-1, 1].  Pass an existing :class:`GradStats` over the same matrix to
    reuse its cached products.
    """
    if stats is None:
        stats = GradStats(grads)
    return stats.gcd


def conflict_fraction(grads: np.ndarray, stats: GradStats | None = None) -> float:
    """Fraction of distinct task pairs whose gradients conflict (GCD > 1)."""
    if stats is None:
        stats = GradStats(grads)
    pairs, conflicts = stats.conflict_counts()
    if pairs == 0:
        return 0.0
    return conflicts / pairs


# ----------------------------------------------------------------------
# Task Conflict Intensity (Definition 2)
# ----------------------------------------------------------------------
def task_conflict_intensity(joint_risk: float, single_risk: float) -> float:
    """TCI (Definition 2): joint-training risk minus single-task risk.

    Both risks must be measured with the same lower-is-better objective
    (e.g. RMSE on the task's test split).  Positive ⇒ conflict occurred.
    """
    return float(joint_risk) - float(single_risk)


def tci_profile(
    joint_risks: Sequence[float], single_risks: Sequence[float]
) -> np.ndarray:
    """Per-task TCI vector for K tasks evaluated jointly vs singly."""
    joint = np.asarray(joint_risks, dtype=np.float64)
    single = np.asarray(single_risks, dtype=np.float64)
    if joint.shape != single.shape:
        raise ValueError("joint and single risk vectors must have the same length")
    return joint - single
