"""GradVac — Gradient Vaccine (Wang et al., ICLR 2021).

Rather than only fixing *negative* cosine similarity (PCGrad), GradVac sets
an *adaptive* similarity target φ̂_ij per task pair, tracked as an EMA of the
observed similarity.  Whenever the current similarity falls below the
target, g_i is pulled toward g_j with the Law-of-Sines coefficient (the
MoCoGrad paper's Eq. 7):

    α = ‖g_i‖ (φ̂ √(1−φ²) − φ √(1−φ̂²)) / (‖g_j‖ √(1−φ̂²)),
    g_i' = g_i + α g_j

which makes the manipulated gradient's similarity to g_j exactly φ̂.

Kernel: like PCGrad the surgery is order-dependent (each pull changes
the running g_i' whose cosine gates later pulls), so the kernel keeps the
partner loop but feeds it from the shared
:class:`~repro.core.gradstats.GradStats` cache: partner norms come from
the cached row reduction, and the running ``⟨g_i', g_l⟩`` row and
``‖g_i'‖²`` update incrementally in O(K) per pull
(``g_i' += α g_j`` ⇒ ``dots += α·Gram[j]``,
``‖g_i'‖² += 2α·⟨g_i', g_j⟩ + α²·‖g_j‖²``) instead of re-running d-length
norm/dot kernels per pair.  The accumulated pull coefficients are applied
at the end as one ``(K, K) @ (K, d)`` GEMM.  The per-pair loop it replaced
is the reference implementation the tests compare against
(``tests/reference/``).
"""

from __future__ import annotations

import numpy as np

from ..core.balancer import GradientBalancer, register_balancer

__all__ = ["GradVac", "gradvac_coefficient"]

_EPS = 1e-12


def gradvac_coefficient(
    norm_i: float, norm_j: float, cos_current: float, cos_target: float
) -> float:
    """The α of Eq. (7) aligning g_i to similarity ``cos_target`` with g_j."""
    sin_target = np.sqrt(max(1.0 - cos_target**2, 0.0))
    if sin_target < _EPS or norm_j < _EPS:
        return 0.0
    sin_current = np.sqrt(max(1.0 - cos_current**2, 0.0))
    numerator = norm_i * (cos_target * sin_current - cos_current * sin_target)
    return float(numerator / (norm_j * sin_target))


@register_balancer("gradvac")
class GradVac(GradientBalancer):
    """Adaptive gradient-similarity vaccination.

    ``ema_beta`` is the update rate of the per-pair similarity targets
    (the original paper's β; it uses 1e-2 for stability, larger values adapt
    faster on short synthetic runs).
    """

    def __init__(self, ema_beta: float = 0.01, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        if not 0.0 < ema_beta <= 1.0:
            raise ValueError("ema_beta must be in (0, 1]")
        self.ema_beta = ema_beta
        self._targets: np.ndarray | None = None

    def reset(self, num_tasks: int) -> None:
        super().reset(num_tasks)
        self._targets = np.zeros((num_tasks, num_tasks))

    @property
    def similarity_targets(self) -> np.ndarray | None:
        """Current per-pair EMA similarity targets φ̂ (``(K, K)``)."""
        return self._targets

    def _check_targets(self, num_tasks: int) -> np.ndarray:
        """The EMA target matrix, validated against the task count.

        A mismatched matrix used to be silently zero-reset here, throwing
        away the similarity history mid-run without any signal; like
        MoCoGrad's momentum state, a mismatch now raises and the caller
        decides (``reset()`` is the recovery path).
        """
        if self._targets is None:
            self._targets = np.zeros((num_tasks, num_tasks))
        elif self._targets.shape != (num_tasks, num_tasks):
            self.telemetry.counter("gradvac_targets_shape_mismatch_total").inc()
            raise ValueError(
                f"similarity-target matrix has shape {self._targets.shape} but the "
                f"step has {num_tasks} tasks; the task count changed mid-run — "
                "call reset() to start a fresh EMA history"
            )
        return self._targets

    def balance(self, grads: np.ndarray, losses: np.ndarray) -> np.ndarray:
        grads, _ = self._check_inputs(grads, losses)
        num_tasks = grads.shape[0]
        targets = self._check_targets(num_tasks)

        stats = self.gradstats
        gram = stats.gram
        norms = stats.norms
        coef = np.zeros((num_tasks, num_tasks))
        pulled_any = False
        for i in range(num_tasks):
            partners = [j for j in range(num_tasks) if j != i]
            self.rng.shuffle(partners)
            dots = gram[i].copy()  # ⟨g_i', g_l⟩ for the running g_i'
            norm_sq_i = gram[i, i]  # ‖g_i'‖²
            for j in partners:
                norm_i = float(np.sqrt(max(norm_sq_i, 0.0)))
                if norm_i < _EPS or norms[j] < _EPS:
                    cos_current = 0.0
                else:
                    cos_current = float(dots[j] / (norm_i * norms[j]))
                cos_target = targets[i, j]
                if cos_current < cos_target:
                    alpha = gradvac_coefficient(norm_i, float(norms[j]), cos_current, cos_target)
                    coef[i, j] = alpha
                    norm_sq_i += 2.0 * alpha * dots[j] + alpha * alpha * gram[j, j]
                    dots += alpha * gram[j]
                    pulled_any = True
                targets[i, j] = (1.0 - self.ema_beta) * cos_target + self.ema_beta * cos_current
        if not pulled_any:
            return grads.sum(axis=0)
        adjusted = grads + coef @ grads
        return adjusted.sum(axis=0)
