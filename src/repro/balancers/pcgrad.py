"""PCGrad — Projecting Conflicting Gradients (Yu et al., NeurIPS 2020).

When task i's gradient conflicts with task j's (negative cosine), PCGrad
removes the conflicting component by projecting g_i onto the normal plane of
g_j (paper Eq. 5):

    g_i' = g_i − (g_i · g_j / ‖g_j‖²) g_j

Each task's gradient is "surgered" against all other tasks in random order,
then the surgered gradients are summed.

Kernel: the surgery is *order-dependent* — each projection changes the
running g_i' whose inner products gate later projections — so it cannot
collapse to one matrix product.  The kernel keeps the partner loop but
removes every d-length BLAS-1 call from it: partner norms² and the initial
inner products come from the shared
:class:`~repro.core.gradstats.GradStats` Gram, each projection updates
the running inner-product row incrementally in O(K)
(``⟨g_i' − c·g_j, g_l⟩ = ⟨g_i', g_l⟩ − c·Gram[j, l]``), and the
accumulated projection coefficients are applied at the end as a single
``(K, K) @ (K, d)`` GEMM.  The per-pair loop over
:func:`project_conflicting` it replaced is the reference implementation
the tests compare against (``tests/reference/``).
"""

from __future__ import annotations

import numpy as np

from ..core.balancer import GradientBalancer, register_balancer

__all__ = ["PCGrad", "project_conflicting"]

_EPS = 1e-12


def project_conflicting(grad_i: np.ndarray, grad_j: np.ndarray) -> np.ndarray:
    """Project ``grad_i`` onto the normal plane of ``grad_j`` if they conflict."""
    dot = float(np.dot(grad_i, grad_j))
    if dot >= 0.0:
        return grad_i
    norm_sq = float(np.dot(grad_j, grad_j))
    if norm_sq < _EPS:
        return grad_i
    return grad_i - (dot / norm_sq) * grad_j


@register_balancer("pcgrad")
class PCGrad(GradientBalancer):
    """Gradient surgery via projection onto normal planes."""

    def balance(self, grads: np.ndarray, losses: np.ndarray) -> np.ndarray:
        grads, _ = self._check_inputs(grads, losses)
        num_tasks = grads.shape[0]
        stats = self.gradstats
        gram = stats.gram
        norms_sq = stats.norms_sq
        coef = np.zeros((num_tasks, num_tasks))
        projected_any = False
        for i in range(num_tasks):
            partners = [j for j in range(num_tasks) if j != i]
            self.rng.shuffle(partners)
            dots = gram[i].copy()  # ⟨g_i', g_l⟩ for the running g_i'
            for j in partners:
                dot = dots[j]
                if dot >= 0.0 or norms_sq[j] < _EPS:
                    continue
                c = dot / norms_sq[j]
                coef[i, j] = c
                dots -= c * gram[j]
                projected_any = True
        if not projected_any:
            return grads.sum(axis=0)
        surgered = grads - coef @ grads
        return surgered.sum(axis=0)
