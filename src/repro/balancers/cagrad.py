"""CAGrad — Conflict-Averse Gradient descent (Liu et al., NeurIPS 2021).

Searches for an update d near the average gradient g₀ that maximizes the
worst-case local improvement across tasks:

    max_d min_k ⟨g_k, d⟩   s.t.  ‖d − g₀‖ ≤ c‖g₀‖.

Its dual reduces to a problem over simplex weights w (g_w = Σ w_k g_k):

    min_w  ⟨g_w, g₀⟩ + √φ · ‖g_w‖,   φ = c²‖g₀‖²,

solved here with SLSQP over the simplex using the Gram matrix — read from
the shared per-step :class:`~repro.core.gradstats.GradStats` cache rather
than recomputed, so the same GEMM feeds the base class's conflict
telemetry and this solve.  The final
update is  d = g₀ + (√φ / ‖g_w‖) · g_w,  optionally rescaled by 1/(1+c²)
as in the reference implementation.
"""

from __future__ import annotations

import numpy as np

from ..core.balancer import GradientBalancer, register_balancer

__all__ = ["CAGrad"]

_EPS = 1e-12


@register_balancer("cagrad")
class CAGrad(GradientBalancer):
    """Conflict-averse gradient combination.

    Parameters
    ----------
    c:
        Radius parameter ∈ (0, 1); the reference default is 0.4/0.5.
    rescale:
        If True, divide the update by (1 + c²) as in the authors' code so
        the step magnitude is comparable to plain averaging.
    """

    def __init__(self, c: float = 0.5, rescale: bool = True, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        if not 0.0 < c < 1.0:
            raise ValueError("c must be in (0, 1)")
        self.c = c
        self.rescale = rescale
        # scipy is imported here, not at module scope (``import repro``
        # would load it in every process) and not in the timed balance().
        from scipy.optimize import minimize

        self._minimize = minimize

    def balance(self, grads: np.ndarray, losses: np.ndarray) -> np.ndarray:
        grads, _ = self._check_inputs(grads, losses)
        num_tasks = grads.shape[0]
        average = grads.mean(axis=0)
        gram = self.gradstats.gram
        avg_dot = gram.mean(axis=0)  # ⟨g_k, g₀⟩ for each k
        phi = self.c**2 * float(average @ average)
        sqrt_phi = np.sqrt(max(phi, 0.0))

        def objective(w: np.ndarray) -> float:
            gw_norm_sq = float(w @ gram @ w)
            return float(w @ avg_dot) + sqrt_phi * np.sqrt(max(gw_norm_sq, _EPS))

        w0 = np.full(num_tasks, 1.0 / num_tasks)
        constraints = {"type": "eq", "fun": lambda w: w.sum() - 1.0}
        bounds = [(0.0, 1.0)] * num_tasks
        result = self._minimize(
            objective,
            w0,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 60, "ftol": 1e-10},
        )
        weights = result.x if result.success else w0
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
        weights = weights / total if total > 0 else w0

        gw = weights @ grads
        gw_norm = float(np.linalg.norm(gw))
        if gw_norm < _EPS or sqrt_phi == 0.0:
            update = average
        else:
            update = average + (sqrt_phi / gw_norm) * gw
        if self.rescale:
            update = update / (1.0 + self.c**2)
        return update
