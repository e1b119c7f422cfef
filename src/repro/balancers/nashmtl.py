"""Nash-MTL — Multi-task learning as a bargaining game (Navon et al., ICML 2022).

The update direction Δθ = Σ α_k g_k is the Nash bargaining solution of the
game where each task's utility is its local improvement ⟨g_k, Δθ⟩.  The
first-order optimality condition is

    Gᵀ G α = 1 / α   (element-wise),   α > 0,

with G the matrix whose columns are task gradients.  The reference
implementation solves a sequence of convex approximations with CVXPY; this
reproduction solves the same fixed-point with a damped Newton / least-squares
iteration on the residual  F(α) = (GᵀG) α − 1/α  (scipy), which agrees with
the analytic solution in the 1- and 2-task cases and satisfies the
optimality condition to high precision for larger K.

As in the reference implementation, the solve runs every
``update_weights_every`` steps and reuses the latest α in between, and the
combined gradient can be norm-capped (``max_norm``).
"""

from __future__ import annotations

import numpy as np

from ..core.balancer import GradientBalancer, register_balancer

__all__ = ["NashMTL", "solve_nash_weights"]

_EPS = 1e-10


def solve_nash_weights(gram: np.ndarray, max_iter: int = 40) -> np.ndarray:
    """Solve ``M α = 1/α`` for α > 0 with M = GᵀG (PSD).

    Uses scipy's trust-region least squares on the residual with a
    positivity bound; falls back to uniform weights when the gradient matrix
    is degenerate.  scipy is imported on first call (:class:`NashMTL`
    pays that at construction), never when this module loads.
    """
    from scipy.optimize import least_squares

    num_tasks = gram.shape[0]
    diag = np.clip(np.diag(gram), _EPS, None)
    # Initialize from the decoupled solution α_k = 1/‖g_k‖.
    alpha0 = 1.0 / np.sqrt(diag)

    def residual(alpha: np.ndarray) -> np.ndarray:
        return gram @ alpha - 1.0 / np.clip(alpha, _EPS, None)

    try:
        result = least_squares(
            residual,
            alpha0,
            bounds=(np.full(num_tasks, _EPS), np.full(num_tasks, np.inf)),
            max_nfev=max_iter * num_tasks * 4,
            xtol=1e-12,
            ftol=1e-12,
        )
        alpha = result.x
    except Exception:  # pragma: no cover - scipy failure safeguard
        alpha = alpha0
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0):
        alpha = alpha0
    return alpha


@register_balancer("nashmtl")
class NashMTL(GradientBalancer):
    """Nash bargaining combination of task gradients."""

    def __init__(
        self,
        update_weights_every: int = 1,
        max_norm: float | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if update_weights_every < 1:
            raise ValueError("update_weights_every must be ≥ 1")
        self.update_weights_every = update_weights_every
        self.max_norm = max_norm
        # Load scipy now so the first timed balance() does not pay for it.
        import scipy.optimize  # noqa: F401
        self._alpha: np.ndarray | None = None
        self._step = 0

    def reset(self, num_tasks: int) -> None:
        super().reset(num_tasks)
        self._alpha = None
        self._step = 0

    @property
    def weights(self) -> np.ndarray | None:
        """Most recent bargaining weights α."""
        return self._alpha

    def balance(self, grads: np.ndarray, losses: np.ndarray) -> np.ndarray:
        grads, _ = self._check_inputs(grads, losses)
        num_tasks = grads.shape[0]
        needs_solve = (
            self._alpha is None
            or self._alpha.size != num_tasks
            or self._step % self.update_weights_every == 0
        )
        if needs_solve:
            # Shared per-step cache: the same GEMM the conflict telemetry
            # and other pairwise consumers read.
            gram = self.gradstats.gram
            if float(np.trace(gram)) < _EPS:
                self._alpha = np.ones(num_tasks)
            else:
                self._alpha = solve_nash_weights(gram)
        self._step += 1
        combined = self._alpha @ grads
        if self.max_norm is not None:
            norm = float(np.linalg.norm(combined))
            if norm > self.max_norm:
                combined = combined * (self.max_norm / norm)
        return combined
