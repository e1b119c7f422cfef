"""Reference kernels of the pairwise balancers.

Each class replaces exactly one production kernel with the slower form it
was optimized from — the O(K²) loop of d-length BLAS-1 calls, or for
MoCoGrad's direction the full calibrated matrix; everything else (input
checks, conflict telemetry, state, registry name) is inherited, so the
reference and the production balancer must agree on outputs to fp
tolerance and on telemetry counters exactly.
"""

from __future__ import annotations

import numpy as np

from repro.balancers.gradvac import GradVac, gradvac_coefficient
from repro.balancers.pcgrad import PCGrad, project_conflicting
from repro.core.conflict import cosine_similarity
from repro.core.mocograd import MoCoGrad


class MatrixMoCoGrad(MoCoGrad):
    """MoCoGrad whose ``balance`` forms every calibrated ``ĝ_i`` and sums them."""

    def balance(self, grads, losses):
        grads, _ = self._check_inputs(grads, losses)
        return self.calibrate(grads, stats=self._stats).sum(axis=0)


class MatrixMomentumMoCoGrad(MoCoGrad):
    """MoCoGrad whose Eq. (9) updates the whole ``(K, d)`` momentum at once,
    through a ``(K, d)`` buffer — the update the row-by-row step replaced."""

    def _advance_momentum(self, source):
        buffer = np.multiply(source, 1.0 - self.beta1)
        self._momentum *= self.beta1
        self._momentum += buffer


class LoopMoCoGrad(MatrixMoCoGrad):
    """MoCoGrad whose ``per_step`` Eq. (8) runs pair by pair (full matrix)."""

    def _calibrate_per_step(self, grads, stats, previous_momentum):
        calibrated = grads.copy()
        num_tasks = grads.shape[0]
        for i in range(num_tasks):
            partners = [j for j in range(num_tasks) if j != i]
            self.rng.shuffle(partners)
            for j in partners:
                self._maybe_calibrate(calibrated, grads, i, j, previous_momentum[j])
        return calibrated


class LoopPCGrad(PCGrad):
    """PCGrad surgery as one :func:`project_conflicting` call per pair."""

    def balance(self, grads, losses):
        grads, _ = self._check_inputs(grads, losses)
        num_tasks = grads.shape[0]
        surgered = grads.copy()
        for i in range(num_tasks):
            partners = [j for j in range(num_tasks) if j != i]
            self.rng.shuffle(partners)
            for j in partners:
                # Project the running surgered gradient against the *raw*
                # partner gradient, as in the original implementation.
                surgered[i] = project_conflicting(surgered[i], grads[j])
        return surgered.sum(axis=0)


class LoopGradVac(GradVac):
    """GradVac pulls with a fresh norm and cosine per pair."""

    def balance(self, grads, losses):
        grads, _ = self._check_inputs(grads, losses)
        num_tasks = grads.shape[0]
        targets = self._check_targets(num_tasks)
        adjusted = grads.copy()
        for i in range(num_tasks):
            partners = [j for j in range(num_tasks) if j != i]
            self.rng.shuffle(partners)
            for j in partners:
                cos_current = cosine_similarity(adjusted[i], grads[j])
                cos_target = targets[i, j]
                if cos_current < cos_target:
                    alpha = gradvac_coefficient(
                        float(np.linalg.norm(adjusted[i])),
                        float(np.linalg.norm(grads[j])),
                        cos_current,
                        cos_target,
                    )
                    adjusted[i] = adjusted[i] + alpha * grads[j]
                targets[i, j] = (1.0 - self.ema_beta) * cos_target + self.ema_beta * cos_current
        return adjusted.sum(axis=0)


#: registry name → loop-kernel reference class
LOOP_KERNELS = {"mocograd": LoopMoCoGrad, "pcgrad": LoopPCGrad, "gradvac": LoopGradVac}
