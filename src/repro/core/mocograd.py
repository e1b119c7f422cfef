"""MoCoGrad — Momentum-calibrated Conflicting Gradients (the paper's §IV).

Algorithm 1, reproduced:

    for each task i:
        g_i = ∇_θ L_i
        for each task j ≠ i in random order:
            if GCD(g_i, g_j) > 1:                       # Eq. (4), conflict
                ĝ_i = g_i + λ · (‖g_j‖ / ‖m_j^(t−1)‖) · m_j^(t−1)   # Eq. (8)
            update m_j^(t) = β₁ m_j^(t−1) + (1−β₁) g_j              # Eq. (9)
    update parameters with g^new = Σ_i ĝ_i

Fidelity notes (also recorded in DESIGN.md):

- *Accumulation.*  The listing overwrites ``ĝ_i`` per conflicting partner,
  but Theorem 1/3 expand ``ĝ_i = g_i + λ Σ_j (‖g_j‖/‖m_j‖)·m_j`` — i.e. the
  calibration terms accumulate over all conflicting partners.  This
  implementation accumulates (the two coincide for K = 2, the setting of the
  convergence theory).
- *Momentum update cadence.*  The listing updates ``m_j`` inside the loop
  over i, i.e. K−1 times per optimization step.  ``momentum_update``
  selects ``"per_step"`` (default: each task's momentum updates exactly once
  per step, identical for K = 2) or ``"per_pair"`` (the literal listing).
- *Momentum source.*  Eq. (9) writes ``ĝ_j`` while Algorithm 1 line 12
  writes the raw ``g_j``; ``momentum_source`` selects ``"raw"`` (default,
  the listing) or ``"calibrated"`` (Eq. 9 as printed).
- *Zero momentum.*  At t = 0 all momenta are zero and Eq. (8) divides by
  ‖m_j‖; calibration is skipped for a partner with (numerically) zero
  momentum — the first step therefore reduces to plain joint training.

Kernel: under ``momentum_update="per_step"`` every calibration reads the
step-(t−1) momentum and the raw gradients, so the double loop over ordered
pairs commutes — the whole of Eq. (8) collapses to one masked matrix
product:

    ĝ = g + λ · C · (s ⊙ m),   C[i,j] = conflict(i,j) ∧ ‖m_j‖ ≥ ε,
                               s_j    = ‖g_j‖ / ‖m_j‖,

with the conflict mask and norms read from the shared per-step
:class:`~repro.core.gradstats.GradStats` cache and all telemetry counters
derived from mask sums.  :meth:`MoCoGrad.balance` needs only the sum of
that matrix, and with ``momentum_source="raw"`` (the default) nothing
else reads ``ĝ``, so it never forms it:

    Σ_i ĝ_i = Σ_i g_i + (λ · s ⊙ colsum(C)) · m

— one row-sum plus one GEMV over ``(K, d)``.  A step with no applied
calibration returns ``grads.sum(axis=0)``.  :meth:`MoCoGrad.calibrate`
(the analysis API), ``momentum_source="calibrated"`` (whose Eq. (9)
reads ``ĝ``) and ``momentum_update="per_pair"`` (inherently sequential:
momentum mutates mid-loop, so it runs the per-pair loop) keep the full
matrix.  The per-pair loop and the full-matrix ``balance`` are the
reference implementations the tests compare against
(``tests/reference/``).

Momentum state: every per-step path advances Eq. (9) *in place*, one
task row at a time — ``m_k *= β; m_k += (1−β)·g_k`` through one reused
``(d,)`` row scratch — which is bitwise equal to ``β·m + (1−β)·g`` (the
same elementwise operations) and keeps no second ``(K, d)`` matrix.
The per-task norms ``‖m_k‖`` are taken at most once per step (one
``einsum`` pass, cached until the next update) and feed the
``mocograd_momentum_norm`` gauges, :meth:`MoCoGrad.dynamics` and the
direct path's next zero-momentum mask and scale (the full-matrix path
keeps its own ``np.linalg.norm``, so its trajectories are unchanged).
Because the state mutates in place, :attr:`MoCoGrad.momentum` returns a
copy.
"""

from __future__ import annotations

import numpy as np

from .balancer import GradientBalancer, register_balancer
from .conflict import cosine_similarity
from .gradstats import GradStats

__all__ = ["MoCoGrad"]

_EPS = 1e-12


@register_balancer("mocograd")
class MoCoGrad(GradientBalancer):
    """Momentum-calibrated conflicting-gradient balancer.

    Parameters
    ----------
    calibration:
        λ ∈ (0, 1] — strength of the momentum calibration term (Eq. 8).
        The paper's Fig. 9 sweep finds λ = 0.12 optimal on Office-Home.
    beta1:
        β₁ ∈ [0, 1) — exponential decay rate of the per-task first moment
        (Eq. 9); the paper uses the Adam-typical 0.9.
    momentum_update:
        ``"per_step"`` or ``"per_pair"`` — see the module docstring.
    momentum_source:
        ``"raw"`` (Algorithm 1) or ``"calibrated"`` (Eq. 9) gradients feed
        the momentum update.
    calibration_decay:
        Optional p > 0 enabling Corollary 1's schedule λ_t = λ/t^p — the
        setting under which the O(√T) regret bound is proven (p = 1/2).
        ``None`` (default) keeps λ constant, as in the paper's experiments.
    seed:
        Seeds the random partner-ordering required by Algorithm 1 line 7.
    """

    def __init__(
        self,
        calibration: float = 0.12,
        beta1: float = 0.9,
        momentum_update: str = "per_step",
        momentum_source: str = "raw",
        calibration_decay: float | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0.0 < calibration <= 1.0:
            raise ValueError(f"calibration λ must be in (0, 1]; got {calibration}")
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1); got {beta1}")
        if momentum_update not in ("per_step", "per_pair"):
            raise ValueError("momentum_update must be 'per_step' or 'per_pair'")
        if momentum_source not in ("raw", "calibrated"):
            raise ValueError("momentum_source must be 'raw' or 'calibrated'")
        if calibration_decay is not None and calibration_decay <= 0:
            raise ValueError("calibration_decay must be positive (or None)")
        self.calibration_decay = calibration_decay
        self.calibration = calibration
        self.beta1 = beta1
        self.momentum_update = momentum_update
        self.momentum_source = momentum_source
        self._momentum: np.ndarray | None = None
        #: ``‖m_k‖`` of the current momentum, ``None`` until first read.
        self._momentum_norms: np.ndarray | None = None
        #: reused ``(d,)`` row scratch of the in-place Eq. (9) update
        self._scratch: np.ndarray | None = None
        self.step_count = 0

    # ------------------------------------------------------------------
    def reset(self, num_tasks: int) -> None:
        super().reset(num_tasks)
        self._momentum = None
        self._momentum_norms = None
        self._scratch = None
        self.step_count = 0

    @property
    def momentum(self) -> np.ndarray | None:
        """A copy of the per-task first-moment estimates ``m`` (``(K, d)``).

        The state advances in place every step, so a live view would move
        under its holder; the copy taken here never changes.
        """
        return None if self._momentum is None else self._momentum.copy()

    # ------------------------------------------------------------------
    def calibrate(self, grads: np.ndarray, stats: GradStats | None = None) -> np.ndarray:
        """Return the calibrated per-task gradients ``ĝ`` (``(K, d)``).

        Exposed separately from :meth:`balance` so analysis code (and the
        Theorem 1 bound test) can inspect per-task calibrated gradients.
        Updates the internal momentum state.  ``stats`` may carry an
        existing :class:`GradStats` over ``grads`` (as :meth:`balance`
        does); one is built on demand otherwise.
        """
        grads = np.asarray(grads, dtype=np.float64)
        num_tasks = grads.shape[0]
        self._begin_step(grads)
        previous_momentum = self._momentum

        if self.momentum_update == "per_pair":
            # Literal Algorithm 1: momentum mutates while later tasks i are
            # still being calibrated — inherently sequential, always a loop.
            calibrated = grads.copy()
            momentum = previous_momentum.copy()
            for i in range(num_tasks):
                partners = [j for j in range(num_tasks) if j != i]
                self.rng.shuffle(partners)
                for j in partners:
                    momentum_j = momentum[j]
                    self._maybe_calibrate(calibrated, grads, i, j, momentum_j)
                    source = calibrated[j] if self.momentum_source == "calibrated" else grads[j]
                    momentum[j] = self.beta1 * momentum_j + (1.0 - self.beta1) * source
            self._momentum = momentum
        else:
            # per_step: all calibrations read the step-(t−1) momentum; each
            # task's momentum then updates exactly once.
            if stats is None or stats.grads is not grads:
                stats = GradStats(grads)
            calibrated = self._calibrate_per_step(grads, stats, previous_momentum)
            self._advance_momentum(calibrated if self.momentum_source == "calibrated" else grads)
        self._end_step()
        return calibrated

    def _begin_step(self, grads: np.ndarray) -> None:
        """Check (or create) the momentum state before anything mutates."""
        if self._momentum is None:
            self._momentum = np.zeros_like(grads)
            self._momentum_norms = np.zeros(grads.shape[0])
        elif self._momentum.shape != grads.shape:
            # Silently zero-resetting here would invalidate Eq. (9)'s
            # momentum history mid-run without any signal; make the caller
            # decide.
            self.telemetry.counter("mocograd_momentum_shape_mismatch_total").inc()
            if grads.shape[0] == self._momentum.shape[0]:
                cause = (
                    "the gradient width changed with the task count unchanged: the "
                    "shared-parameter set changed, or, under grad_space='features' "
                    "where a row is batch × features wide, a partial trailing batch "
                    "arrived (fit(..., drop_last=True) avoids this)"
                )
            else:
                cause = "the task count changed mid-run"
            raise ValueError(
                f"gradient matrix shape {grads.shape} does not match momentum state "
                f"{self._momentum.shape}; {cause} — call reset() to start a fresh "
                "momentum history"
            )
        if self.telemetry.enabled:
            # λ in effect for this step (step_count has not advanced yet).
            self.telemetry.gauge("mocograd_lambda").set(self.current_calibration())

    def _advance_momentum(self, source: np.ndarray) -> None:
        """Eq. (9) in place, row by row: ``m_k ← β·m_k + (1−β)·source_k``, bitwise."""
        if self._scratch is None:
            self._scratch = np.empty(self._momentum.shape[1])
        scratch = self._scratch
        for momentum_k, source_k in zip(self._momentum, source):
            momentum_k *= self.beta1
            np.multiply(source_k, 1.0 - self.beta1, out=scratch)
            momentum_k += scratch

    def _end_step(self) -> None:
        """Advance the step count and publish the post-update norms."""
        self.step_count += 1
        self._momentum_norms = None
        if self.telemetry.enabled:
            for task_index, norm in enumerate(self._current_norms()):
                self.telemetry.gauge("mocograd_momentum_norm", task=str(task_index)).set(
                    float(norm)
                )

    def _current_norms(self) -> np.ndarray:
        """``‖m_k‖`` of the current momentum: one pass, cached per step."""
        if self._momentum_norms is None:
            momentum = self._momentum
            self._momentum_norms = np.sqrt(np.einsum("kd,kd->k", momentum, momentum))
        return self._momentum_norms

    def _calibration_plan(
        self, stats: GradStats, momentum_norms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Eq. (8)'s applied-pair mask ``C`` and partner scales ``s``.

        Counts conflicts, zero-momentum skips and applied calibrations
        from mask sums — exactly the per-pair loop's increments — and
        returns ``None`` when no calibration applies this step.
        """
        conflict = stats.conflict_mask  # (K, K) ordered pairs, diag False
        conflicts = int(conflict.sum())
        telemetry = self.telemetry
        if conflicts:
            telemetry.counter("mocograd_conflicts_total").inc(conflicts)
        live = momentum_norms >= _EPS
        # Eq. (8) is undefined for a zero-momentum partner: those columns
        # of the conflict mask are zeroed and counted as skips.
        effective = conflict & live[None, :]
        applied = int(effective.sum())
        skipped = conflicts - applied
        if skipped:
            telemetry.counter("mocograd_skipped_zero_momentum_total").inc(skipped)
        if applied == 0:
            return None
        telemetry.counter("mocograd_calibrations_total").inc(applied)
        scale = np.zeros_like(momentum_norms)
        np.divide(stats.norms, momentum_norms, out=scale, where=live)
        return effective, scale

    def _calibrate_per_step(
        self,
        grads: np.ndarray,
        stats: GradStats,
        previous_momentum: np.ndarray,
    ) -> np.ndarray:
        """Eq. (8) for all ordered pairs as one masked matrix product.

        Valid because per-step calibration is order-free: every term reads
        raw gradients and step-(t−1) momentum, and accumulation commutes.
        """
        plan = self._calibration_plan(stats, np.linalg.norm(previous_momentum, axis=1))
        if plan is None:
            return grads.copy()
        effective, scale = plan
        return grads + self.current_calibration() * (
            effective.astype(np.float64) @ (scale[:, None] * previous_momentum)
        )

    def dynamics(self) -> dict:
        """Flight-recorder hook: λ in effect plus per-task momentum norms.

        ``lambda`` follows :meth:`current_calibration` (so Corollary 1's
        decay schedule is visible step by step); ``momentum_norms`` are
        ``‖m_k^{(t)}‖`` *after* this step's Eq. (9) update.
        """
        sample: dict = {"lambda": self.current_calibration()}
        if self._momentum is not None:
            sample["momentum_norms"] = [float(n) for n in self._current_norms()]
        return sample

    def current_calibration(self) -> float:
        """λ at the current step (λ/t^p under Corollary 1's schedule)."""
        if self.calibration_decay is None:
            return self.calibration
        t = max(self.step_count, 0) + 1
        return self.calibration / t**self.calibration_decay

    def _maybe_calibrate(
        self,
        calibrated: np.ndarray,
        grads: np.ndarray,
        i: int,
        j: int,
        momentum_j: np.ndarray,
    ) -> None:
        """Apply Eq. (8) to task ``i`` against partner ``j`` if conflicting."""
        if cosine_similarity(grads[i], grads[j]) >= 0.0:  # GCD ≤ 1: no conflict
            return
        telemetry = self.telemetry
        telemetry.counter("mocograd_conflicts_total").inc()
        momentum_norm = np.linalg.norm(momentum_j)
        if momentum_norm < _EPS:
            # Eq. (8) undefined for zero momentum; skip calibration
            telemetry.counter("mocograd_skipped_zero_momentum_total").inc()
            return
        grad_norm = np.linalg.norm(grads[j])
        calibrated[i] += self.current_calibration() * (grad_norm / momentum_norm) * momentum_j
        telemetry.counter("mocograd_calibrations_total").inc()

    # ------------------------------------------------------------------
    def balance(self, grads: np.ndarray, losses: np.ndarray) -> np.ndarray:
        """Algorithm 1: calibrate all tasks, return ``g^new = Σ_i ĝ_i``.

        Under the defaults (``per_step``, ``raw``) the sum comes straight
        from the ``(K,)`` Eq. (8) weights without forming ``ĝ`` (see the
        module docstring); the other modes sum :meth:`calibrate`.
        """
        grads, _ = self._check_inputs(grads, losses)
        if self.momentum_update == "per_pair" or self.momentum_source == "calibrated":
            return self.calibrate(grads, stats=self._stats).sum(axis=0)
        self._begin_step(grads)
        plan = self._calibration_plan(self._stats, self._current_norms())
        direction = grads.sum(axis=0)
        if plan is not None:
            effective, scale = plan
            weights = self.current_calibration() * (scale * effective.sum(axis=0))
            direction += weights @ self._momentum
        self._advance_momentum(grads)
        self._end_step()
        return direction

    def __repr__(self) -> str:
        return (
            f"MoCoGrad(calibration={self.calibration}, beta1={self.beta1}, "
            f"momentum_update={self.momentum_update!r}, momentum_source={self.momentum_source!r})"
        )
