"""Tests for the MoCoGrad algorithm (Algorithm 1, Eq. 8–9, Theorem 1)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import MoCoGrad, check_theorem1, create_balancer

from ..reference.balancers import MatrixMomentumMoCoGrad


def make_conflicting_grads():
    """Two strongly conflicting gradients in R²."""
    return np.array([[1.0, 0.2], [-1.0, 0.3]])


def make_aligned_grads():
    return np.array([[1.0, 0.2], [0.9, 0.3]])


class TestConstruction:
    def test_registered(self):
        assert isinstance(create_balancer("mocograd"), MoCoGrad)

    def test_default_lambda_is_paper_optimum(self):
        assert MoCoGrad().calibration == pytest.approx(0.12)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            MoCoGrad(calibration=0.0)
        with pytest.raises(ValueError):
            MoCoGrad(calibration=1.5)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            MoCoGrad(beta1=1.0)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            MoCoGrad(momentum_update="sometimes")
        with pytest.raises(ValueError):
            MoCoGrad(momentum_source="mixed")

    def test_repr_mentions_hyperparameters(self):
        assert "0.12" in repr(MoCoGrad())


class TestFirstStep:
    def test_first_step_is_plain_sum(self):
        """Zero momentum ⇒ Eq. (8) undefined ⇒ first step falls back to Σg."""
        balancer = MoCoGrad(seed=0)
        grads = make_conflicting_grads()
        combined = balancer.balance(grads, np.ones(2))
        np.testing.assert_allclose(combined, grads.sum(axis=0))

    def test_momentum_initialized_after_first_step(self):
        balancer = MoCoGrad(beta1=0.9, seed=0)
        grads = make_conflicting_grads()
        balancer.balance(grads, np.ones(2))
        np.testing.assert_allclose(balancer.momentum, 0.1 * grads)


class TestCalibration:
    def test_aligned_tasks_untouched(self):
        balancer = MoCoGrad(seed=0)
        grads = make_aligned_grads()
        balancer.balance(grads, np.ones(2))  # builds momentum
        calibrated = balancer.calibrate(grads)
        np.testing.assert_allclose(calibrated, grads)

    def test_conflicting_task_calibrated_by_partner_momentum(self):
        lam = 0.5
        balancer = MoCoGrad(calibration=lam, beta1=0.9, seed=0)
        grads = make_conflicting_grads()
        balancer.balance(grads, np.ones(2))  # momentum ← 0.1 * grads
        momentum = balancer.momentum.copy()
        calibrated = balancer.calibrate(grads)
        # Eq. (8): ĝ_0 = g_0 + λ (‖g_1‖/‖m_1‖) m_1
        expected_0 = grads[0] + lam * (
            np.linalg.norm(grads[1]) / np.linalg.norm(momentum[1])
        ) * momentum[1]
        np.testing.assert_allclose(calibrated[0], expected_0)

    def test_calibration_magnitude_scales_with_partner_grad_norm(self):
        """The added term has norm exactly λ‖g_j‖ (momentum renormalized)."""
        lam = 0.3
        balancer = MoCoGrad(calibration=lam, seed=0)
        grads = make_conflicting_grads()
        balancer.balance(grads, np.ones(2))
        calibrated = balancer.calibrate(grads)
        added = calibrated[0] - grads[0]
        assert np.linalg.norm(added) == pytest.approx(lam * np.linalg.norm(grads[1]))

    def test_zero_partner_gradient_no_calibration(self):
        balancer = MoCoGrad(seed=0)
        grads = np.array([[1.0, 0.0], [0.0, 0.0]])
        balancer.balance(grads, np.ones(2))
        calibrated = balancer.calibrate(grads)
        np.testing.assert_allclose(calibrated, grads)

    def test_calibration_accumulates_over_partners(self):
        """With two conflicting partners, both add calibration terms."""
        lam = 0.2
        balancer = MoCoGrad(calibration=lam, seed=0)
        grads = np.array([[1.0, 0.0, 0.0], [-1.0, 0.2, 0.0], [-1.0, -0.2, 0.0]])
        balancer.balance(grads, np.ones(3))
        momentum = balancer.momentum.copy()
        calibrated = balancer.calibrate(grads)
        expected = grads[0].copy()
        for j in (1, 2):
            expected += lam * (np.linalg.norm(grads[j]) / np.linalg.norm(momentum[j])) * momentum[j]
        np.testing.assert_allclose(calibrated[0], expected)


class TestMomentumModes:
    def test_per_step_updates_once(self):
        balancer = MoCoGrad(momentum_update="per_step", beta1=0.5, seed=0)
        grads = make_aligned_grads()
        balancer.balance(grads, np.ones(2))
        np.testing.assert_allclose(balancer.momentum, 0.5 * grads)

    def test_per_pair_matches_per_step_for_two_tasks_first_update(self):
        """For K=2 each task has exactly one partner, so the literal
        Algorithm 1 updates each momentum once per step too."""
        g = make_conflicting_grads()
        per_step = MoCoGrad(momentum_update="per_step", seed=0)
        per_pair = MoCoGrad(momentum_update="per_pair", seed=0)
        per_step.balance(g, np.ones(2))
        per_pair.balance(g, np.ones(2))
        np.testing.assert_allclose(per_step.momentum, per_pair.momentum)

    def test_per_pair_decays_more_for_three_tasks(self):
        grads = np.ones((3, 4))
        per_step = MoCoGrad(momentum_update="per_step", beta1=0.5, seed=0)
        per_pair = MoCoGrad(momentum_update="per_pair", beta1=0.5, seed=0)
        per_step.balance(grads, np.ones(3))
        per_pair.balance(grads, np.ones(3))
        # per_pair applied the EMA twice per task (K−1 = 2 partners loops).
        assert np.linalg.norm(per_pair.momentum) > np.linalg.norm(per_step.momentum)

    def test_calibrated_momentum_source(self):
        balancer = MoCoGrad(momentum_source="calibrated", beta1=0.0, seed=0)
        grads = make_conflicting_grads()
        balancer.balance(grads, np.ones(2))  # first step: ĝ = g (no momentum)
        balancer.balance(grads, np.ones(2))
        # With beta1=0, momentum equals the latest calibrated gradients,
        # which differ from raw for conflicting tasks.
        assert not np.allclose(balancer.momentum, grads)


def conflicting_trajectory(num_tasks, dim, steps, seed=0):
    """Noisy gradients around a shared direction with alternating signs:
    every step has conflicting pairs once momentum is non-zero."""
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=dim)
    signs = np.where(np.arange(num_tasks) % 2 == 0, 1.0, -1.0)[:, None]
    for _ in range(steps):
        yield rng.normal(size=(num_tasks, dim)) + 2.0 * signs * shared, np.ones(num_tasks)


class TestRowwiseMomentum:
    """Eq. (9) runs one task row at a time through a ``(d,)`` scratch."""

    @pytest.mark.parametrize("source", ["raw", "calibrated"])
    @pytest.mark.parametrize("num_tasks", [2, 9])
    def test_bitwise_equal_to_full_matrix_update(self, num_tasks, source):
        dim = 48
        rowwise = MoCoGrad(momentum_source=source, seed=0)
        matrix = MatrixMomentumMoCoGrad(momentum_source=source, seed=0)
        for step, (grads, losses) in enumerate(conflicting_trajectory(num_tasks, dim, 30)):
            direction = rowwise.balance(grads, losses)
            assert np.array_equal(direction, matrix.balance(grads, losses)), step
            assert np.array_equal(rowwise.momentum, matrix.momentum), step
        assert rowwise._scratch.shape == (dim,)
        assert not np.array_equal(direction, grads.sum(axis=0))  # calibration applied

    def test_reset_drops_the_scratch(self):
        balancer = MoCoGrad(seed=0)
        balancer.balance(np.ones((3, 5)), np.ones(3))
        balancer.reset(3)
        balancer.balance(np.ones((3, 7)), np.ones(3))
        assert balancer._scratch.shape == (7,)

    def test_no_second_k_by_d_block_at_ml9_shape(self):
        """At ``ml9``'s (9, 162,832) the balancer holds one ``(K, d)``
        matrix (its momentum) and a warmed-up balance() allocates no
        ``(K, d)`` temporary."""
        num_tasks, dim = 9, 162_832
        block = num_tasks * dim * 8
        trajectory = list(conflicting_trajectory(num_tasks, dim, 3))
        tracemalloc.start()
        try:
            balancer = MoCoGrad(seed=0)
            for grads, losses in trajectory[:2]:
                balancer.balance(grads, losses)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            balancer.balance(*trajectory[2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block <= held < 2 * block
        assert peak - held < block


class TestStateManagement:
    def test_reset_clears_momentum(self):
        balancer = MoCoGrad(seed=0)
        balancer.balance(make_conflicting_grads(), np.ones(2))
        assert balancer.momentum is not None
        balancer.reset(2)
        assert balancer.momentum is None
        assert balancer.step_count == 0

    def test_task_count_mismatch_raises(self):
        balancer = MoCoGrad(seed=0)
        balancer.reset(2)
        with pytest.raises(ValueError):
            balancer.balance(np.ones((3, 4)), np.ones(3))

    def test_loss_shape_mismatch_raises(self):
        balancer = MoCoGrad(seed=0)
        with pytest.raises(ValueError):
            balancer.balance(np.ones((2, 4)), np.ones(3))

    def test_momentum_shape_mismatch_raises_instead_of_silent_reset(self):
        from repro.obs import Telemetry

        balancer = MoCoGrad(seed=0)
        balancer.telemetry = Telemetry()
        balancer.calibrate(make_conflicting_grads())
        momentum_before = balancer.momentum.copy()
        with pytest.raises(ValueError, match="reset\\(\\)"):
            balancer.calibrate(np.ones((2, 7)))
        # Momentum history survives the rejected call untouched.
        np.testing.assert_allclose(balancer.momentum, momentum_before)
        counter = balancer.telemetry.counter("mocograd_momentum_shape_mismatch_total")
        assert counter.value == 1
        # reset() is the documented recovery path.
        balancer.reset(2)
        balancer.calibrate(np.ones((2, 7)))
        assert balancer.momentum.shape == (2, 7)

    def test_balance_shape_mismatch_leaves_momentum_untouched(self):
        """The direct path updates momentum in place; a rejected call must
        raise before the first write."""
        balancer = MoCoGrad(seed=0)
        balancer.balance(make_conflicting_grads(), np.ones(2))
        balancer.balance(make_conflicting_grads(), np.ones(2))
        momentum_before = balancer.momentum
        with pytest.raises(ValueError, match="reset\\(\\)"):
            balancer.balance(np.ones((2, 7)), np.ones(2))
        assert np.array_equal(balancer.momentum, momentum_before)
        assert balancer.step_count == 2

    @pytest.mark.parametrize("update", ["per_step", "per_pair"])
    def test_held_momentum_does_not_move(self, update):
        """``momentum`` is a copy: the in-place Eq. (9) update of the next
        step never reaches an array a caller already holds."""
        balancer = MoCoGrad(momentum_update=update, seed=0)
        balancer.balance(make_conflicting_grads(), np.ones(2))
        held = balancer.momentum
        snapshot = held.copy()
        balancer.balance(make_aligned_grads(), np.ones(2))
        assert np.array_equal(held, snapshot)
        assert not np.array_equal(balancer.momentum, snapshot)
        held[:] = 0.0
        assert not np.array_equal(balancer.momentum, held)

    def test_dynamics_reports_post_update_norms(self):
        balancer = MoCoGrad(beta1=0.5, seed=0)
        grads = make_conflicting_grads()
        balancer.balance(grads, np.ones(2))
        np.testing.assert_allclose(
            balancer.dynamics()["momentum_norms"], 0.5 * np.linalg.norm(grads, axis=1)
        )
        balancer.balance(grads, np.ones(2))
        np.testing.assert_allclose(
            balancer.dynamics()["momentum_norms"], 0.75 * np.linalg.norm(grads, axis=1)
        )

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=(4, 20)) for _ in range(5)]
        results = []
        for _ in range(2):
            balancer = MoCoGrad(seed=13)
            balancer.reset(4)
            out = [balancer.balance(g, np.ones(4)) for g in grads]
            results.append(np.stack(out))
        np.testing.assert_allclose(results[0], results[1])


class TestTheorem1Property:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 5), st.integers(2, 10)),
            elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        ),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_calibrated_gradient_bounded(self, grads, lam):
        """Theorem 1: ‖Σ ĝ_i‖ ≤ K(1+λ)G at every step."""
        balancer = MoCoGrad(calibration=lam, seed=0)
        balancer.reset(grads.shape[0])
        for _ in range(3):
            calibrated = balancer.calibrate(grads)
            assert check_theorem1(calibrated, grads, lam)

    def test_bound_holds_over_long_run(self, rng):
        balancer = MoCoGrad(calibration=0.9, seed=0)
        balancer.reset(3)
        for _ in range(50):
            grads = rng.normal(size=(3, 30))
            calibrated = balancer.calibrate(grads)
            assert check_theorem1(calibrated, grads, 0.9)
