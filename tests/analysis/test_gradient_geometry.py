"""Tests for gradient-geometry instrumentation."""

import numpy as np
import pytest

from repro import MTLTrainer, create_balancer
from repro.analysis import (
    balancer_geometry_effect,
    conflict_trajectory,
    probe_pairwise_conflicts,
)
from repro.data import make_synthetic_mtl


@pytest.fixture(scope="module")
def tracked_trainer():
    bench = make_synthetic_mtl(num_tasks=3, num_samples=200, pairwise_cosine=-0.4, seed=0)
    model = bench.build_model("hps", np.random.default_rng(0))
    trainer = MTLTrainer(
        model, bench.tasks, create_balancer("equal"), lr=5e-3, seed=0, record_dynamics=True
    )
    trainer.fit(bench.train, epochs=3, batch_size=40)
    return bench, trainer


class TestConflictTrajectory:
    def test_summary_structure(self, tracked_trainer):
        _, trainer = tracked_trainer
        summary = conflict_trajectory(trainer)
        assert summary["steps"] == trainer.step_count
        assert len(summary["gcd_curve"]) == trainer.step_count
        assert 0.0 <= summary["mean_conflict_fraction"] <= 1.0
        assert summary["max_gcd"] >= summary["mean_gcd"] - 1e-12

    def test_windowing(self, tracked_trainer):
        _, trainer = tracked_trainer
        summary = conflict_trajectory(trainer, window=4)
        expected = (trainer.step_count + 3) // 4
        assert len(summary["gcd_curve"]) == expected

    def test_empty_history_raises(self):
        bench = make_synthetic_mtl(num_tasks=2, num_samples=100, seed=0)
        model = bench.build_model("hps", np.random.default_rng(0))
        trainer = MTLTrainer(model, bench.tasks, create_balancer("equal"), seed=0)
        with pytest.raises(ValueError):
            conflict_trajectory(trainer)

    def test_invalid_window(self, tracked_trainer):
        _, trainer = tracked_trainer
        with pytest.raises(ValueError):
            conflict_trajectory(trainer, window=0)


class TestProbePairwiseConflicts:
    def test_matrix_and_pairs(self, tracked_trainer):
        bench, trainer = tracked_trainer
        result = probe_pairwise_conflicts(trainer, bench.train, num_batches=2)
        assert result["matrix"].shape == (3, 3)
        assert len(result["pairs"]) == 3  # C(3,2)
        assert result["most_conflicting_pair"] in result["pairs"]

    def test_matrix_symmetric_zero_diagonal(self, tracked_trainer):
        bench, trainer = tracked_trainer
        matrix = probe_pairwise_conflicts(trainer, bench.train, num_batches=2)["matrix"]
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), np.zeros(3))


class TestBalancerGeometryEffect:
    def test_equal_weighting_is_identity(self, rng):
        grads = rng.normal(size=(3, 10))
        effect = balancer_geometry_effect(create_balancer("equal"), grads)
        assert effect["norm_ratio"] == pytest.approx(1.0)
        assert effect["cosine_to_naive"] == pytest.approx(1.0)

    def test_cagrad_improves_worst_task_alignment(self):
        grads = np.array([[1.0, 0.1, 0.0], [-0.8, 0.4, 0.1], [0.3, -0.9, 0.2]])
        effect = balancer_geometry_effect(create_balancer("cagrad", seed=0), grads)
        assert (
            effect["worst_task_alignment_balanced"]
            >= effect["worst_task_alignment_naive"] - 1e-9
        )

    def test_conflict_fraction_reported(self, rng):
        grads = np.array([[1.0, 0.0], [-1.0, 0.1]])
        effect = balancer_geometry_effect(create_balancer("pcgrad", seed=0), grads)
        assert effect["input_conflict_fraction"] == 1.0

    def test_zero_gradients_safe(self):
        effect = balancer_geometry_effect(create_balancer("equal"), np.zeros((2, 4)))
        assert effect["cosine_to_naive"] == 0.0
