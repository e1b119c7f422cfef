"""Tests for EarlyStopping / BestCheckpoint and trainer conflict tracking."""

import numpy as np
import pytest

from repro.arch import HardParameterSharing, LinearHead, MLPEncoder
from repro.balancers import EqualWeighting
from repro.core.conflict import conflict_fraction, pairwise_gcd
from repro.data import ArrayDataset, TaskSpec
from repro.nn.functional import mse_loss
from repro.training import BestCheckpoint, EarlyStopping, MTLTrainer


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2, mode="min")
        assert not stopper.update(1.0)
        assert not stopper.update(1.1)
        assert stopper.update(1.2)

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2, mode="min")
        stopper.update(1.0)
        stopper.update(1.1)
        assert not stopper.update(0.9)  # improvement resets
        assert not stopper.update(1.0)
        assert stopper.update(1.0)

    def test_max_mode(self):
        stopper = EarlyStopping(patience=1, mode="max")
        stopper.update(0.5)
        assert not stopper.update(0.6)
        assert stopper.update(0.55)

    def test_min_delta_threshold(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1, mode="min")
        stopper.update(1.0)
        # 0.95 is within min_delta: not an improvement.
        assert stopper.update(0.95)

    def test_nan_counts_as_stale(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0)
        stopper.update(float("nan"))
        assert stopper.update(float("nan"))

    def test_non_finite_never_becomes_best(self):
        """-inf would otherwise 'improve' forever in min mode (and +inf in
        max mode), disabling early stopping for a diverged run."""
        stopper = EarlyStopping(patience=2, mode="min")
        stopper.update(float("-inf"))
        assert stopper.best is None
        assert stopper.update(float("-inf"))  # second stale epoch ⇒ stop

    def test_positive_inf_in_max_mode_is_stale(self):
        stopper = EarlyStopping(patience=2, mode="max")
        stopper.update(0.5)
        assert not stopper.update(float("inf"))
        assert stopper.best == 0.5
        assert stopper.update(float("inf"))

    def test_recovery_after_non_finite_epoch(self):
        stopper = EarlyStopping(patience=3, mode="min")
        stopper.update(1.0)
        stopper.update(float("nan"))
        assert not stopper.update(0.5)  # finite improvement resets staleness
        assert stopper.best == 0.5
        assert stopper.stale_epochs == 0

    def test_nan_before_any_finite_value(self):
        stopper = EarlyStopping(patience=1, mode="min")
        assert stopper.update(float("nan"))
        assert stopper.best is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(mode="best")


class TestBestCheckpoint:
    def _model(self, rng):
        return HardParameterSharing(
            MLPEncoder(3, [4], rng), {"t": LinearHead(4, 1, rng)}
        )

    def test_snapshots_and_restores(self, rng):
        model = self._model(rng)
        checkpoint = BestCheckpoint(model, mode="min")
        checkpoint.update(1.0)
        best = {k: v.copy() for k, v in model.state_dict().items()}
        for param in model.parameters():
            param.data = param.data + 5.0
        checkpoint.update(2.0)  # worse — must not overwrite the snapshot
        checkpoint.restore()
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(value, best[name])

    def test_restore_without_snapshot_raises(self, rng):
        with pytest.raises(RuntimeError):
            BestCheckpoint(self._model(rng)).restore()

    def test_max_mode(self, rng):
        model = self._model(rng)
        checkpoint = BestCheckpoint(model, mode="max")
        assert checkpoint.update(0.5)
        assert not checkpoint.update(0.4)
        assert checkpoint.update(0.6)


class TestConflictTracking:
    def test_history_recorded_per_step(self, rng):
        x = rng.normal(size=(32, 3))
        data = ArrayDataset(x, {"a": x @ np.ones(3), "b": -(x @ np.ones(3))})
        tasks = [TaskSpec("a", mse_loss, {}, {}), TaskSpec("b", mse_loss, {}, {})]
        model = HardParameterSharing(
            MLPEncoder(3, [4], rng),
            {"a": LinearHead(4, 1, rng), "b": LinearHead(4, 1, rng)},
        )
        trainer = MTLTrainer(
            model, tasks, EqualWeighting(), seed=0, record_dynamics=True
        )
        trainer.fit(data, epochs=2, batch_size=16)
        samples = trainer.recorder.samples()
        assert len(samples) == trainer.step_count
        for sample in samples:
            assert 0.0 <= sample["gcd_mean"] <= 2.0
            assert 0.0 <= sample["conflict_fraction"] <= 1.0

    def test_samples_match_step_gradients(self, rng):
        """Each sample is the mean GCD / conflict fraction of that step's
        per-task gradients, as Definition 3 computes them directly."""
        x = rng.normal(size=(16, 3))
        data = ArrayDataset(x, {"a": x @ np.ones(3), "b": x @ rng.normal(size=3)})
        tasks = [TaskSpec("a", mse_loss, {}, {}), TaskSpec("b", mse_loss, {}, {})]
        model = HardParameterSharing(
            MLPEncoder(3, [4], rng),
            {"a": LinearHead(4, 1, rng), "b": LinearHead(4, 1, rng)},
        )
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0, record_dynamics=True)
        inputs, targets = data.all()
        for _ in range(3):
            grads = trainer.task_gradients(inputs, targets)
            trainer.train_step_single(inputs, targets)
            sample = trainer.recorder.samples()[-1]
            assert sample["gcd_mean"] == pytest.approx(pairwise_gcd(grads)[0, 1], abs=1e-12)
            assert sample["conflict_fraction"] == conflict_fraction(grads)

    def test_opposite_tasks_flagged_conflicting(self, rng):
        """Opposite targets competing for one shared output must conflict."""
        from repro.analysis.conflict_experiment import SharedOutputRegressor

        x = rng.normal(size=(64, 10))
        y = x @ np.ones(10)
        data = ArrayDataset(x, {"a": y, "b": -y})
        tasks = [TaskSpec("a", mse_loss, {}, {}), TaskSpec("b", mse_loss, {}, {})]
        model = SharedOutputRegressor(["a", "b"], 10, rng)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), lr=1e-2, seed=0, record_dynamics=True)
        trainer.fit(data, epochs=6, batch_size=32)
        fractions = [sample["conflict_fraction"] for sample in trainer.recorder.samples()[-4:]]
        assert np.mean(fractions) > 0.5

    def test_disabled_by_default(self, rng):
        x = rng.normal(size=(16, 3))
        data = ArrayDataset(x, {"a": x @ np.ones(3)})
        tasks = [TaskSpec("a", mse_loss, {}, {})]
        model = HardParameterSharing(MLPEncoder(3, [4], rng), {"a": LinearHead(4, 1, rng)})
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        trainer.fit(data, epochs=1, batch_size=8)
        assert trainer.recorder is None
