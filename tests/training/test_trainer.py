"""Tests for the multi-task trainer: gradient collection, modes, equivalences,
conflict tracking."""

import numpy as np
import pytest

from repro.arch import HardParameterSharing, LinearHead, MLPEncoder
from repro.balancers import EqualWeighting
from repro.core import MoCoGrad
from repro.core.conflict import conflict_fraction, pairwise_gcd
from repro.data import MULTI_INPUT, ArrayDataset, TaskSpec
from repro.nn import Tensor
from repro.nn.functional import mse_loss
from repro.nn.utils import parameter_vector
from repro.training import MTLTrainer


def make_problem(rng, num_tasks=2, n=40, conflict=True):
    """Small single-input regression problem with controllable conflict."""
    x = rng.normal(size=(n, 6))
    w = rng.normal(size=(num_tasks, 6))
    if conflict and num_tasks >= 2:
        w[1] = -w[0] + 0.1 * rng.normal(size=6)
    targets = {f"t{k}": x @ w[k] + 0.05 * rng.normal(size=n) for k in range(num_tasks)}
    dataset = ArrayDataset(x, targets)
    tasks = [
        TaskSpec(
            f"t{k}",
            mse_loss,
            {"rmse": lambda o, t: float(np.sqrt(np.mean((o - t) ** 2)))},
            {"rmse": False},
        )
        for k in range(num_tasks)
    ]
    return dataset, tasks


def make_model(rng, tasks):
    encoder = MLPEncoder(6, [12, 8], rng)
    heads = {task.name: LinearHead(8, 1, rng) for task in tasks}
    return HardParameterSharing(encoder, heads)


class TestConstruction:
    def test_task_mismatch_rejected(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks[:1])
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting())

    def test_invalid_mode(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting(), mode="dual")

    def test_feature_mode_requires_single_input(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting(), mode=MULTI_INPUT, grad_space="features")

    def test_invalid_grad_space(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError, match="grad_space"):
            MTLTrainer(model, tasks, EqualWeighting(), grad_space="params")

    def test_invalid_optimizer(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        with pytest.raises(ValueError):
            MTLTrainer(model, tasks, EqualWeighting(), optimizer="lbfgs")


class TestGradientCollection:
    def test_task_gradients_match_manual_backward(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        x, targets = dataset.batch(np.arange(8))
        grads = trainer.task_gradients(x, targets)
        # Manual: backward each task loss separately on a fresh copy.
        from repro.nn.utils import grad_vector

        for k, task in enumerate(tasks):
            model.zero_grad()
            loss = task.loss_fn(model.forward(Tensor(x), task.name), targets[task.name])
            loss.backward()
            np.testing.assert_allclose(
                grads[k], grad_vector(model.shared_parameters()), atol=1e-12
            )

    def test_equal_balancer_matches_total_loss_backward(self, rng):
        """Σ per-task gradients == gradient of the summed loss."""
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        x, targets = dataset.batch(np.arange(10))
        grads = trainer.task_gradients(x, targets)
        model.zero_grad()
        outputs = model.forward_all(Tensor(x))
        total = None
        for task in tasks:
            loss = task.loss_fn(outputs[task.name], targets[task.name])
            total = loss if total is None else total + loss
        total.backward()
        from repro.nn.utils import grad_vector

        np.testing.assert_allclose(
            grads.sum(axis=0), grad_vector(model.shared_parameters()), atol=1e-10
        )


class TestFeatureModeEquivalence:
    def test_feature_and_param_modes_agree_for_equal_weighting(self, rng):
        """With the trivial balancer, balancing feature gradients then one
        shared backward is mathematically identical to summing parameter
        gradients (chain rule) — the paper's §VI-C speedup is exact."""
        dataset, tasks = make_problem(rng)
        seeds = np.random.default_rng(3)
        model_a = make_model(np.random.default_rng(7), tasks)
        model_b = make_model(np.random.default_rng(7), tasks)
        trainer_a = MTLTrainer(model_a, tasks, EqualWeighting(), grad_space="parameters", lr=1e-2, seed=1)
        trainer_b = MTLTrainer(model_b, tasks, EqualWeighting(), grad_space="features", lr=1e-2, seed=1)
        x, targets = dataset.batch(np.arange(16))
        for _ in range(3):
            trainer_a.train_step_single(x, targets)
            trainer_b.train_step_single(x, targets)
        np.testing.assert_allclose(
            parameter_vector(model_a.parameters()),
            parameter_vector(model_b.parameters()),
            atol=1e-10,
        )

    def test_feature_mode_losses_match(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), grad_space="features", seed=0)
        x, targets = dataset.batch(np.arange(8))
        losses = trainer.train_step_single(x, targets)
        assert losses.shape == (2,)
        assert np.all(losses > 0)


class TestTraining:
    def test_loss_decreases_single_input(self, rng):
        dataset, tasks = make_problem(rng, conflict=False)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), lr=1e-2, seed=0)
        history = trainer.fit(dataset, epochs=10, batch_size=16)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0] / 2

    def test_loss_decreases_multi_input(self, rng):
        x1 = rng.normal(size=(40, 6))
        x2 = rng.normal(size=(40, 6))
        w = rng.normal(size=6)
        tasks = [
            TaskSpec("t0", mse_loss, {}, {}),
            TaskSpec("t1", mse_loss, {}, {}),
        ]
        data = {
            "t0": ArrayDataset(x1, x1 @ w),
            "t1": ArrayDataset(x2, x2 @ -w),
        }
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), mode=MULTI_INPUT, lr=1e-2, seed=0)
        history = trainer.fit(data, epochs=10, batch_size=16)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0]

    def test_mocograd_trains(self, rng):
        dataset, tasks = make_problem(rng, conflict=True)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, MoCoGrad(seed=0), lr=1e-2, seed=0)
        history = trainer.fit(dataset, epochs=8, batch_size=16)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0]

    def test_max_steps_per_epoch_respected(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        trainer.fit(dataset, epochs=1, batch_size=4, max_steps_per_epoch=2)
        assert trainer.step_count == 2

    def test_task_specific_gradients_applied(self, rng):
        """Head parameters must move during training."""
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        before = parameter_vector(model.task_specific_parameters("t0"))
        trainer = MTLTrainer(model, tasks, EqualWeighting(), lr=1e-2, seed=0)
        trainer.fit(dataset, epochs=1, batch_size=16)
        after = parameter_vector(model.task_specific_parameters("t0"))
        assert not np.allclose(before, after)

    def test_determinism_same_seed(self, rng):
        dataset, tasks = make_problem(rng)
        finals = []
        for _ in range(2):
            model = make_model(np.random.default_rng(11), tasks)
            trainer = MTLTrainer(model, tasks, MoCoGrad(seed=5), lr=1e-2, seed=5)
            trainer.fit(dataset, epochs=2, batch_size=8)
            finals.append(parameter_vector(model.parameters()))
        np.testing.assert_allclose(finals[0], finals[1])

    def test_timing_recorded(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0)
        assert trainer.median_step_seconds == 0.0
        trainer.fit(dataset, epochs=1, batch_size=16)
        assert trainer.median_step_seconds > 0.0

    def test_balancer_sees_correct_loss_values(self, rng):
        dataset, tasks = make_problem(rng)

        captured = []

        class Spy(EqualWeighting):
            def balance(self, grads, losses):
                captured.append(losses.copy())
                return super().balance(grads, losses)

        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, Spy(), seed=0)
        x, targets = dataset.batch(np.arange(8))
        reported = trainer.train_step_single(x, targets)
        np.testing.assert_allclose(captured[0], reported)


class TestStaleGradients:
    @pytest.mark.parametrize("grad_space", ["parameters", "features"])
    def test_step_after_a_raising_balancer_starts_from_zero(self, rng, grad_space):
        """A balancer that raises part-way leaves the collected gradients in
        the arena; the next step must not add them to its own."""
        dataset, tasks = make_problem(rng)
        first, second = dataset.batch(np.arange(8)), dataset.batch(np.arange(8, 16))

        def trained(fail_first: bool) -> np.ndarray:
            model = make_model(np.random.default_rng(3), tasks)
            trainer = MTLTrainer(
                model, tasks, EqualWeighting(), grad_space=grad_space, seed=0
            )
            if fail_first:
                balance = trainer.balancer.balance

                def raising(grads, losses):
                    trainer.balancer.balance = balance
                    raise RuntimeError("balance failed")

                trainer.balancer.balance = raising
                with pytest.raises(RuntimeError, match="balance failed"):
                    trainer.train_step_single(*first)
            trainer.train_step_single(*second)
            return parameter_vector(model.parameters())

        np.testing.assert_array_equal(trained(fail_first=True), trained(fail_first=False))


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
