"""Multi-root collect vs the per-task backward reference, per architecture."""

import numpy as np
import pytest

from repro.balancers import EqualWeighting
from repro.data import MULTI_INPUT, TaskSpec
from repro.nn.functional import mse_loss
from repro.nn.utils import parameter_vector
from repro.training import MTLTrainer

from ..arch.test_architectures import FACTORIES
from ..arch.test_ple import make_ple
from ..reference.trainer import TRAINERS

ALL_FACTORIES = dict(FACTORIES, ple=make_ple)
CUT_ARCHS = ("hps", "mmoe", "cross_stitch", "cgc")


def make_tasks(names=("a", "b")):
    return [TaskSpec(name, mse_loss, {}, {}) for name in names]


def make_batch(rng, n=12):
    x = rng.normal(size=(n, 6))
    targets = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    return x, targets


def build_trainer(name, backward_mode, **kwargs):
    model = ALL_FACTORIES[name](np.random.default_rng(5))
    return TRAINERS[backward_mode](model, make_tasks(), EqualWeighting(), seed=0, **kwargs)


class TestGradientEquivalence:
    @pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
    def test_task_gradients_identical(self, rng, name):
        x, targets = make_batch(rng)
        grads = {}
        for mode in ("per_task", "multi_root"):
            grads[mode] = np.asarray(build_trainer(name, mode).task_gradients(x, targets))
        np.testing.assert_allclose(
            grads["multi_root"], grads["per_task"], atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
    def test_single_input_training_trajectory_identical(self, rng, name):
        x, targets = make_batch(rng)
        params = {}
        for mode in ("per_task", "multi_root"):
            trainer = build_trainer(name, mode)
            for _ in range(3):
                losses = trainer.train_step_single(x, targets)
            params[mode] = parameter_vector(trainer.model.parameters())
        np.testing.assert_allclose(
            params["multi_root"], params["per_task"], atol=1e-12, rtol=0
        )

    def test_multi_input_training_trajectory_identical(self, rng):
        x_a, targets = make_batch(rng)
        x_b = rng.normal(size=(12, 6))
        batches = {"a": (x_a, targets["a"]), "b": (x_b, targets["b"])}
        params = {}
        for mode in ("per_task", "multi_root"):
            trainer = build_trainer("hps", mode, mode=MULTI_INPUT)
            for _ in range(3):
                trainer.train_step_multi(batches)
            params[mode] = parameter_vector(trainer.model.parameters())
        np.testing.assert_allclose(
            params["multi_root"], params["per_task"], atol=1e-12, rtol=0
        )

    def test_feature_grad_space_identical(self, rng):
        x, targets = make_batch(rng)
        for name in CUT_ARCHS:
            params = {}
            for mode in ("per_task", "multi_root"):
                trainer = build_trainer(name, mode, grad_space="features")
                for _ in range(3):
                    trainer.train_step_single(x, targets)
                params[mode] = parameter_vector(trainer.model.parameters())
            np.testing.assert_allclose(
                params["multi_root"], params["per_task"], atol=1e-12, rtol=0, err_msg=name
            )


class TestBackwardModeOption:
    """The collect stage's workspace, fresh inspection matrices and spans."""

    def test_workspace_reused_across_steps(self, rng):
        x, targets = make_batch(rng)
        trainer = build_trainer("hps", "multi_root")
        trainer.train_step_single(x, targets)
        (first,) = trainer._grad_workspaces.values()
        trainer.train_step_single(x, targets)
        (second,) = trainer._grad_workspaces.values()
        assert second is first

    def test_task_gradients_returns_fresh_matrix(self, rng):
        x, targets = make_batch(rng)
        trainer = build_trainer("hps", "multi_root")
        first = trainer.task_gradients(x, targets)
        second = trainer.task_gradients(x, targets)
        assert first is not second
        np.testing.assert_allclose(first, second, atol=1e-12, rtol=0)

    def test_task_backward_spans_per_task(self, rng):
        from repro.obs import Telemetry

        x, targets = make_batch(rng)
        model = ALL_FACTORIES["hps"](np.random.default_rng(5))
        telemetry = Telemetry()
        trainer = MTLTrainer(model, make_tasks(), EqualWeighting(), seed=0, telemetry=telemetry)
        trainer.train_step_single(x, targets)
        assert len(telemetry.durations("step/backward")) == 1
        assert len(telemetry.durations("step/backward/task_backward")) == 2
